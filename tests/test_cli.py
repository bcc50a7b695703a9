"""Command-line behavior: reference outputs, JSON stability, exit codes."""

import json

import pytest

from latsize.cli import run_command

HEPTAGON = "8,0;6,1;2,4;0,6;0,8;3,7;5,6"


def test_sigma_reference_output():
    result = run_command(["sigma", "--vertices", HEPTAGON])
    assert result.exit_code == 0
    assert result.stdout == "10\n"
    # a leading minus sign in the space-separated form is a coordinate, not an option
    for argv in (["--vertices", "-1,0;0,0;0,1"], ["--vertices=-1,0;0,0;0,1"]):
        assert run_command(["sigma", *argv]).stdout == "1\n", argv


def test_square_reference_output():
    result = run_command(["square", "--vertices", HEPTAGON])
    assert result.exit_code == 0
    assert result.stdout == "8\n"


def test_width_and_box_outputs():
    assert run_command(["width", "--vertices", HEPTAGON]).stdout == "5\n"
    assert run_command(["box", "--vertices", HEPTAGON]).stdout == "5 8\n"


def test_analyze_json_document():
    result = run_command(["analyze", "--poly", "y^2 + x^7 + 1", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["command"] == "analyze"
    assert doc["genus"] == 3
    assert doc["gonality"] == 2
    assert doc["s2_bound"] == 5
    assert doc["s11_bound"] == [2, 4]
    assert doc["caveats"]


def test_json_output_is_byte_stable():
    args = ["sigma", "--vertices", HEPTAGON, "--json", "--witness", "--trace"]
    first = run_command(args)
    second = run_command(args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["value"] == 10
    assert doc["witness"]["matrix"][0] and doc["witness"]["translation"]
    assert doc["trace"][0]["rule"] == "LawrencePrism(4,2)"
    assert [step["contribution"] for step in doc["trace"]] == [6, 3, 3]


def test_trace_skins_are_canonical(heptagon):
    doc = json.loads(run_command(["peel", "--vertices", HEPTAGON, "--json"]).stdout)
    assert doc["value"] == 3
    assert doc["trace"][0]["skin"] == [[x, y] for x, y in heptagon.vertices]


def test_verify_flags_pass():
    assert run_command(["sigma", "--vertices", HEPTAGON, "--verify"]).exit_code == 0
    assert run_command(["square", "--vertices", "0,0;4,0;0,4", "--verify"]).exit_code == 0
    assert run_command(["width", "--vertices", HEPTAGON, "--verify"]).exit_code == 0
    assert run_command(["box", "--vertices", "0,0;5,0;0,2", "--verify"]).exit_code == 0
    assert run_command(["analyze", "--poly", "y^2 + x^9 + 1", "--verify"]).exit_code == 0


def test_oracle_subcommand():
    assert run_command(["oracle", "--shape", "sigma", "--vertices", HEPTAGON]).stdout == "10\n"
    assert run_command(["oracle", "--shape", "box", "--vertices", "0,0;5,0;0,2"]).stdout == "2,5\n"


def test_exit_code_syntax_errors():
    assert run_command(["sigma", "--vertices", "not-a-point"]).exit_code == 2
    assert run_command(["analyze", "--poly", "x +* y"]).exit_code == 2
    assert run_command(["analyze", "--poly", "x - x"]).exit_code == 2
    assert run_command(["sigma"]).exit_code == 2  # no input source
    assert run_command(["nonsense"]).exit_code == 2


def test_exit_code_precondition_failures():
    assert run_command(["analyze", "--poly", "x^2 + x + 1"]).exit_code == 3
    assert run_command(["peel", "--vertices", ""]).exit_code == 3


def test_guard_bound_exits_2():
    big = 2**31
    assert run_command(["sigma", f"--vertices={big + 1},0;0,0;0,1"]).exit_code == 2
    assert run_command(["sigma", f"--vertices=-{big + 1},0;0,0;0,1"]).exit_code == 2
    assert run_command(["width", f"--vertices={big},0;0,0;0,1"]).stdout == "1\n"


def test_input_file_json_and_lines(tmp_path):
    as_json = tmp_path / "poly.json"
    as_json.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [0, 4]]}))
    assert run_command(["sigma", "--input", str(as_json)]).stdout == "4\n"
    as_lines = tmp_path / "poly.txt"
    as_lines.write_text("0 0\n4 0\n0 4\n")
    assert run_command(["sigma", "--input", str(as_lines)]).stdout == "4\n"
    assert run_command(["sigma", "--input", str(tmp_path / "missing.txt")]).exit_code == 2


def test_poly_input_for_polygon_commands():
    assert run_command(["sigma", "--poly", "y^2 + x^5 + 1"]).stdout == "5\n"
    assert run_command(["width", "--poly", "y^2 + x^5 + 1"]).stdout == "2\n"


def test_json_input_contract(tmp_path):
    doc = tmp_path / "poly.json"
    for text in ('{"verts": [[0, 0], [4, 0], [0, 4]]}', '{"vertices": 5}', "[[1.5, 0], [4, 0], [0, 4]]",
                 "[[1.0, 0], [4, 0], [0, 4]]", "[[true, 0], [4, 0], [0, 4]]", "[[0, 0, 1]]", "null"):
        doc.write_text(text)
        assert run_command(["sigma", "--input", str(doc)]).exit_code == 2, text
    doc.write_text("[[0, 0], [4, 0], [0, 4]]")
    assert run_command(["sigma", "--input", str(doc)]).stdout == "4\n"


def test_deep_onion_chain_needs_no_recursion():
    # 1000 skins: one recursion level per skin would exceed Python's default limit
    poly = "x^3000 + y^3000 + 1"
    assert run_command(["sigma", "--poly", poly]).stdout == "3000\n"
    width = run_command(["width", "--poly", poly, "--trace", "--json"])
    assert width.exit_code == 0 and json.loads(width.stdout)["value"] == 3000
    analysis = run_command(["analyze", "--poly", poly, "--json"])
    assert analysis.exit_code == 0 and json.loads(analysis.stdout)["s2_bound"] == 3000
