"""Command-line behavior: reference outputs, JSON stability, exit codes.

These tests also run against the installed package, from a copy of tests/
outside the checkout, so they reach latsize only by import and read no path
under src/.
"""

import hashlib
import itertools
import json

import pytest

from latsize import (
    CoordinateGuardError,
    DegeneratePolygonError,
    EmptyPolygonError,
    InternalConsistencyError,
    LatsizeError,
    NotTwoDimensionalError,
    ZeroPolynomialError,
)
from latsize.cli import run_command

from conftest import AlarmRang, alarm

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
    # the tie set beyond the basis entry is measured on its dot lists: with
    # short = (0,1) and long = (1,0), (2,-1) is 2*long - short and (1,-2) is
    # long - 2*short; the thin triangle has +-short as its one optimal direction
    cases = [("0,0;1,0;2,2;1,2", [[0, 1], [1, 0], [1, -1], [2, -1]]),
             ("0,0;2,1;2,2;0,1", [[0, 1], [1, 0], [1, -1], [1, -2]]), ("0,0;7,0;0,2", [[0, 1]])]
    for vertices, directions in cases:
        doc = json.loads(run_command(["width", "--vertices", vertices, "--json"]).stdout)
        assert doc["directions"] == directions, vertices


def test_analyze_json_document():
    # genus 0 reads the empty interior's conventions, width -1, square -1 and
    # Sigma -2: the rational values
    for poly, values in (("y^2 + x^7 + 1", (3, 2, 5, [2, 4])), ("x + y + 1", (0, 1, 1, [1, 1]))):
        result = run_command(["analyze", "--poly", poly, "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["command"] == "analyze"
        assert (doc["genus"], doc["gonality"], doc["s2_bound"], doc["s11_bound"]) == values, poly
        assert doc["caveats"]


def test_json_output_is_byte_stable():
    # (argv, value, the (rule, contribution, count) of each trace entry)
    cases = [
        (["sigma", "--vertices", HEPTAGON, "--witness"], 10,
         [("LawrencePrism(4,2)", 6, 1), ("GenericStep", 3, 1), ("GenericStep", 3, 1)]),
        (["sigma", "--vertices", "0,0;9,0;0,4"], 9,
         [("DegenerateBaseSearch", 3, 1), ("ParallelEdge(5,1)", 4, 1), ("ParallelEdge(9,5)", 4, 1)]),
        # the width is the third shape of the same recursion: 6*Sigma is the point (1,1) plus 3 per skin
        (["width", "--vertices", "0,0;6,0;0,6"], 6, [("DegenerateBaseSearch", 0, 1), ("GenericStep", 3, 2)]),
    ]
    for argv, value, trace in cases:
        args = [*argv, "--json", "--trace"]
        first = run_command(args)
        second = run_command(args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["value"] == value, argv
        assert "--witness" not in argv or (doc["witness"]["matrix"][0] and doc["witness"]["translation"])
        assert [(step["rule"], step["contribution"], step["count"]) for step in doc["trace"]] == trace, argv


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
    # the recursion routes walk the chain of onion skins, and the value is printed as without them
    for argv, value in ((["box", "--vertices", "0,0;7,0;0,2", "--verify"], "2 7"),
                        (["width", "--vertices", "0,0;9,0;0,4", "--verify"], "4"),
                        (["sigma", "--vertices", "0,0;9,0;0,4", "--verify"], "9"),
                        (["square", "--vertices", "0,0;9,0;0,4", "--trace", "--verify"], "9")):
        assert run_command(argv) == (0, value + "\n"), argv


def test_analyze_verify_checks_upsilon_triangles(monkeypatch):
    # analyze takes the gonality and s11 from the width and the square size
    # of the interior on Upsilon_d for every d != 2, and s2 from its Sigma
    # size for d = 1, so --verify checks them there too: the width against
    # the width recursion, the square and Sigma sizes against the oracle
    import latsize.size
    import latsize.width

    def argv(d):
        return ["analyze", "--poly", f"x^-{d}*y^-{d} + x^{d} + y^{d}", "--verify"]

    assert all(run_command(argv(d)).exit_code == 0 for d in (1, 2, 3, 4))
    width, square, sigma = latsize.width.lattice_width, latsize.size.lattice_size_square, latsize.size.lattice_size_sigma
    wrong_width = (latsize.width, "lattice_width",
                   lambda delta: width(delta)._replace(width=width(delta).width + 1), 3)
    wrong_square = (latsize.size, "lattice_size_square",
                    lambda delta: square(delta)._replace(value=square(delta).value + 1), 3)
    wrong_sigma = (latsize.size, "lattice_size_sigma",
                   lambda delta: sigma(delta)._replace(value=sigma(delta).value + 1), 1)
    for module, name, wrong, d in (wrong_width, wrong_square, wrong_sigma):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, wrong)
            assert run_command(argv(d)).exit_code == 4, name


def test_width_verify_trace_peels_once(monkeypatch):
    import latsize.size

    calls = []
    recursive = latsize.size.lattice_width_recursive
    monkeypatch.setattr(latsize.size, "lattice_width_recursive", lambda d: calls.append(d) or recursive(d))
    doc = json.loads(run_command(["width", "--vertices", HEPTAGON, "--verify", "--trace", "--json"]).stdout)
    assert len(calls) == 1
    assert sum(entry["contribution"] * entry["count"] for entry in doc["trace"]) == doc["value"] == 5


def test_width_trace_and_verify_check_the_value(monkeypatch):
    import latsize.width

    width = latsize.width.lattice_width
    monkeypatch.setattr(latsize.width, "lattice_width", lambda d: width(d)._replace(width=width(d).width + 1))
    assert run_command(["width", "--vertices", HEPTAGON]).exit_code == 0
    for flag in ("--trace", "--verify"):
        assert run_command(["width", "--vertices", HEPTAGON, flag]).exit_code == 4, flag


def test_oracle_subcommand():
    assert run_command(["oracle", "--shape", "sigma", "--vertices", HEPTAGON]).stdout == "10\n"
    assert run_command(["oracle", "--shape", "box", "--vertices", "0,0;5,0;0,2"]).stdout == "2 5\n"
    doc = json.loads(run_command(["oracle", "--shape", "box", "--vertices", "0,0;5,0;0,2", "--json"]).stdout)
    assert doc == {"command": "oracle", "value": [2, 5]}
    # the default shape is sigma; the heptagon's square size is 8
    assert run_command(["oracle", "--vertices", HEPTAGON]).stdout == "10\n"


def _plain_rule(doc: dict) -> str:
    """Plain output read off a --json document.

    The value, a list joined by spaces, then the witness line
    "m11,m12;m21,m22 t1,t2" when the document has one; peel prints a line
    "SKIN COUNT SHIFT" per run, and analyze four lines "key value".
    """
    def words(value):
        return " ".join(str(v) for v in value) if isinstance(value, list) else str(value)

    def points(pairs):
        return ";".join(f"{x},{y}" for x, y in pairs)

    if doc["command"] == "peel":
        lines = [f"{points(run['skin'])} {run['count']} {points(run['shift'])}" for run in doc["trace"]]
    elif doc["command"] == "analyze":
        lines = [f"{key} {words(doc[key])}" for key in ("genus", "gonality", "s2_bound", "s11_bound")]
    else:
        lines = [words(doc["value"])]
        if "witness" in doc:
            (m11, m12), (m21, m22) = doc["witness"]["matrix"]
            t1, t2 = doc["witness"]["translation"]
            lines.append(f"{m11},{m12};{m21},{m22} {t1},{t2}")
    return "".join(line + "\n" for line in lines)


def test_plain_output_is_read_off_the_json_document():
    import latsize.cli

    # the heptagon, 6*Sigma, a segment of lattice length 3 and a point
    polygons = [["--vertices", v] for v in (HEPTAGON, "0,0;6,0;0,6", "-1,2;5,5", "2,-3")]
    polys = [["--poly", p] for p in ("y^2 + x^7 + 1", "x^-2*y^-2 + x^2 + y^2", "x + y + 1")]
    sub = latsize.cli._build_parser()._subparsers._group_actions[0]
    runs = 0
    for command, parser in sub.choices.items():
        # every combination of the flags the command takes, and every --shape
        flags = [a.option_strings[0] for a in parser._actions if a.nargs == 0 and a.dest not in ("help", "json")]
        shapes = next(([["--shape", c] for c in a.choices] for a in parser._actions if a.dest == "shape"), [[]])
        for n in range(len(flags) + 1):
            for chosen in itertools.combinations(flags, n):
                for shape in shapes:
                    for source in polys if command == "analyze" else polygons:
                        argv = [command, *source, *chosen, *shape]
                        plain, doc = run_command(argv), run_command([*argv, "--json"])
                        assert plain.exit_code == doc.exit_code == 0, argv
                        assert plain.stdout == _plain_rule(json.loads(doc.stdout)), argv
                        runs += 1
    # on 4 polygons, width 4 flag sets, sigma and square 8, box 4, peel 1, oracle 3 shapes; on 3 polynomials, analyze 2
    assert runs == 4 * (4 + 8 + 8 + 4 + 1 + 3) + 3 * 2, runs


def test_exit_code_syntax_errors():
    assert run_command(["sigma", "--vertices", "not-a-point"]).exit_code == 2
    assert run_command(["analyze", "--poly", "x +* y"]).exit_code == 2
    assert run_command(["analyze", "--poly", "x - x"]).exit_code == 2
    assert run_command(["sigma"]).exit_code == 2  # no input source
    assert run_command(["nonsense"]).exit_code == 2


def test_exit_code_precondition_failures():
    assert run_command(["analyze", "--poly", "x^2 + x + 1"]).exit_code == 3
    assert run_command(["peel", "--vertices", ""]).exit_code == 3


@pytest.mark.parametrize("error, code", [
    (LatsizeError, 2), (CoordinateGuardError, 2), (ZeroPolynomialError, 2), (EmptyPolygonError, 3),
    (DegeneratePolygonError, 3), (NotTwoDimensionalError, 3), (InternalConsistencyError, 4),
    (SyntaxError, 2), (ValueError, 2), (OSError, 2),
])
def test_exit_code_is_the_error_types(error, code, monkeypatch, capsys):
    # run_command returns the exit_code of the error type, 2 for an input error that is not ours
    import latsize.cli

    if issubclass(error, LatsizeError):
        assert error.exit_code == code

    def handler(args):
        raise error("refused")

    monkeypatch.setitem(latsize.cli._COMMANDS, "width", (handler, *latsize.cli._COMMANDS["width"][1:]))
    capsys.readouterr()
    assert run_command(["width", "--vertices", HEPTAGON]) == (code, "")
    assert capsys.readouterr() == ("", "latsize: refused\n")


def test_a_hang_under_the_alarm_is_no_exit_code(monkeypatch):
    # the alarm's error is none that run_command maps to an exit code, so a
    # call that never returns fails the check it runs in instead of exiting 2
    import latsize.cli

    def hang(args):
        while True:
            pass

    monkeypatch.setitem(latsize.cli._COMMANDS, "width", (hang, *latsize.cli._COMMANDS["width"][1:]))
    result = None
    with pytest.raises(AlarmRang):
        with alarm(1):
            result = run_command(["width", "--vertices", "0,0;1,0;0,1"])
    assert result is None


def test_input_reads_malformed_json_as_json_and_skips_a_byte_order_mark(tmp_path, capsys):
    doc = tmp_path / "poly"
    doc.write_bytes(b'{"vertices": [[0, 0], [4, 0], [0, 4],]}')
    capsys.readouterr()
    assert run_command(["sigma", "--input", str(doc)]) == (2, "")
    assert capsys.readouterr().err == "latsize: malformed JSON input: Expecting value at line 1 column 38\n"
    for data in (b"\xef\xbb\xbf0 0\n4 0\n0 4\n", b'\xef\xbb\xbf{"vertices": [[0, 0], [4, 0], [0, 4]]}'):
        doc.write_bytes(data)
        assert run_command(["sigma", "--input", str(doc)]) == (0, "4\n"), data


def test_empty_polygon_exits_3(capsys):
    # the API gives the empty polygon the values -2 and -1; the CLI refuses it
    for command in ("sigma", "square", "width", "box", "peel"):
        for vertices in ("--vertices=;", "--vertices="):
            assert run_command([command, vertices]).exit_code == 3, (command, vertices)
            assert "the input polygon is empty" in capsys.readouterr().err


def test_guard_bound_exits_2():
    big = 2**31
    assert run_command(["sigma", f"--vertices={big + 1},0;0,0;0,1"]).exit_code == 2
    assert run_command(["sigma", f"--vertices=-{big + 1},0;0,0;0,1"]).exit_code == 2
    assert run_command(["width", f"--vertices={big},0;0,0;0,1"]).stdout == "1\n"
    # a standard triangle is one run, so its width trace ends at the guard
    with alarm(1):
        assert run_command(["width", "--poly", f"x^{big} + y^{big} + 1", "--trace"]) == (0, f"{big}\n")


def test_input_file_json_and_lines(tmp_path):
    as_json = tmp_path / "poly.json"
    as_json.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [0, 4]]}))
    assert run_command(["sigma", "--input", str(as_json)]).stdout == "4\n"
    as_lines = tmp_path / "poly.txt"
    as_lines.write_text("\n  0 0\n\n4\t0  \n0 4\n   \n")
    assert run_command(["sigma", "--input", str(as_lines)]).stdout == "4\n"
    assert run_command(["sigma", "--input", str(tmp_path / "missing.txt")]).exit_code == 2
    # these lines and --vertices share one pair reader: blank chunks are
    # skipped, and a chunk that is not two integers exits 2
    assert run_command(["sigma", "--vertices", " ; 0,0 ;;4, 0; 0,4 ;"]).stdout == "4\n"
    for bad in ("0,0;4,0,1;0,4", "0,0;4;0,4", "0,0;a,0;0,4"):
        assert run_command(["sigma", "--vertices", bad]).exit_code == 2, bad
        as_lines.write_text(bad.replace(",", " ").replace(";", "\n"))
        assert run_command(["sigma", "--input", str(as_lines)]).exit_code == 2, bad


def test_integers_are_ascii_digits(tmp_path, capsys):
    # int() and \d take "_" separators and every Unicode decimal digit; an
    # integer of --vertices, --input lines and --poly is ASCII digits after an
    # optional sign, and anything else exits 2 with one line naming where
    doc = tmp_path / "poly.txt"
    doc.write_text("\u0663 0\n0 1\n0 0\n")
    cases = [(["width", "--vertices", "1_0,0;0,1;0,0"], "vertex must be a pair of integers, got '1_0,0'"),
             (["width", "--vertices", "\u0663,0;0,1;0,0"], "vertex must be a pair of integers, got '\u0663,0'"),
             (["sigma", "--input", str(doc)], "vertex must be a pair of integers, got '\u0663 0'"),
             (["analyze", "--poly", "x^\u0663 + y^3 + 1"], "unexpected character '\u0663' at position 2")]
    for argv, message in cases:
        capsys.readouterr()
        assert run_command(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"latsize: {message}\n", argv
    assert run_command(["width", "--vertices", "+1,0;0,+1; -0 , 0"]).stdout == "1\n"
    for command in ("width", "analyze"):
        assert run_command([command, "--help"]).exit_code == 0
        assert "ASCII" in capsys.readouterr().out, command


def test_plain_witness_is_a_second_line(capsys):
    # the rows of the matrix and then the translation, in the point syntax of --vertices
    cases = [("sigma", "0,0;4,0;0,4", "4"), ("square", "0,0;4,0;0,4", "4"), ("box", "0,0;7,0;0,2", "2 7")]
    for command, vertices, value in cases:
        doc = json.loads(run_command([command, "--vertices", vertices, "--witness", "--json"]).stdout)
        (m11, m12), (m21, m22) = doc["witness"]["matrix"]
        t1, t2 = doc["witness"]["translation"]
        assert run_command([command, "--vertices", vertices, "--witness"]) == (
            0, f"{value}\n{m11},{m12};{m21},{m22} {t1},{t2}\n"), command
    assert run_command(["box", "--vertices", "0,0;7,0;0,2", "--witness"]).stdout == "2 7\n0,1;1,0 0,0\n"
    assert run_command(["box", "--help"]).exit_code == 0
    assert "m11,m12;m21,m22" in capsys.readouterr().out


def test_poly_input_for_polygon_commands():
    assert run_command(["sigma", "--poly", "y^2 + x^5 + 1"]).stdout == "5\n"
    assert run_command(["width", "--poly", "y^2 + x^5 + 1"]).stdout == "2\n"
    # the Newton polygon of y^2 + x^7 + 1 is conv{(0,0), (7,0), (0,2)}: the witness maps it into [0,2] x [0,7]
    assert run_command(["box", "--poly", "y^2 + x^7 + 1", "--witness"]).stdout == "2 7\n0,1;1,0 0,0\n"


def test_json_input_contract(tmp_path, capsys):
    doc = tmp_path / "poly.json"
    for text in ('{"verts": [[0, 0], [4, 0], [0, 4]]}', '{"vertices": 5}', "[[1.5, 0], [4, 0], [0, 4]]",
                 "[[1.0, 0], [4, 0], [0, 4]]", "[[true, 0], [4, 0], [0, 4]]", "[[0, 0, 1]]", "null",
                 "[" * 100000, "[" * 100000 + "]" * 100000):
        doc.write_text(text)
        assert run_command(["sigma", "--input", str(doc)]).exit_code == 2, text
    doc.write_text("null")
    capsys.readouterr()
    assert run_command(["sigma", "--input", str(doc)]).exit_code == 2
    assert capsys.readouterr().err == "latsize: JSON vertices must be a list of [x, y] pairs\n"
    doc.write_text("[[0, 0], [4, 0], [0, 4]]")
    assert run_command(["sigma", "--input", str(doc)]).stdout == "4\n"


def test_vertex_pairs_name_the_chunk(tmp_path, capsys):
    # a chunk that is not a pair names itself, not Python's unpacking error
    doc = tmp_path / "poly.txt"
    doc.write_text("0 0\n4 0 1\n0 4\n")
    for source, chunk in ((["--vertices", "1,2,3;0,0;4,0"], "'1,2,3'"), (["--vertices", "0 0;4 0"], "'0 0'"),
                          (["--input", str(doc)], "'4 0 1'")):
        capsys.readouterr()
        assert run_command(["sigma", *source]).exit_code == 2, source
        assert capsys.readouterr().err == f"latsize: vertex must be a pair of integers, got {chunk}\n"


def test_deep_onion_chain_needs_no_recursion():
    # 1000 skins: one recursion level per skin would exceed Python's default limit
    poly = "x^3000 + y^3000 + 1"
    assert run_command(["sigma", "--poly", poly]).stdout == "3000\n"
    width = run_command(["width", "--poly", poly, "--trace", "--json"])
    assert width.exit_code == 0 and json.loads(width.stdout)["value"] == 3000
    analysis = run_command(["analyze", "--poly", poly, "--json"])
    assert analysis.exit_code == 0 and json.loads(analysis.stdout)["s2_bound"] == 3000


# sha256 of the per-skin output (one entry per skin) that peel --json,
# peel, and sigma|square --trace --json printed before runs; for width
# --trace --json, that of the per-skin trace of the width as a third shape
# of the size recursion (tests/test_size.py::_reference_width)
_PER_SKIN_SHA256 = {
    ("heptagon", "peel"): "c20f628bc50e562b361f4fc6093c0fcb37616d2528c47ecc65aee64adefd488e",
    ("heptagon", "sigma"): "fe9780ebbd13fa852838ea21788bcea658ce8a4f68f13b0301f986a2b9d1658c",
    ("heptagon", "square"): "cfc801cf96b6b9a8b5f25db56e8ad7f679b9d4f1d84088214d865224dda3dbe2",
    ("heptagon", "width"): "5e5fa2ccfc53846a581ea2bad588246992a0bbd0d9cf50a0503501dfdb467475",
    ("heptagon", "plain"): "6c236ddc046d3f3e671765dc4f12f8170b08290ea8273e2d996fc9791244207f",
    ("six_sigma", "peel"): "225db85d94b15c41df194bdcdbb8e52896ebfc17247947f779ad07b9587f9504",
    ("six_sigma", "sigma"): "cac5ca98b26db0de8dfbd9e3a5194a504111b188456a64021549641efc82140d",
    ("six_sigma", "square"): "c7bc8b444b165b867cc997ee892e6093ad6cbcf66f99f17b1ba0e45bf8d49d63",
    ("six_sigma", "width"): "408f7fc9f6635ab9ca3e54ec39df1972d0e92e6da94a110ae56d4d197a86dd5f",
    ("six_sigma", "plain"): "143db06992ad641df7d405480b962f60d06b9b131faf87e5eaf41accaaddf0b9",
    ("upsilon5", "peel"): "2935a1e70ff28b61fa57c38258080b2c47c9459aa387fe44bd24c6fc7da053ab",
    ("upsilon5", "sigma"): "908250c9e3eaab8f49889ef4f11c85a1e614544340b7cc9a8fd0fbfea9434586",
    ("upsilon5", "square"): "68f57b396d83d258c13cbcdfb32e1b2fa1e6b2c94b733754b0c7f8e345db8b3e",
    ("upsilon5", "width"): "0187f9f53850dfa468784777451c4e159307ccf0977845a1b2af53022f5402af",
    ("upsilon5", "plain"): "27c4b132a50664ce232ea60a2f06ebc800d1ef35d29c5b6cf124877558fdca5f",
    ("random80", "peel"): "71c46db3e2ae6532edd91361340fa21764d66b2e86e6e18c795a457d5cae5d29",
    ("random80", "sigma"): "9d3519e5a3f89ebc0c3dad971b51b5dc71f8c7821964405595a77116d4e2e796",
    ("random80", "square"): "aa9424bf273726d742d4be3d5d67b099a2af8035df43126964035c40c177bf0d",
    ("random80", "width"): "611e01f5fa11395269689e74f660c72d14cd7d81dedbffa6165e17a95b73d795",
    ("random80", "plain"): "df0e0bd9122d6a4e53c7d48f44014ba8c5aa451bd9f057967caecb4798bd7666",
}
_RUN_INPUTS = {
    "heptagon": HEPTAGON,
    "six_sigma": "0,0;6,0;0,6",
    "upsilon5": "-5,-5;5,0;0,5",
    "random80": "8,44;39,23;61,22;27,64;11,64",  # random_polygon(0, 80)
}


def _expand_entry(entry, ts):
    """The per-skin entries of one run entry, by the rule printed under 'runs:' in --help."""
    name, _, args = entry["rule"].partition("(")
    params = [int(p) for p in args.rstrip(")").split(",")] if args else []
    fall = 2 if name == "RectangleAB" else entry["contribution"]
    for t in ts(entry["count"]):
        rule = name + (f"({','.join(str(p - t * fall) for p in params)})" if params else "")
        skin = [[x + t * dx, y + t * dy] for (x, y), (dx, dy) in zip(entry["skin"], entry["shift"])]
        yield {"skin": skin, "rule": rule, "contribution": entry["contribution"]}


def test_run_output_expands_to_the_per_skin_output():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    runs = skins = 0
    for name, vertices in _RUN_INPUTS.items():
        for command in ("peel", "sigma", "square", "width"):
            argv = [command, f"--vertices={vertices}", "--json"] + ([] if command == "peel" else ["--trace"])
            doc = json.loads(run_command(argv).stdout)
            # peel lists skins outermost first, a trace innermost first
            ts = range if command == "peel" else (lambda count: reversed(range(count)))
            per_skin = [e for entry in doc["trace"] for e in _expand_entry(entry, ts)]
            runs += len(doc["trace"])
            skins += len(per_skin)
            expanded = json.dumps(dict(doc, trace=per_skin), indent=2) + "\n"
            assert sha(expanded) == _PER_SKIN_SHA256[name, command], (name, command)
        lines = []
        for line in run_command(["peel", f"--vertices={vertices}"]).stdout.splitlines():
            skin, count, shift = line.split(" ")
            entry = {"skin": [list(map(int, p.split(","))) for p in skin.split(";")], "count": int(count),
                     "shift": [list(map(int, p.split(","))) for p in shift.split(";")],
                     "rule": "Skin", "contribution": 0}
            lines += [";".join(f"{x},{y}" for x, y in e["skin"]) for e in _expand_entry(entry, range)]
        assert sha("\n".join(lines) + "\n") == _PER_SKIN_SHA256[name, "plain"], name
    assert skins > 2 * runs, (skins, runs)


def test_help_documents_the_run_format(capsys):
    import latsize.cli

    for argv in (["--help"], ["peel", "--help"], ["width", "--help"]):
        assert run_command(argv).exit_code == 0
        assert latsize.cli._RUNS in capsys.readouterr().out, argv
    # the format is written once, in _RUNS; the module docstring points to it
    assert "_RUNS" in latsize.cli.__doc__ and latsize.cli._RUNS not in latsize.cli.__doc__
    # its example is the first line that peel prints for 6*Sigma: one uniform
    # run of two skins, the run length that one walk of its edges gives, then the point (2,2)
    example = "0,0;6,0;0,6 2 1,1;-2,1;1,-2"
    assert f'e.g. "{example}"' in latsize.cli._RUNS.replace("\n", " ")
    assert run_command(["peel", "--vertices", "0,0;6,0;0,6"]) == (0, f"{example}\n2,2 1 0,0\n")


# The options that every command accepted when all commands shared one flag
# set, and the (command, option) pairs whose handler never read the option:
# argparse must reject those, not accept and ignore them.
_OPTIONS = ("--input", "--vertices", "--poly", "--json", "--witness", "--trace", "--verify")
_DEAD = {("width", "--witness"), ("box", "--trace"), ("peel", "--witness"), ("peel", "--trace"),
         ("peel", "--verify"), ("analyze", "--input"), ("analyze", "--vertices"), ("analyze", "--witness"),
         ("analyze", "--trace"), ("oracle", "--witness"), ("oracle", "--trace"), ("oracle", "--verify")}


def test_every_option_does_something(tmp_path):
    import latsize.cli

    vertex_file = tmp_path / "poly.txt"
    vertex_file.write_text("0 0\n3 0\n0 3\n")
    values = {"--input": str(vertex_file), "--vertices": "0,0;3,0;0,3", "--poly": "x^3 + y^3 + 1",
              "--shape": "box"}
    sources = ("--input", "--vertices", "--poly")
    commands = ("width", "sigma", "square", "box", "peel", "analyze", "oracle")
    pairs = {(command, option) for command in commands for option in _OPTIONS} | {("oracle", "--shape")}
    assert len(pairs) == 50 and _DEAD < pairs
    for command, option in sorted(pairs):
        tested = [option, values[option]] if option in values else [option]
        if option in sources and (command, option) not in _DEAD:
            argv = [command, *tested]
        else:
            required = "--poly" if command == "analyze" else "--vertices"
            argv = [command, required, values[required], *tested]
        assert run_command(argv).exit_code == (2 if (command, option) in _DEAD else 0), argv
    # the parser holds exactly the live pairs
    sub = latsize.cli._build_parser()._subparsers._group_actions[0]
    built = {(command, option) for command, parser in sub.choices.items()
             for action in parser._actions if action.dest != "help" for option in action.option_strings}
    assert built == pairs - _DEAD and len(built) == 38
    # exactly one input source: none, two or three exit 2, and so does one given twice
    for command in set(commands) - {"analyze"}:
        assert run_command([command]).exit_code == 2, command
        for n in (2, 3):
            for chosen in itertools.combinations(sources, n):
                argv = [command] + [arg for option in chosen for arg in (option, values[option])]
                assert run_command(argv).exit_code == 2, argv
        for option in sources:
            assert run_command([command, option, values[option], option, values[option]]).exit_code == 2
    assert run_command(["analyze"]).exit_code == 2
    assert run_command(["analyze", "--poly", "x + y + 1", "--poly", "x^3 + y^3 + 1"]).exit_code == 2
    assert run_command(["width", "--vertices", "0,0;1,0;0,1", "--vertices", "0,0;5,0;0,5"]).exit_code == 2
    # no option is taken by a prefix, with a negative vertex or without
    for vertices in ("0,0;1,0;0,1", "-1,0;1,0;0,1"):
        assert run_command(["width", "--vertices", vertices]).exit_code == 0
        assert run_command(["width", "--vert", vertices]).exit_code == 2, vertices


def test_unknown_flag_names_the_command(capsys):
    # a flag the command does not take is reported with that command's usage
    cases = [("peel", "--verify"), ("box", "--trace"), ("width", "--witness"), ("oracle", "--trace"),
             ("width", "--js"), ("sigma", "--wit"), ("square", "--verif")]
    for command, option in cases:
        assert run_command([command, "--vertices", "0,0;3,0;0,3", option]).exit_code == 2, (command, option)
        err = capsys.readouterr().err
        assert err.startswith(f"usage: latsize {command} [-h]"), err
        assert f"latsize {command}: error: unrecognized arguments: {option}" in err, err
    assert run_command(["analyze", "--poly", "x + y + 1", "--input", "poly.txt"]).exit_code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: latsize analyze [-h] --poly POLY [--json] [--verify]"), err
    assert "latsize analyze: error: unrecognized arguments: --input poly.txt" in err, err
