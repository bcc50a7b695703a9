"""The public surface of the package.

These tests also run against the installed package, from a copy of tests/
outside the checkout, so they find the package's files through
latsize.__file__ and read no path under src/.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import latsize
from latsize import (
    AffineUnimodularMap,
    analyze,
    hull,
    interior_hull,
    lattice_size_sigma,
    lattice_width,
    lattice_width_recursive,
    measures,
    minimal_box,
    onion_skins,
    parse_laurent,
    rectangle,
    recognize_special,
    standard_triangle,
    upsilon,
)
from latsize.cli import run_command
from latsize.size import parallel_edge_exception

PUBLIC = {
    "AffineUnimodularMap", "BoxCertificate", "CoordinateGuardError", "DegeneratePolygonError",
    "EMPTY", "EmptyPolygonError", "InternalConsistencyError", "LatsizeError", "LatticePolygon",
    "LaurentPolynomial", "Measures", "NewtonAnalysis", "NotTwoDimensionalError", "OnionTrace",
    "SizeCertificate", "SpecialShape", "Step", "WidthResult", "ZeroPolynomialError", "analyze",
    "apply_map", "are_equivalent", "census", "fit_into", "hull", "integral_length", "interior_hull",
    "lattice_size_sigma", "lattice_size_square", "lattice_width", "lattice_width_recursive",
    "lawrence_prism", "measures", "minimal_box", "newton_polygon", "onion_skins", "oracle_box",
    "oracle_size", "parse_laurent", "random_polygon",
    "random_unimodular_map", "rectangle", "recognize_special", "standard_triangle",
    "transform_support", "upsilon", "width_along",
}


def test_exported_names_are_pinned():
    assert len(latsize.__all__) == len(set(latsize.__all__)) == 47
    assert set(latsize.__all__) == PUBLIC
    assert all(hasattr(latsize, name) for name in PUBLIC)
    # kept in their modules, not exported: the tests and the traced benchmark read all three, and
    # parallel_edge_exception is also the size recursion's one parallel-edge rule
    internal = ("interior_lattice_points", "parallel_edge_exception", "ParallelEdgeHit")
    assert not any(hasattr(latsize, name) for name in internal)


def _private_definitions(tree):
    """(name, index) of each module-level private function, class or constant, by statement index."""
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, index


def test_no_dead_private_helpers():
    # every private helper is used in the package outside its own definition,
    # so a simplification cannot leave an orphan behind
    trees = {path.name: ast.parse(path.read_text()) for path in Path(latsize.__file__).parent.glob("*.py")}
    # names read by each module-level statement, as a name or an attribute
    reads = {
        (module, index): {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)}
        for module, tree in trees.items() for index, node in enumerate(tree.body)
    }
    defined = [(module, name, index) for module, tree in trees.items()
               for name, index in _private_definitions(tree)]
    assert len(defined) > 50, defined
    unused = [(module, name) for module, name, index in defined
              if not any(name in names for key, names in reads.items() if key != (module, index))]
    assert unused == []


def test_cli_import_loads_no_dataclasses():
    # every CLI call is a fresh process, so what `import latsize.cli` loads
    # is paid per call; dataclasses alone pulls in inspect, ast, dis and tokenize
    src = Path(latsize.__file__).resolve().parent.parent
    code = "import sys, latsize.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n", out


def test_each_command_loads_only_its_modules():
    # the exports are lazy and each handler imports what it runs, so a CLI
    # process compiles only those modules; only --verify and the oracle
    # command load the oracle, and only JSON input or --json loads json
    src = Path(latsize.__file__).resolve().parent.parent

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, check=True).stdout
        return set(out.splitlines()[-1].split())  # the last line; a command prints before it

    def command(*argv):
        return loaded(f"import runpy, sys; sys.argv = ['latsize', *{argv!r}]\n"
                      "try: runpy.run_module('latsize.cli', run_name='__main__')\n"
                      "except SystemExit: pass\n"
                      "print(*sys.modules)")

    poly = ["--poly", "y^2 + x^7 + 1", "--json"]
    assert not command("width", *poly) & {"latsize.size", "latsize.interior", "latsize.oracle"}
    assert "json" in command("width", *poly)
    plain = command("width", "--vertices", "0,0;4,0;0,4")
    assert "latsize.width" in plain and "json" not in plain
    assert "fractions" not in plain  # only parse_laurent loads it, for --poly
    for name in ("sigma", "square", "box"):
        modules = command(name, *poly, "--witness")
        assert "latsize.size" in modules and "latsize.oracle" not in modules, name
    package = loaded("import sys, latsize; print(*sys.modules)")
    assert {m for m in package if m.startswith("latsize")} == {"latsize", "latsize.errors"}
    star = "from latsize import *; import latsize; print(*(n for n in latsize.__all__ if n in globals()))"
    assert loaded(star) == PUBLIC


_REPRS = {
    "LatticePolygon": "LatticePolygon<polygon>[(0, 0), (2, 0), (0, 1)]",
    "AffineUnimodularMap": "AffineUnimodularMap(m11=1, m12=2, m21=0, m22=-1, t1=3, t2=-4)",
    "WidthResult": "WidthResult(width=2, directions=((0, 1), (1, 0), (1, 1)))",
    "SizeCertificate": "SizeCertificate(shape='sigma', value=1, witness=AffineUnimodularMap(m11=0, m12=1, "
    "m21=1, m22=0, t1=0, t2=0), polygon=LatticePolygon<polygon>[(0, 0), (1, 0), (0, 1)])",
    "BoxCertificate": "BoxCertificate(a=1, b=2, witness=AffineUnimodularMap(m11=1, m12=0, m21=0, m22=1, "
    "t1=0, t2=0))",
    "ParallelEdgeHit": "ParallelEdgeHit(r=4, s=1, tau=((0, 0), (4, 0)), tau_prime=((1, 1), (2, 1)))",
    "Step": "Step(skin=LatticePolygon<polygon>[(0, 0), (6, 0), (6, 6), (0, 6)], rule='GenericStep', "
    "contribution=2, params=(), count=3, shift=((1, 1), (-1, 1), (-1, -1), (1, -1)))",
    "OnionTrace": "OnionTrace(runs=((LatticePolygon<polygon>[(-2, -2), (2, 0), (0, 2)], ((1, 1), (-1, 0), "
    "(0, -1)), 2), (LatticePolygon<point>[(0, 0)], (), 1)))",
    "LaurentPolynomial": "LaurentPolynomial(terms={(0, 2): Fraction(1, 1), (3, 0): Fraction(1, 1), "
    "(0, 0): Fraction(-1, 2)})",
    "NewtonAnalysis": "NewtonAnalysis(polygon=LatticePolygon<polygon>[(0, 0), (3, 0), (0, 3)], "
    "interior=LatticePolygon<point>[(1, 1)], genus_bound=1, gonality=2, s2_bound=3, s11_bound=(2, 2), "
    "special=SpecialShape(kind='standard_triangle', params=(3,)), caveats=('bounds are attained only for "
    "sufficiently generic coefficients', 'genus and gonality formulas assume a nondegenerate polynomial'))",
    "Measures": "Measures(area2=4, boundary_count=6, interior_count=0, total_count=6)",
    "SpecialShape": "SpecialShape(kind='upsilon', params=(2,))",
    "CommandResult": "CommandResult(exit_code=0, stdout='1\\n')",
}


def test_record_reprs_are_pinned():
    # one instance of each record type; its repr names every field in order
    records = [
        hull([(0, 0), (2, 0), (0, 1)]),
        AffineUnimodularMap(1, 2, 0, -1, 3, -4),
        lattice_width(standard_triangle(2)),
        lattice_size_sigma(standard_triangle(1)),
        minimal_box(rectangle(1, 2)),
        parallel_edge_exception(standard_triangle(4), interior_hull(standard_triangle(4))),
        lattice_width_recursive(rectangle(6, 6))[1][-1],
        onion_skins(upsilon(2)),
        parse_laurent("y^2 + x^3 - 1/2"),
        analyze(parse_laurent("x^3 + y^3 + 1")),
        measures(standard_triangle(2)),
        recognize_special(upsilon(2)),
        run_command(["width", "--vertices", "0,0;1,0;0,1"]),
    ]
    assert {type(record).__name__: repr(record) for record in records} == _REPRS
