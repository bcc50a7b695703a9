"""Command-line front end.

Exit codes: 0 success, 2 input syntax problems, 3 dimensional or degeneracy
precondition failures (an empty input polygon among them), 4 internal
consistency failures (including --verify mismatches). A failure's code is
the exit_code of its error type (the table is in the errors module), and 2
for SyntaxError, ValueError and OSError; it prints one "latsize:" line on
stderr and nothing on stdout. All output is deterministic for a fixed input.

--input reads a file as UTF-8, a leading byte-order mark being no part of
it. A file that parses as JSON is {"vertices": [[x, y], ...]} or
[[x, y], ...]; one that does not, but whose first non-blank character is
"{" or "[", is malformed JSON and exits 2 with the decoder's line and
column; any other text is the line format, one vertex "x y" per line.

Each command builds one JSON document, and _emit prints it: whole with
--json, else as plain lines read off it. Plain output is the value (a list
joined by spaces), then, when the document has a witness, the witness line;
peel prints one line per run, and analyze four "key value" lines (genus,
gonality, s2_bound, s11_bound). peel and every --trace document one entry
per run of skins; _RUNS, which --help prints, gives the format, and the
comment above it the witness line. An integer of --vertices, of the line
format of --input (_INTEGER) and of --poly (newton.parse_laurent) is ASCII
digits, after an optional sign; anything else exits 2, and --help says so.

sigma, square and box read their values off the reduced basis and do not
peel. Every call checks them in O(n) (size._checked_map): the witness must
reach the value, and no frame next to the Sigma witness may reach less, a
lower bound that is tested, not proved. square and box share one witness,
checked as the minimal box: it maps the polygon onto [0, width] x [0, value]
exactly. The square value is the second successive minimum of the width,
as the reduced basis is checked once per polygon, before it is kept
(width._checked_basis); the box takes the width from the checked square
entry. --trace and --verify read the certificate's trace, which runs the
size recursion and exits 4 unless its value agrees; --verify also asks the
oracle.

Every call is a fresh process, so each handler imports the width, size,
interior and oracle names it runs, and a process compiles only those
modules: width without --trace or --verify loads none of size, interior and
oracle, and only --verify and the oracle command load oracle. json is
imported only where JSON is read (--input) or written (--json). Two imports
stay at module level because the benchmark's tracer (bench/tracing.py)
reads sys.modules for each layer it wraps, after its warm-up and
`import latsize.cli`: this module imports newton, and size.py imports
interior.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import EmptyPolygonError, InternalConsistencyError, LatsizeError
from .newton import _curve_bounds, analyze, newton_polygon, parse_laurent
from .polygon import AffineUnimodularMap, LatticePolygon, Point, hull

if TYPE_CHECKING:
    from .size import SizeCertificate, Step


# The run format of peel and --trace, printed by --help. Plain output is
# read off the JSON document (_emit): the value, a list joined by spaces,
# then with --witness (sigma, square and box) the witness map x -> M*x + t
# as the line "m11,m12;m21,m22 t1,t2": the rows of M, then t, in the point
# syntax of --vertices, as the --witness help says too. peel prints its runs
# as below, and analyze four lines "key value".
_RUNS = """\
runs: peel and every --trace print one entry per run of skins. An entry with
"count" c and "shift" [[dx,dy],...] stands for the c skins skin + t*shift,
t = 0..c-1, vertex i moving by shift[i] per skin, each the interior hull of
the one before; a count-1 entry has zero shifts. peel lists runs and skins
outermost first, a trace innermost first (a trace entry starts at t = c-1).
Each skin of a trace entry adds its "contribution", so the contributions
times the counts sum to the value for width, to value + 2 for sigma and to
value + 1 for square (the empty interior hull counts -2 and -1); the rule's
parameters are those of "skin" and fall per skin along the run:
ParallelEdge(r,s) by r-s, RectangleAB(a,b) by 2. Plain peel prints a line
"SKIN COUNT SHIFT" per run, e.g. "0,0;6,0;0,6 2 1,1;-2,1;1,-2" for the
skins of 6*Sigma before its last one."""

# An integer of --vertices and of the line format of --input: ASCII digits
# after an optional sign, where int() also takes "_" and any Unicode digit.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class CommandResult(NamedTuple):
    exit_code: int
    stdout: str


# The help of each option but --shape and --verify; _COMMANDS says which
# command takes which.
_HELP = {
    "--input": "vertex file (UTF-8, a byte-order mark ignored): JSON {\"vertices\": [[x,y],...]}, "
               "or lines 'x y' of ASCII-digit integers when the first non-blank character is "
               "neither '{' nor '['",
    "--vertices": "inline vertices 'x,y;x,y;...', integers of ASCII digits after an optional sign",
    "--poly": "Laurent polynomial with ASCII-digit integers, e.g. 'y^2 + x^5 + 1'",
    "--json": "emit a JSON document",
    "--witness": "include the witness map x -> M*x + t, in plain output the line 'm11,m12;m21,m22 t1,t2'",
    "--trace": "run the recursion and include its trace (its value must agree, or exit 4)",
}

# The help of --verify, per command: the second route each one checks against.
_VERIFY = {
    "width": "check against the width by peeling (the width --trace recursion)",
    "sigma": "check against the recursion (sigma --trace) and the oracle (oracle --shape sigma)",
    "square": "check against the recursion (square --trace) and the oracle (oracle --shape square)",
    "box": "check against the oracle's least box (oracle --shape box)",
    "analyze": "recompute the gonality, s2 and s11 from the width by peeling and the oracle's "
               "sizes of the interior; the Upsilon_d bounds (d >= 2) come from one rule on both "
               "sides, so they are not checked",
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it rejects an argument it does not know with its own usage.

    argparse hands a subparser's unknown arguments up to the main parser,
    whose error shows the top-level usage and neither names the command nor
    lists its flags.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsize",
        description="Exact lattice widths, lattice sizes and Newton-polygon bounds.",
        epilog=_RUNS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (_, desc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc, epilog=_RUNS,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        if name == "analyze":
            p.add_argument("--poly", required=True, help=_HELP["--poly"])
        else:
            source = p.add_mutually_exclusive_group(required=True)
            for flag in ("--input", "--vertices", "--poly"):
                source.add_argument(flag, help=_HELP[flag])
        for flag in flags.split():
            text = _VERIFY[name] if flag == "--verify" else _HELP[flag]
            p.add_argument(flag, action="store_true", help=text)
        if name == "oracle":
            p.add_argument("--shape", choices=["sigma", "square", "box"], default="sigma")
    return parser


def _read_polygon(args: argparse.Namespace) -> LatticePolygon:
    """The input polygon; every polygon command needs at least one point."""
    if args.poly is not None:
        delta = newton_polygon(parse_laurent(args.poly))
    elif args.vertices is not None:
        delta = _pairs(args.vertices.split(";"), ",")
    else:
        # the input group of the parser makes --input the one source left
        import json

        with open(args.input, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None
        except json.JSONDecodeError as exc:
            if text.lstrip()[:1] in ("{", "["):
                raise ValueError(f"malformed JSON input: {exc.msg} at line {exc.lineno} "
                                 f"column {exc.colno}") from None
            delta = _pairs(text.splitlines(), None)
        else:
            delta = hull(_json_vertices(doc))
    if delta.is_empty:
        raise EmptyPolygonError("the input polygon is empty")
    return delta


def _pairs(chunks: list[str], sep: Optional[str]) -> LatticePolygon:
    """The hull of the pairs 'x<sep>y' of chunks; blank chunks are skipped.

    sep None splits at whitespace. A chunk that is not two integers, each
    ASCII digits after an optional sign (_INTEGER), raises ValueError, which
    exits 2.
    """
    pts = []
    for chunk in chunks:
        chunk = chunk.strip()
        if chunk:
            pair = [part.strip() for part in chunk.split(sep)]
            if len(pair) != 2 or not all(_INTEGER.fullmatch(part) for part in pair):
                raise ValueError(f"vertex must be a pair of integers, got {chunk!r}")
            pts.append((int(pair[0]), int(pair[1])))
    return hull(pts)


def _json_vertices(doc: object) -> list[Point]:
    """The vertex list of a JSON document {"vertices": [[x, y], ...]} or [[x, y], ...].

    Coordinates must be JSON integers; anything else is rejected rather than
    rounded.
    """
    import json  # loaded already, as _read_polygon parsed doc with it

    if isinstance(doc, dict):
        if "vertices" not in doc:
            raise ValueError('JSON input has no "vertices" key')
        doc = doc["vertices"]
    if not isinstance(doc, list):
        raise ValueError("JSON vertices must be a list of [x, y] pairs")
    pts = []
    for item in doc:
        if not (isinstance(item, list) and len(item) == 2 and all(type(c) is int for c in item)):
            raise ValueError(f"JSON vertex must be a pair of integers, got {json.dumps(item)}")
        pts.append((item[0], item[1]))
    return pts


def _witness(doc: dict, args: argparse.Namespace, phi: AffineUnimodularMap) -> None:
    """With --witness, put phi into doc."""
    if args.witness:
        doc["witness"] = {
            "matrix": [[phi.m11, phi.m12], [phi.m21, phi.m22]],
            "translation": [phi.t1, phi.t2],
        }


def _run_doc(skin: LatticePolygon, rule: str, contribution: int, count: int, shift: tuple) -> dict:
    """One JSON entry per run of skins; see _RUNS."""
    return {
        "skin": [[x, y] for x, y in skin.vertices],
        "rule": rule,
        "contribution": contribution,
        "count": count,
        "shift": [[dx, dy] for dx, dy in shift or ((0, 0),) * len(skin.vertices)],
    }


def _points(points: list) -> str:
    return ";".join(f"{x},{y}" for x, y in points)


def _trace_doc(steps: tuple[Step, ...]) -> list[dict]:
    out = []
    for step in steps:
        rule = step.rule
        if step.params:
            rule = f"{rule}({','.join(str(p) for p in step.params)})"
        out.append(_run_doc(step.skin, rule, step.contribution, step.count, step.shift))
    return out


def _words(value: object) -> str:
    return " ".join(str(v) for v in value) if isinstance(value, list) else str(value)


def _emit(doc: dict, as_json: bool) -> str:
    """The stdout of a command: its document as JSON, or the plain lines read off it."""
    if as_json:
        import json

        return json.dumps(doc, indent=2) + "\n"
    if doc["command"] == "peel":
        lines = [f"{_points(run['skin'])} {run['count']} {_points(run['shift'])}" for run in doc["trace"]]
    elif doc["command"] == "analyze":
        lines = [f"{key} {_words(doc[key])}" for key in ("genus", "gonality", "s2_bound", "s11_bound")]
    else:
        lines = [_words(doc["value"])]
        if "witness" in doc:
            lines.append(f"{_points(doc['witness']['matrix'])} {_points([doc['witness']['translation']])}")
    return "\n".join(lines) + "\n"


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InternalConsistencyError(message)


def _size_command(args: argparse.Namespace) -> dict:
    from .size import lattice_size_sigma, lattice_size_square

    shape = args.command  # sigma or square
    delta = _read_polygon(args)
    cert: SizeCertificate = (lattice_size_sigma if shape == "sigma" else lattice_size_square)(delta)
    # reading the trace runs the recursion, and raises unless its value is cert.value
    trace = cert.trace if args.verify or args.trace else ()
    if args.verify:
        from .oracle import oracle_size

        value = oracle_size(delta, shape)
        _check(value == cert.value, f"{shape} value {cert.value} disagrees with the oracle's {value}")
    doc: dict = {"command": shape, "value": cert.value}
    _witness(doc, args, cert.witness)
    if args.trace:
        doc["trace"] = _trace_doc(trace)
    return doc


def _width_command(args: argparse.Namespace) -> dict:
    from .width import lattice_width

    delta = _read_polygon(args)
    result = lattice_width(delta)
    if args.verify or args.trace:
        from .size import lattice_width_recursive

        value, trace = lattice_width_recursive(delta)
        _check(value == result.width, f"recursive width {value} disagrees with {result.width}")
    doc: dict = {
        "command": "width",
        "value": result.width,
        "directions": [[a, b] for a, b in result.directions],
    }
    if args.trace:
        doc["trace"] = _trace_doc(trace)
    return doc


def _box_command(args: argparse.Namespace) -> dict:
    from .size import minimal_box

    delta = _read_polygon(args)
    cert = minimal_box(delta)
    if args.verify:
        from .oracle import oracle_box

        box = oracle_box(delta)
        _check(box == (cert.a, cert.b), f"box {(cert.a, cert.b)} disagrees with the oracle box {box}")
    doc: dict = {"command": "box", "value": [cert.a, cert.b]}
    _witness(doc, args, cert.witness)
    return doc


def _peel_command(args: argparse.Namespace) -> dict:
    from .interior import onion_skins

    delta = _read_polygon(args)
    runs = onion_skins(delta).runs
    return {
        "command": "peel",
        "value": sum(count for _, _, count in runs),
        "trace": [_run_doc(skin, "Skin", 0, count, shift) for skin, shift, count in runs],
    }


def _analyze_command(args: argparse.Namespace) -> dict:
    result = analyze(parse_laurent(args.poly))
    inner = result.interior
    if args.verify and not inner.is_empty:
        from .oracle import oracle_size
        from .size import lattice_width_recursive

        checked = _curve_bounds(lattice_width_recursive(inner)[0], oracle_size(inner, "square"),
                                oracle_size(inner, "sigma"), result.special)
        _check(
            checked == (result.gonality, result.s2_bound, result.s11_bound),
            "gonality, s2 and s11 disagree with the recursive width and the oracle on the interior",
        )
    return {
        "command": "analyze",
        "value": result.genus_bound,
        "genus": result.genus_bound,
        "gonality": result.gonality,
        "s2_bound": result.s2_bound,
        "s11_bound": list(result.s11_bound),
        "special": (
            f"{result.special.kind}{result.special.params}" if result.special else None
        ),
        "caveats": list(result.caveats),
    }


def _oracle_command(args: argparse.Namespace) -> dict:
    from .oracle import oracle_box, oracle_size

    delta = _read_polygon(args)
    value = list(oracle_box(delta)) if args.shape == "box" else oracle_size(delta, args.shape)
    return {"command": "oracle", "value": value}


# Each command: its handler, its description and the flags the handler reads
# (oracle reads --shape too). Every command but analyze also takes exactly one
# input source, and analyze takes --poly, so argparse rejects a flag that
# would do nothing, a second source or none with exit code 2.
_COMMANDS = {
    "width": (_width_command, "lattice width with optimal directions", "--json --trace --verify"),
    "sigma": (_size_command, "lattice size w.r.t. the standard triangle (by default its lower "
              "bound is tested, not proved)", "--json --witness --trace --verify"),
    "square": (_size_command, "lattice size w.r.t. the unit square", "--json --witness --trace --verify"),
    "box": (_box_command, "minimal (width, square-size) bounding box", "--json --witness --verify"),
    "peel": (_peel_command, "onion skins of iterated interior hulls", "--json"),
    "analyze": (_analyze_command, "genus/gonality/degree bounds of a Laurent polynomial",
                "--json --verify"),
    "oracle": (_oracle_command, "brute-force feasibility-search values", "--json"),
}


def run_command(argv: list[str]) -> CommandResult:
    """Parse argv, execute and return the exit code plus the stdout payload."""
    parser = _build_parser()
    # argparse takes "-1,0;0,0;0,1" for an option, so the value of a
    # space-separated --vertices that starts with a minus sign is glued to it.
    glued: list[str] = []
    for arg in argv:
        if glued and glued[-1] == "--vertices" and arg[:1] == "-" and arg[1:2].isdigit():
            glued[-1] = f"--vertices={arg}"
        else:
            glued.append(arg)
    try:
        args = parser.parse_args(glued)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), "")
    try:
        return CommandResult(0, _emit(_COMMANDS[args.command][0](args), args.json))
    except (LatsizeError, SyntaxError, ValueError, OSError) as exc:
        print(f"latsize: {exc}", file=sys.stderr)
        return CommandResult(getattr(exc, "exit_code", 2), "")


def main(argv: Optional[list[str]] = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
