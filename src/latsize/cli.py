"""Command-line front end.

Exit codes: 0 success, 2 input syntax problems, 3 dimensional or degeneracy
precondition failures, 4 internal consistency failures (including --verify
mismatches). All output is deterministic for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CoordinateGuardError,
    DegeneratePolygonError,
    EmptyPolygonError,
    InternalConsistencyError,
    NotTwoDimensionalError,
    ZeroPolynomialError,
)
from .interior import onion_skins
from .newton import analyze, newton_polygon, parse_laurent
from .oracle import oracle_box_pareto, oracle_size
from .polygon import AffineUnimodularMap, LatticePolygon, Point, apply_map, hull
from .size import (
    SizeCertificate,
    fit_into,
    lattice_size_sigma,
    lattice_size_square,
    minimal_box,
)
from .width import Step, lattice_width, lattice_width_recursive


@dataclass
class CommandResult:
    exit_code: int
    stdout: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsize",
        description="Exact lattice widths, lattice sizes and Newton-polygon bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="vertex file: JSON {\"vertices\": [[x,y],...]} or lines 'x y'")
    common.add_argument("--vertices", help="inline vertices 'x,y;x,y;...'")
    common.add_argument("--poly", help="Laurent polynomial, e.g. 'y^2 + x^5 + 1'")
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--witness", action="store_true", help="include the witness map")
    common.add_argument("--trace", action="store_true", help="include the recursion trace")
    common.add_argument("--verify", action="store_true", help="cross-check against the oracle")
    for name, desc in (
        ("width", "lattice width with optimal directions"),
        ("sigma", "lattice size w.r.t. the standard triangle"),
        ("square", "lattice size w.r.t. the unit square"),
        ("box", "minimal (width, square-size) bounding box"),
        ("peel", "onion skins of iterated interior hulls"),
        ("analyze", "genus/gonality/degree bounds of a Laurent polynomial"),
        ("oracle", "brute-force feasibility-search values"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        if name == "oracle":
            p.add_argument("--shape", choices=["sigma", "square", "box"], default="sigma")
    return parser


def _read_polygon(args: argparse.Namespace) -> LatticePolygon:
    if args.poly is not None:
        return newton_polygon(parse_laurent(args.poly))
    if args.vertices is not None:
        pts = []
        for chunk in args.vertices.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            x, y = chunk.split(",")
            pts.append((int(x), int(y)))
        return hull(pts)
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            pts = []
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                x, y = line.split()
                pts.append((int(x), int(y)))
            return hull(pts)
        return hull(_json_vertices(doc))
    raise ValueError("no input: pass --vertices, --input or --poly")


def _json_vertices(doc: object) -> list[Point]:
    """The vertex list of a JSON document {"vertices": [[x, y], ...]} or [[x, y], ...].

    Coordinates must be JSON integers; anything else is rejected rather than
    rounded.
    """
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


def _witness_doc(phi: AffineUnimodularMap) -> dict:
    return {
        "matrix": [[phi.m11, phi.m12], [phi.m21, phi.m22]],
        "translation": [phi.t1, phi.t2],
    }


def _trace_doc(steps: tuple[Step, ...]) -> list[dict]:
    out = []
    for step in steps:
        rule = step.rule
        if step.params:
            rule = f"{rule}({','.join(str(p) for p in step.params)})"
        out.append(
            {
                "skin": [[x, y] for x, y in step.skin.vertices],
                "rule": rule,
                "contribution": step.contribution,
            }
        )
    return out


def _emit(doc: dict, args: argparse.Namespace, plain: str) -> str:
    if args.json:
        return json.dumps(doc, indent=2) + "\n"
    return plain + "\n"


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InternalConsistencyError(message)


def _size_command(args: argparse.Namespace, shape: str) -> str:
    delta = _read_polygon(args)
    cert: SizeCertificate = (lattice_size_sigma if shape == "sigma" else lattice_size_square)(delta)
    if args.verify and not delta.is_empty:
        _check(
            oracle_size(delta, shape) == cert.value,
            f"recursive {shape} value {cert.value} disagrees with the oracle",
        )
    doc: dict = {"command": shape, "value": cert.value}
    if args.witness and cert.witness is not None:
        doc["witness"] = _witness_doc(cert.witness)
    if args.trace:
        doc["trace"] = _trace_doc(cert.trace)
    return _emit(doc, args, str(cert.value))


def _width_command(args: argparse.Namespace) -> str:
    delta = _read_polygon(args)
    result = lattice_width(delta)
    if args.verify and not delta.is_empty:
        value, _ = lattice_width_recursive(delta)
        _check(value == result.width, f"recursive width {value} disagrees with {result.width}")
    doc: dict = {
        "command": "width",
        "value": result.width,
        "directions": [[a, b] for a, b in result.directions],
    }
    if args.trace and not delta.is_empty:
        doc["trace"] = _trace_doc(lattice_width_recursive(delta)[1])
    return _emit(doc, args, str(result.width))


def _box_command(args: argparse.Namespace) -> str:
    delta = _read_polygon(args)
    cert = minimal_box(delta)
    if args.verify:
        pareto = oracle_box_pareto(delta)
        _check(
            pareto.pairs == ((cert.a, cert.b),),
            f"Pareto set {pareto.pairs} is not exactly the computed box {(cert.a, cert.b)}",
        )
    doc: dict = {"command": "box", "value": [cert.a, cert.b]}
    if args.witness:
        doc["witness"] = _witness_doc(cert.witness)
    return _emit(doc, args, f"{cert.a} {cert.b}")


def _peel_command(args: argparse.Namespace) -> str:
    delta = _read_polygon(args)
    trace = onion_skins(delta)
    doc = {
        "command": "peel",
        "value": len(trace.skins),
        "trace": [
            {"skin": [[x, y] for x, y in skin.vertices], "rule": "Skin", "contribution": 0}
            for skin in trace.skins
        ],
    }
    plain = "\n".join(";".join(f"{x},{y}" for x, y in skin.vertices) for skin in trace.skins)
    return _emit(doc, args, plain)


def _analyze_command(args: argparse.Namespace) -> str:
    if args.poly is None:
        raise ValueError("analyze needs --poly")
    result = analyze(parse_laurent(args.poly))
    if args.verify:
        inner = result.interior
        if not inner.is_empty:
            ups = result.special.params[0] if result.special and result.special.kind == "upsilon" else None
            if ups is None:
                _check(
                    oracle_size(inner, "sigma") + 3 == result.s2_bound,
                    "plane-degree bound disagrees with the oracle",
                )
                _check(
                    oracle_size(inner, "square") + 2 == result.s11_bound[1],
                    "bidegree bound disagrees with the oracle",
                )
    doc = {
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
    plain = "\n".join(
        [
            f"genus {result.genus_bound}",
            f"gonality {result.gonality}",
            f"s2_bound {result.s2_bound}",
            f"s11_bound {result.s11_bound[0]} {result.s11_bound[1]}",
        ]
    )
    return _emit(doc, args, plain)


def _oracle_command(args: argparse.Namespace) -> str:
    delta = _read_polygon(args)
    if args.shape == "box":
        pareto = oracle_box_pareto(delta)
        doc = {
            "command": "oracle",
            "value": [list(p) for p in pareto.pairs][0] if len(pareto.pairs) == 1 else None,
            "pareto": [list(p) for p in pareto.pairs],
        }
        plain = " ".join(f"{a},{b}" for a, b in pareto.pairs)
        return _emit(doc, args, plain)
    value = oracle_size(delta, args.shape)
    return _emit({"command": "oracle", "value": value}, args, str(value))


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
    handlers = {
        "width": _width_command,
        "sigma": lambda a: _size_command(a, "sigma"),
        "square": lambda a: _size_command(a, "square"),
        "box": _box_command,
        "peel": _peel_command,
        "analyze": _analyze_command,
        "oracle": _oracle_command,
    }
    try:
        return CommandResult(0, handlers[args.command](args))
    except InternalConsistencyError as exc:
        print(f"latsize: {exc}", file=sys.stderr)
        return CommandResult(4, "")
    except (NotTwoDimensionalError, EmptyPolygonError, DegeneratePolygonError) as exc:
        print(f"latsize: {exc}", file=sys.stderr)
        return CommandResult(3, "")
    except (SyntaxError, ZeroPolynomialError, CoordinateGuardError, ValueError, OSError) as exc:
        print(f"latsize: {exc}", file=sys.stderr)
        return CommandResult(2, "")


def main(argv: Optional[list[str]] = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
