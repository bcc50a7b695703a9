"""Lattice sizes with respect to the standard triangle and the unit square.

The values are computed by the interior-hull recursion, run as a loop: peel
the polygon into its onion skins and, from the innermost skin outward, apply
one rule per skin. The innermost skin, whose interior hull is empty, is a
point, a segment, 2*Sigma or a polygon of lattice width one, each with a
closed-form value. Every outer skin takes the first of three rules that
fires: the rectangle rule (triangle only, a + b for [0,a] x [0,b]), then the
parallel-edge rule (an edge of length r facing a face of length s = inner
value with r - s >= 3 gives r), then the generic step (inner value plus three
for the triangle, two for the square). No value is found by search. Every
certificate carries a witness map, found independently by exact feasibility
search at the computed value, plus the rule trace whose contributions
telescope from the empty-hull convention (-2 for the triangle, -1 for the
square) to the final value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import EmptyPolygonError, InternalConsistencyError
from .interior import interior_hull, onion_skins
from .polygon import (
    AffineUnimodularMap,
    LatticePolygon,
    Point,
    are_equivalent,
    complete_to_basis,
    hull,
    integral_length,
    recognize_special,
)
from .width import (
    Step,
    _euclidean_width_sq,
    _min_convex,
    _primitive_directions,
    _reduce,
    lattice_width,
    width_along,
)

SIGMA = "sigma"
SQUARE = "square"
BOX = "box"

_BASE = {SIGMA: -2, SQUARE: -1}
_STEP = {SIGMA: 3, SQUARE: 2}

RULE_GENERIC = "GenericStep"
RULE_PRISM = "LawrencePrism"
RULE_TWO_SIGMA = "TwoSigma"
# No rule emits RULE_TABLE; the benchmark reports a count for every RULE_* tag.
RULE_TABLE = "SmallTriangleTable"
RULE_RECTANGLE = "RectangleAB"
RULE_PARALLEL = "ParallelEdge"
RULE_SEARCH = "DegenerateBaseSearch"


@dataclass(frozen=True)
class SizeCertificate:
    """A lattice-size value with its witness map and recursion trace."""

    shape: str
    value: int
    witness: Optional[AffineUnimodularMap]
    trace: tuple[Step, ...]


@dataclass(frozen=True)
class BoxCertificate:
    """The product-order minimal box (lattice width, square lattice size)."""

    a: int
    b: int
    witness: AffineUnimodularMap


@dataclass(frozen=True)
class ParallelEdgeHit:
    """An edge of the polygon facing a face of its interior hull at unit distance."""

    r: int
    s: int
    tau: tuple[Point, Point]
    tau_prime: tuple[Point, ...]


def parallel_edge_exception(
    delta: LatticePolygon, gamma: LatticePolygon, threshold: int
) -> Optional[ParallelEdgeHit]:
    """Scan the edges of delta for the parallel-edge exception.

    For every edge of delta, the face of gamma on the inward unit shift of its
    supporting line is located (an edge, a single vertex of length zero, or
    nothing). Among the pairs with r - s >= threshold the first one maximizing
    r - s is returned, where r and s are the integral lengths of the edge and
    of the face. A one-dimensional gamma counts as an edge of itself.
    """
    if gamma.is_empty or gamma != interior_hull(delta):
        raise ValueError("gamma must be the (non-empty) interior hull of delta")
    best: Optional[ParallelEdgeHit] = None
    for (p, q), (a, b, c) in zip(delta.edges(), delta.edge_constraints):
        vals = [a * x + b * y for x, y in gamma.vertices]
        if max(vals) != c - 1:
            continue
        face = tuple(v for v, t in zip(gamma.vertices, vals) if t == c - 1)
        s = integral_length(face[0], face[1]) if len(face) == 2 else 0
        r = integral_length(p, q)
        if r - s >= threshold and (best is None or r - s > best.r - best.s):
            best = ParallelEdgeHit(r, s, (p, q), face)
    return best


def _size_value(delta: LatticePolygon, shape: str) -> tuple[int, tuple[Step, ...]]:
    """Value and rule trace from the onion skins of delta, innermost skin first."""
    if delta.is_empty:
        return _BASE[shape], ()
    skins = onion_skins(delta).skins
    value, step = _innermost_step(skins[-1], shape)
    trace = [step]
    for depth in reversed(range(len(skins) - 1)):
        value, step = _skin_step(skins[depth], skins[depth + 1], value, shape)
        trace.append(step)
    return value, tuple(trace)


def _innermost_step(delta: LatticePolygon, shape: str) -> tuple[int, Step]:
    """Value of a non-empty polygon whose interior hull is empty."""
    base = _BASE[shape]
    if delta.is_point:
        return 0, Step(delta, RULE_SEARCH, -base)
    if delta.is_segment:
        value = integral_length(*delta.vertices)
        return value, Step(delta, RULE_SEARCH, value - base)
    # Interior-free polygons: width-one prisms (in several disguises) and
    # the twice-dilated standard triangle.
    special = recognize_special(delta)
    if special is not None:
        kind, params = special.kind, special.params
        if kind == "standard_triangle" and params[0] == 2:
            return 2, Step(delta, RULE_TWO_SIGMA, 2 - base)
        if kind == "standard_triangle" and params[0] == 1:
            return 1, Step(delta, RULE_GENERIC, 1 - base)
        if kind == "rectangle":
            a, b = params
            if shape == SIGMA:
                return a + b, Step(delta, RULE_RECTANGLE, a + b - base, (a, b))
            if b >= 2:
                return b, Step(delta, RULE_PRISM, b - base, (b, b))
            return 1, Step(delta, RULE_GENERIC, 1 - base)
        if kind == "lawrence_prism":
            a, b = params
            if shape == SIGMA:
                value = a + 1 if a == b else a
                return value, Step(delta, RULE_PRISM, value - base, (a, b))
            if a >= 2:
                return a, Step(delta, RULE_PRISM, a - base, (a, b))
            return 1, Step(delta, RULE_GENERIC, 1 - base)
    raise InternalConsistencyError(
        f"no rule names the interior-free polygon {list(delta.vertices)}, "
        "which must be 2*Sigma or of lattice width one"
    )


def _skin_step(
    delta: LatticePolygon, gamma: LatticePolygon, inner_value: int, shape: str
) -> tuple[int, Step]:
    """Value of delta from the value of its non-empty interior hull gamma.

    The first rule that fires decides: the rectangle rule (triangle only),
    then the parallel-edge rule with threshold 3, then the generic step. A
    point or segment gamma goes through the same rules as a two-dimensional
    one.
    """
    if shape == SIGMA:
        special = recognize_special(delta)
        if special is not None and special.kind == "rectangle":
            a, b = special.params
            return a + b, Step(delta, RULE_RECTANGLE, a + b - inner_value, (a, b))
    hit = parallel_edge_exception(delta, gamma, 3)
    if hit is not None:
        if hit.s != inner_value:
            raise InternalConsistencyError(
                f"parallel-edge face length {hit.s} disagrees with inner value {inner_value}"
            )
        return hit.r, Step(delta, RULE_PARALLEL, hit.r - inner_value, (hit.r, hit.s))
    return inner_value + _STEP[shape], Step(delta, RULE_GENERIC, _STEP[shape])


def fit_into(
    delta: LatticePolygon, shape: str, size: Union[int, tuple[int, int]]
) -> Optional[AffineUnimodularMap]:
    """Exact feasibility test: a unimodular map embedding delta into the target.

    Targets: ``size * standard triangle`` ("sigma"), ``size * unit square``
    ("square") or the box [0,a] x [0,b] ("box", size = (a, b) with a <= b).
    Returns the first witness in the deterministic order (|u1|^2, u1, |u2|^2,
    u2) over candidate functional rows, after lattice reduction; None if the
    embedding is infeasible. Candidate rows are complete because any valid row
    u satisfies width(u) <= target and therefore |u| <= target / wE.
    """
    if delta.is_empty:
        raise EmptyPolygonError("fit_into needs a non-empty polygon")
    if shape not in (SIGMA, SQUARE, BOX):
        raise ValueError(f"target shape must be sigma, square or box, got {shape!r}")
    if shape == BOX:
        a_cap, b_cap = size
        if not (0 <= a_cap <= b_cap):
            raise ValueError(f"box bounds must satisfy 0 <= a <= b, got {size!r}")
    else:
        if size < 0:
            raise ValueError("target size must be non-negative")
        a_cap = b_cap = size

    if delta.is_point:
        x, y = delta.vertices[0]
        return AffineUnimodularMap.translation(-x, -y)
    if delta.is_segment:
        length = integral_length(*delta.vertices)
        if length <= a_cap:
            return are_equivalent(delta, hull([(0, 0), (length, 0)]))
        if shape == BOX and length <= b_cap:
            return are_equivalent(delta, hull([(0, 0), (0, length)]))
        return None

    if shape == SIGMA and delta.area2 > a_cap * a_cap:
        return None
    if shape in (SQUARE, BOX) and delta.area2 > 2 * a_cap * b_cap:
        return None

    red, psi = _reduce(delta)
    we2 = _euclidean_width_sq(red)
    return _fit_two_dim(red, psi, we2, shape, a_cap, b_cap)


def _fit_two_dim(red, psi, we2, shape, a_cap, b_cap):
    """Feasibility core on a reduced polygon; see fit_into for the contract."""
    bound_sq = (b_cap * b_cap * we2.denominator) // we2.numerator
    verts = red.vertices
    cands = []
    for u in _primitive_directions(bound_sq):
        dots = tuple(u[0] * x + u[1] * y for x, y in verts)
        w = max(dots) - min(dots)
        if w <= b_cap:
            cands.append((u, dots, w))
            neg = tuple(-t for t in dots)
            cands.append(((-u[0], -u[1]), neg, w))
    cands.sort(key=lambda c: (c[0][0] * c[0][0] + c[0][1] * c[0][1], c[0][0], c[0][1]))

    if shape == SIGMA:
        d = a_cap
        for (u1, dots1, w1) in cands:
            mn1 = min(dots1)
            for (u2, dots2, w2) in cands:
                if u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
                    continue
                reach = max(s + t for s, t in zip(dots1, dots2)) - mn1 - min(dots2)
                if reach <= d:
                    phi = AffineUnimodularMap(
                        u1[0], u1[1], u2[0], u2[1], -mn1, -min(dots2)
                    )
                    return phi.compose(psi)
        return None

    pool1 = [c for c in cands if c[2] <= a_cap]
    for (u1, dots1, w1) in pool1:
        for (u2, dots2, w2) in cands:
            if u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
                continue
            phi = AffineUnimodularMap(
                u1[0], u1[1], u2[0], u2[1], -min(dots1), -min(dots2)
            )
            return phi.compose(psi)
    return None


def _certificate(delta: LatticePolygon, shape: str, with_witness: bool) -> SizeCertificate:
    value, trace = _size_value(delta, shape)
    witness = None
    if with_witness:
        if delta.is_empty:
            witness = AffineUnimodularMap.identity()
        else:
            witness = fit_into(delta, shape, value)
            if witness is None:
                raise InternalConsistencyError(
                    f"recursion produced value {value} but no embedding exists"
                )
    return SizeCertificate(shape, value, witness, trace)


def lattice_size_sigma(delta: LatticePolygon, with_witness: bool = True) -> SizeCertificate:
    """Lattice size of delta with respect to the standard triangle."""
    return _certificate(delta, SIGMA, with_witness)


def lattice_size_square(delta: LatticePolygon, with_witness: bool = True) -> SizeCertificate:
    """Lattice size of delta with respect to the unit square."""
    return _certificate(delta, SQUARE, with_witness)


def minimal_box(delta: LatticePolygon) -> BoxCertificate:
    """The componentwise-minimal bounding box (lattice width, square size).

    The witness is built from an optimal width direction u1: complete it to a
    basis and minimize the width of the complementary row over the shear
    parameter (a convex piecewise-linear function of the shear). The best
    achievable second width must equal the square lattice size.
    """
    if delta.is_empty:
        raise EmptyPolygonError("minimal_box needs a non-empty polygon")
    if delta.is_point:
        x, y = delta.vertices[0]
        return BoxCertificate(0, 0, AffineUnimodularMap.translation(-x, -y))
    if delta.is_segment:
        length = integral_length(*delta.vertices)
        return BoxCertificate(0, length, are_equivalent(delta, hull([(0, 0), (0, length)])))
    wr = lattice_width(delta)
    a = wr.width
    b, _ = _size_value(delta, SQUARE)
    best: Optional[tuple[int, int, int]] = None
    for idx, u1 in enumerate(wr.directions):
        v0 = complete_to_basis(u1)
        k, fk = _min_convex(
            lambda k: width_along(delta, (v0[0] + k * u1[0], v0[1] + k * u1[1]))
        )
        if best is None or fk < best[0]:
            best = (fk, idx, k)
    fk, idx, k = best
    if fk != b:
        raise InternalConsistencyError(
            f"no width direction reaches second width {b}; best was {fk}"
        )
    u1 = wr.directions[idx]
    v0 = complete_to_basis(u1)
    u2 = (v0[0] + k * u1[0], v0[1] + k * u1[1])
    t1 = -min(u1[0] * x + u1[1] * y for x, y in delta.vertices)
    t2 = -min(u2[0] * x + u2[1] * y for x, y in delta.vertices)
    return BoxCertificate(a, b, AffineUnimodularMap(u1[0], u1[1], u2[0], u2[1], t1, t2))
