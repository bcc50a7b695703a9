"""Lattice width: exact direction enumeration and the peeling recursion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import EmptyPolygonError
from .interior import _moved, _runs
from .polygon import (
    EMPTY,
    AffineUnimodularMap,
    LatticePolygon,
    Point,
    apply_map,
    recognize_special,
)


@dataclass(frozen=True)
class WidthResult:
    """Minimal directional extent and every primitive direction achieving it."""

    width: int
    directions: tuple[Point, ...]


def width_along(delta: LatticePolygon, u: Point) -> int:
    """Extent of delta along the integer functional u (max dot minus min dot)."""
    if delta.is_empty:
        raise EmptyPolygonError("width of the empty polygon is undefined")
    if u == (0, 0):
        raise ValueError("direction must be a nonzero vector")
    dots = [u[0] * x + u[1] * y for x, y in delta.vertices]
    return max(dots) - min(dots)


def _normalize_direction(u: Point) -> Point:
    return u if u[0] > 0 or (u[0] == 0 and u[1] > 0) else (-u[0], -u[1])


def _euclidean_width_sq(delta: LatticePolygon) -> Fraction:
    """Squared minimal Euclidean width, exactly.

    The minimal width of a convex polygon is attained over an edge, so it is
    the least height over all edge supporting lines (rotating calipers with
    rational squared distances).
    """
    best = None
    for a, b, c in delta.edge_constraints:
        h = c - min(a * x + b * y for x, y in delta.vertices)
        w2 = Fraction(h * h, a * a + b * b)
        if best is None or w2 < best:
            best = w2
    return best


def _primitive_directions(bound_sq: int) -> list[Point]:
    """Primitive vectors with |u|^2 <= bound_sq, one per +-pair.

    Normalized to u[0] > 0 or (u[0] == 0 and u[1] > 0), sorted by
    (|u|^2, u[0], u[1]).
    """
    if bound_sq < 1:
        return []
    dirs = [(0, 1)]
    for x in range(1, math.isqrt(bound_sq) + 1):
        max_y = math.isqrt(bound_sq - x * x)
        for y in range(-max_y, max_y + 1):
            if math.gcd(x, y) == 1:
                dirs.append((x, y))
    dirs.sort(key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1]))
    return dirs


def _min_convex(f: Callable[[int], int]) -> tuple[int, int]:
    """A deterministic integer argmin of a coercive convex function, with its value."""
    f0, f1 = f(0), f(1)
    if f0 <= f1:
        lo = 0
        step = 1
        while True:
            nxt = lo - step
            if f(nxt) >= f(nxt + step):
                break
            lo = nxt
            step *= 2
        lo, hi = lo - step, 0
    else:
        hi = 1
        step = 1
        while True:
            nxt = hi + step
            if f(nxt) >= f(nxt - step):
                break
            hi = nxt
            step *= 2
        lo, hi = 0, hi + step
    # smallest k with f(k) <= f(k + 1); predicate is monotone by convexity
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) <= f(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo, f(lo)


def _reduced_basis(delta: LatticePolygon) -> tuple[Point, Point]:
    """A Gauss-reduced basis (short, long) of the width norm of delta.

    The rows satisfy width(short) <= width(long) <= width(long + k * short)
    for every integer k, so (Kaib and Schnorr, generalized Gauss reduction)
    they attain the two successive minima of the width: width(short) is the
    lattice width and width(long) the least second width of a basis. For a
    segment the widths are (0, its lattice length), for a point (0, 0).

    Each pass replaces the longer row r1 by r1 + k * r2 when that is
    strictly narrower, and stops otherwise. The sum of the two widths is a
    non-negative integer that strictly decreases with every pass that does
    not stop, so the loop ends; no pass cap is needed.
    """
    r1, r2 = (1, 0), (0, 1)
    w1, w2 = width_along(delta, r1), width_along(delta, r2)
    while True:
        if w1 < w2:
            r1, r2, w1, w2 = r2, r1, w2, w1
        k, fk = _min_convex(lambda k: width_along(delta, (r1[0] + k * r2[0], r1[1] + k * r2[1])))
        if fk >= w1:
            return r2, r1
        r1, w1 = (r1[0] + k * r2[0], r1[1] + k * r2[1]), fk


def _reduce(delta: LatticePolygon) -> tuple[LatticePolygon, AffineUnimodularMap]:
    """Precondition a two-dimensional polygon by lattice (Gauss) reduction.

    Returns the equivalent polygon with the rows (long, short) of
    _reduced_basis as coordinates, plus the map that produced it. Its axis
    widths are small, which keeps the rigorous direction-enumeration discs
    small even for badly sheared input.
    """
    short, long = _reduced_basis(delta)
    psi = AffineUnimodularMap(long[0], long[1], short[0], short[1], 0, 0)
    return apply_map(psi, delta), psi


def _transport(u: Point, psi: AffineUnimodularMap) -> Point:
    """Pull a functional on psi(delta) back to one on delta (transpose action)."""
    return (psi.m11 * u[0] + psi.m21 * u[1], psi.m12 * u[0] + psi.m22 * u[1])


def lattice_width(delta: LatticePolygon) -> WidthResult:
    """Exact lattice width with all optimal primitive directions.

    The enumeration is restricted to |u|^2 <= (w0 / wE)^2 where w0 is the
    smaller axis width and wE the minimal Euclidean width: any direction
    beating w0 satisfies |u| * wE <= width_along(u) <= w0, so nothing outside
    the disc can win.
    """
    if delta.is_empty:
        return WidthResult(-1, ())
    if delta.is_point:
        return WidthResult(0, ((0, 1), (1, 0)))
    if delta.is_segment:
        p, q = delta.vertices
        g = math.gcd(q[0] - p[0], q[1] - p[1])
        d = ((q[0] - p[0]) // g, (q[1] - p[1]) // g)
        return WidthResult(0, (_normalize_direction((-d[1], d[0])),))
    red, psi = _reduce(delta)
    w0 = min(width_along(red, (1, 0)), width_along(red, (0, 1)))
    we2 = _euclidean_width_sq(red)
    bound_sq = (w0 * w0 * we2.denominator) // we2.numerator
    best = None
    achievers: list[Point] = []
    for u in _primitive_directions(bound_sq):
        w = width_along(red, u)
        if best is None or w < best:
            best, achievers = w, [u]
        elif w == best:
            achievers.append(u)
    dirs = sorted(
        (_normalize_direction(_transport(u, psi)) for u in achievers),
        key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1]),
    )
    return WidthResult(best, tuple(dirs))


@dataclass(frozen=True)
class Step:
    """One rule application in a peeling recursion: the skin it fired on and what it added.

    A Step with count > 1 covers a run of skins: skin + t * shift for
    t = 0, ..., count - 1 (vertex i moving by shift[i] per skin, see
    OnionTrace), each adding contribution. Its params are those of skin,
    the outermost one; they are lattice lengths that fall along the run,
    ParallelEdge's (r, s) by r - s and RectangleAB's (a, b) by 2 per skin.
    A trace is therefore O(runs) long.
    """

    skin: LatticePolygon
    rule: str
    contribution: int
    params: tuple[int, ...] = ()
    count: int = 1
    shift: tuple[Point, ...] = ()


_WIDTH_BASE = {
    "empty": ("LawrencePrismBase", 1),
    "point": ("SinglePointInteriorBase", 2),
    "segment": ("SegmentInteriorBase", 2),
}


def lattice_width_recursive(delta: LatticePolygon) -> tuple[int, tuple[Step, ...]]:
    """Lattice width by interior-hull peeling.

    Standard triangles are the one exceptional family (their width drops by
    three per peel instead of two); polygons whose interior hull is degenerate
    are settled by a fixed base table. The skins are walked outermost first,
    one run of uniform peels at a time (see onion_skins), without recursion,
    because a standard triangle ends the chain early; the trace lists the
    innermost step first. Every skin of a run has the edge normals of its
    first skin, and a triangle with the normals of a standard triangle is one,
    so the standard-triangle test is decided at the start of each run. The
    skins of a run before its last have two-dimensional interior hulls (the
    next skins), so they are generic steps.
    """
    if delta.is_empty:
        raise EmptyPolygonError("lattice_width_recursive needs a non-empty polygon")
    if not delta.is_two_dim:
        return 0, (Step(delta, "DegenerateInput", 0),)
    generic: list[Step] = []
    runs = _runs(delta)
    run = next(runs)
    while True:
        skin, shift, count = run
        special = recognize_special(skin)
        if special is not None and special.kind == "standard_triangle":
            base = Step(skin, "StandardTriangleException", special.params[0])
            break
        run = next(runs, None)
        gamma = EMPTY if run is None else run[0]
        if gamma.is_two_dim:
            generic.append(Step(skin, "GenericStep", 2, (), count, shift))
            continue
        if count > 1:
            generic.append(Step(skin, "GenericStep", 2, (), count - 1, shift))
        base = Step(_moved(skin, shift, count - 1), *_WIDTH_BASE[gamma.kind])
        break
    trace = (base,) + tuple(reversed(generic))
    return base.contribution + 2 * sum(step.count for step in generic), trace
