"""Lattice width from the Gauss-reduced basis of the width norm.

lattice_width reads the width and every optimal direction off the reduced
basis (_reduced_basis), which also gives every size witness (see
size._basis_map) and the coordinate frame of the oracle size.fit_into. The
basis is memoised per polygon, so these readers share one reduction; the
memo holds no onion skins, so lattice_width never peels. The memo entry
also keeps the widths the reduction measured along its final line, so a
warm lattice_width measures at most four more directions, most often none.
No set of directions is searched here; only that oracle searches, over the
lattice points of the width body {u : width(u) <= b}, row by row in this
frame. The width by peeling, lattice_width_recursive, is one of the
recursions in size.py.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import EmptyPolygonError, InternalConsistencyError
from .polygon import LatticePolygon, Point


class WidthResult(NamedTuple):
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


def _min_convex(f: Callable[[int], int], known: dict[int, int]) -> tuple[int, int]:
    """A deterministic integer argmin of a coercive convex function, with its value.

    known maps integers to their values of f and must hold f(0), which
    the caller knows already. A galloping search from 0 brackets the
    argmin and a bisection finds the smallest k with f(k) <= f(k + 1).
    The two share points, so every value is looked up in known first, and
    f is called only for a k not in it; that value is added to known, so
    the caller finds there every value of the pass. known always ends up
    with f(1), and with f(-1) whenever f(0) <= f(1).
    """
    def at(k: int) -> int:
        v = known.get(k)
        if v is None:
            v = known[k] = f(k)
        return v

    if at(0) <= at(1):
        lo = 0
        step = 1
        while True:
            nxt = lo - step
            if at(nxt) >= at(nxt + step):
                break
            lo = nxt
            step *= 2
        lo, hi = lo - step, 0
    else:
        hi = 1
        step = 1
        while True:
            nxt = hi + step
            if at(nxt) >= at(nxt - step):
                break
            hi = nxt
            step *= 2
        lo, hi = 0, hi + step
    # smallest k with f(k) <= f(k + 1); predicate is monotone by convexity
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid) <= at(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo, at(lo)


@lru_cache(maxsize=1 << 10)
def _reduced_basis(delta: LatticePolygon) -> tuple[Point, Point, int, tuple[int, int, int]]:
    """A Gauss-reduced basis (short, long) of the width norm of delta, with widths, memoised per polygon.

    The entry is (short, long, w, (f(long - short), f(long), f(long + short)))
    for the width norm f = width_along(delta, .). The rows satisfy
    w = f(short) <= f(long) <= f(long + k * short) for every integer k, so
    (Kaib and Schnorr, generalized Gauss reduction) they attain the two
    successive minima of the width: w is the lattice width and f(long) the
    least second width of a basis. For a segment the widths are
    (0, its lattice length), for a point (0, 0).

    Each pass replaces the longer row r1 by r1 + k * r2 when that is
    strictly narrower, and stops otherwise. The sum of the two widths is a
    non-negative integer that strictly decreases with every pass that does
    not stop, so the loop ends; no pass cap is needed.

    No width is measured twice. The widths along the line r1 + j * r2 of a
    pass are kept in a dict, seen, that _min_convex reads and fills. When
    r1 moves to r1 + k * r2, the line stays and seen is shifted by k. When
    the rows swap, the new line r2 + j * r1 meets the old one at
    j = +-1 (r2 +- r1 = +-(r1 +- r2), of the same width), so those two
    widths carry over. The final pass, along long + j * short, finds
    f(long) <= f(long + short), so seen then holds j = -1, 0 and 1, and the
    entry keeps those widths: lattice_width reads its tie set from them,
    and the square witness its reach f(long).

    The memo makes lattice_width, the Sigma and square witnesses (and so
    minimal_box) and the frame of fit_into over one polygon run one
    reduction between them. Its key is the polygon, as for size._rule_runs,
    and it keeps no skins, so a width-only caller starts no peel. The entry
    holds only tuples and ints, so no reader can change a cached entry.
    """
    r1, r2 = (1, 0), (0, 1)
    w1, w2 = width_along(delta, r1), width_along(delta, r2)
    seen = {0: w1}
    while True:
        if w1 < w2:
            seen = {j: seen[j] for j in (-1, 1) if j in seen} | {0: w2}
            r1, r2, w1, w2 = r2, r1, w2, w1
        k, fk = _min_convex(lambda k: width_along(delta, (r1[0] + k * r2[0], r1[1] + k * r2[1])), seen)
        if fk >= w1:
            return r2, r1, w2, (seen[-1], w1, seen[1])
        r1, w1 = (r1[0] + k * r2[0], r1[1] + k * r2[1]), fk
        seen = {j - k: v for j, v in seen.items()}


def _checked_basis(delta: LatticePolygon) -> tuple[Point, Point, int, tuple[int, int, int]]:
    """_reduced_basis(delta), checked: w <= f(long) <= f(long +- short), or InternalConsistencyError.

    By convexity along long + k * short, that makes w and f(long) the two
    successive minima of the width (Kaib and Schnorr), which the width, the
    witnesses, the box and the rows of fit_into rest on.
    """
    entry = short, long, w, (f_minus, f_long, f_plus) = _reduced_basis(delta)
    if not w <= f_long <= min(f_minus, f_plus):
        raise InternalConsistencyError(f"the basis {short}, {long} of widths {w} and "
                                       f"{f_minus}, {f_long}, {f_plus} is not reduced")
    return entry


def lattice_width(delta: LatticePolygon) -> WidthResult:
    """Exact lattice width with all optimal primitive directions, from the reduced basis.

    With (short, long, w, _) = _reduced_basis(delta) and f the width norm,
    w = f(short) is the lattice width. The optimal directions are those of
    the eight candidates y * long + x * short, (y, x) in (0, 1), (1, -2..2),
    (2, +-1), whose width is w. Every primitive direction is
    +-(y * long + x * short) with y >= 0 and gcd(x, y) = 1, and no other one
    ties:

    - For real t, let k be an integer nearest to t. Then
      f(long + t * short) >= f(long + k * short) - |t - k| * f(short)
      >= f(long) - w / 2 >= w / 2, as the basis is reduced. So
      f(y * long + x * short) = y * f(long + (x / y) * short) > w for
      y >= 3, since w > 0 on a two-dimensional polygon.
    - For y = 2 and odd x, write a = long + ((x - 1) / 2) * short and
      b = a + short. Then 2 * long + x * short = 2a + short = 2b - short has
      width at least 2 * f(a) - w and 2 * f(b) - w. As f(a) and f(b) are at
      least w, it ties only if both a and b tie.
    - Let K be the set of integers k with f(long + k * short) = w. If K is
      not empty, then f(long) = w, as the basis is reduced, and K is an
      interval around 0, as f is convex along the line. The o-symmetric
      convex body {f <= w} has no nonzero lattice point in its interior, so
      by Minkowski it holds at most 3^2 lattice points: 0, +-short, a pair
      for each k in K and a pair for each tie with y = 2. So K has at most
      three elements and lies in [-2, 2]. A tie with y = 2 puts 0,
      (x - 1) / 2 and (x + 1) / 2 in K and adds a pair of its own, so then
      K has two elements and x = +-1.

    The candidates come from the final pass of the reduction: the memo
    entry holds the widths of short, long and long +- short, so only the
    other four are measured, and only where they can tie:
    long +- 2 * short if long +- short ties (K is an interval around 0),
    and 2 * long +- short if long and long +- short both tie (the second
    point). When +-short is the only optimal direction, nothing is measured.
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
    short, long, w, (f_minus, f_long, f_plus) = _checked_basis(delta)
    dirs = [short]
    if f_long == w:
        dirs.append(long)
        for x, fx in ((-1, f_minus), (1, f_plus)):
            if fx == w:
                a = (long[0] + x * short[0], long[1] + x * short[1])
                dirs.append(a)
                further = ((a[0] + x * short[0], a[1] + x * short[1]), (a[0] + long[0], a[1] + long[1]))
                dirs.extend(u for u in further if width_along(delta, u) == w)
    dirs = sorted(map(_normalize_direction, dirs), key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1]))
    return WidthResult(w, tuple(dirs))
