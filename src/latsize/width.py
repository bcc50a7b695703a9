"""Lattice width from the Gauss-reduced basis of the width norm.

lattice_width reads the width and every optimal direction of a segment or
a polygon off the reduced basis (_reduced_basis), which also gives both
lattice sizes and their witnesses (see size._basis_map) and the coordinate
frame of the oracle size.fit_into. The basis is kept on its polygon, in
the instance dict beside area2 and edge_constraints, so these readers
share one reduction per polygon; it holds no onion skins, so none of them
peels. The entry also keeps the widths the reduction measured along its
final line, so a warm lattice_width measures at most four more
directions, most often none, and the dot lists of short and long on the
vertices, which the reduction moves with its rows from the x and y lists,
so the witnesses and the oracle's frame read them instead of projecting
the vertices again. No set of directions is searched here; only
that oracle searches, over the lattice points of the width body
{u : width(u) <= b}, row by row in this frame. The width by peeling,
lattice_width_recursive, is the width shape of the one recursion in
size.py (size._size_value); width --trace and --verify check lattice_width
against it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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
    the caller knows already. One galloping search brackets the argmin: it
    starts at the edge 0 (leftward, s = -1, when f(0) <= f(1)) or 1
    (rightward, s = +1), and moves the edge to edge + s * step, doubling
    step, while f falls there; the value at the edge stays in a local. The
    bracket is (edge - step, 0) or (0, edge + step), and a bisection in it
    finds the smallest k with f(k) <= f(k + 1). Gallop and bisection share
    points, so every value is looked up in known first, and f is called
    only for a k not in it; that value is added to known, so the caller
    finds there every value of the pass. known always ends up with f(1),
    and with f(-1) whenever f(0) <= f(1).
    """
    f0, f1 = known[0], known.get(1)
    if f1 is None:
        f1 = known[1] = f(1)
    edge, s, f_edge = (0, -1, f0) if f0 <= f1 else (1, 1, f1)
    step = 1
    while True:
        k = edge + s * step
        f_next = known.get(k)
        if f_next is None:
            f_next = known[k] = f(k)
        if f_next >= f_edge:
            break
        edge, f_edge = k, f_next
        step *= 2
    lo, hi = (edge - step, 0) if s < 0 else (0, edge + step)
    # smallest k with f(k) <= f(k + 1); predicate is monotone by convexity
    while lo < hi:
        mid = (lo + hi) // 2
        f_mid, f_up = known.get(mid), known.get(mid + 1)
        if f_mid is None:
            f_mid = known[mid] = f(mid)
        if f_up is None:
            f_up = known[mid + 1] = f(mid + 1)
        if f_mid <= f_up:
            hi = mid
        else:
            lo = mid + 1
    # lo is 0, the last point of the gallop or a point of the bisection
    return lo, known[lo]


# (short, long, w, (f(long - short), f(long), f(long + short)), the dots of
# short on the vertices, those of long); see _gauss_reduce
_BasisEntry = tuple[Point, Point, int, tuple[int, int, int], tuple[int, ...], tuple[int, ...]]


def _line_width(a: Sequence[int], b: Sequence[int], k: int) -> int:
    """Width of the functional r1 + k * r2, given the dot lists a of r1 and b of r2 on the vertices."""
    dots = [s + k * t for s, t in zip(a, b)]
    return max(dots) - min(dots)


def _reduced_basis(delta: LatticePolygon) -> _BasisEntry:
    """_gauss_reduce(delta), kept on delta under "_basis" in its instance dict.

    lattice_width, the Sigma and square sizes (and so minimal_box) and the
    frame of fit_into read this, so over one polygon they run one
    reduction between them, and a width-only caller starts no peel, as the
    entry holds no skins. The checked square size and witness that
    lattice_size_square and minimal_box share sit beside it, under
    "_square" (size._checked_square), stored the same way. Equal polygons
    built apart reduce apart. Two threads that read a fresh polygon at once
    may both reduce it; each stores the same entry with one dict
    assignment, so a reader finds no entry or a whole one. The entry holds
    only tuples and ints, so no reader can change it.
    """
    entry = delta.__dict__.get("_basis")
    if entry is None:
        entry = delta.__dict__["_basis"] = _gauss_reduce(delta)
    return entry


def _gauss_reduce(delta: LatticePolygon) -> _BasisEntry:
    """A Gauss-reduced basis (short, long) of the width norm of delta, its widths and dot lists.

    The entry is (short, long, w, (f(long - short), f(long), f(long + short)),
    dots_short, dots_long) for the width norm f = width_along(delta, .),
    where dots_short and dots_long are the dot lists [u . p for p in
    delta.vertices] of u = short and u = long. The rows satisfy
    w = f(short) <= f(long) <= f(long + k * short) for every integer k, so
    (Kaib and Schnorr, generalized Gauss reduction) they attain the two
    successive minima of the width: w is the lattice width and f(long) the
    least second width of a basis. For a segment the widths are
    (0, its lattice length), for a point (0, 0).

    Each pass replaces the longer row r1 by r1 + k * r2 when that is
    strictly narrower, and stops otherwise. The sum of the two widths is a
    non-negative integer that strictly decreases with every pass that does
    not stop, so the loop ends; no pass cap is needed.

    The vertices are projected once, onto (1, 0) and (0, 1): their x and y
    lists are the dot lists a of r1 and b of r2. A point k of a pass line
    is measured as max - min of a_i + k * b_i (_line_width), so no
    direction tuple is built; a moves with r1 (a <- a + k * b), and the
    lists swap when the rows swap. The final lists are the entry's dots, so
    its readers (size._basis_map, the frame of size.fit_into) project
    nothing.

    No width is measured twice. The widths along the line r1 + j * r2 of a
    pass are kept in a dict, seen, that _min_convex reads and fills. When
    r1 moves to r1 + k * r2, the line stays and seen is shifted by k. When
    the rows swap, the new line r2 + j * r1 meets the old one at
    j = +-1 (r2 +- r1 = +-(r1 +- r2), of the same width), so those two
    widths carry over. The final pass, along long + j * short, finds
    f(long) <= f(long + short), so seen then holds j = -1, 0 and 1, and the
    entry keeps those widths: lattice_width reads its tie set from them,
    and the square size its reach f(long).
    """
    if delta.is_empty:
        raise EmptyPolygonError("width of the empty polygon is undefined")
    r1, r2 = (1, 0), (0, 1)
    a, b = zip(*delta.vertices)
    w1, w2 = max(a) - min(a), max(b) - min(b)
    seen = {0: w1}
    while True:
        if w1 < w2:
            seen = {j: seen[j] for j in (-1, 1) if j in seen} | {0: w2}
            r1, r2, w1, w2, a, b = r2, r1, w2, w1, b, a
        k, fk = _min_convex(lambda k: _line_width(a, b, k), seen)
        if fk >= w1:
            return r2, r1, w2, (seen[-1], w1, seen[1]), tuple(b), tuple(a)
        r1, w1 = (r1[0] + k * r2[0], r1[1] + k * r2[1]), fk
        a = [s + k * t for s, t in zip(a, b)]
        seen = {j - k: v for j, v in seen.items()}


def _checked_basis(delta: LatticePolygon) -> _BasisEntry:
    """_reduced_basis(delta), checked: w <= f(long) <= f(long +- short), or InternalConsistencyError.

    By convexity along long + k * short, that makes w and f(long) the two
    successive minima of the width (Kaib and Schnorr), which the width, the
    witnesses, the box and the rows of fit_into rest on.
    """
    entry = short, long, w, (f_minus, f_long, f_plus), _, _ = _reduced_basis(delta)
    if not w <= f_long <= min(f_minus, f_plus):
        raise InternalConsistencyError(f"the basis {short}, {long} of widths {w} and "
                                       f"{f_minus}, {f_long}, {f_plus} is not reduced")
    return entry


def lattice_width(delta: LatticePolygon) -> WidthResult:
    """Exact lattice width with all optimal primitive directions, from the reduced basis.

    With (short, long, w, ...) = _reduced_basis(delta) and f the width norm,
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

    A segment reads the basis too: short is its one normal, of width 0,
    and f(long) its lattice length, never 0 = w, so +-short is its one
    optimal direction. A point keeps a branch of its own, as every
    direction ties there.
    """
    if delta.is_empty:
        return WidthResult(-1, ())
    if delta.is_point:
        return WidthResult(0, ((0, 1), (1, 0)))
    short, long, w, (f_minus, f_long, f_plus), _, _ = _checked_basis(delta)
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
