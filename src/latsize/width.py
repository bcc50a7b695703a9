"""Lattice width from the Gauss-reduced basis of the width norm.

lattice_width reads the width and every optimal direction of a segment or
a polygon off the reduced basis (_checked_basis), which also gives both
lattice sizes and their witnesses (see size._basis_map) and the coordinate
frame of the oracle size.fit_into. The basis is checked once and then kept
on its polygon, in the instance dict beside area2 and edge_constraints, so
these readers share one reduction and one check per polygon; it holds no
onion skins, so none of them peels. The entry also keeps the widths the
reduction measured along its final line, so a warm lattice_width measures
at most four more directions, most often none, and the dot lists of short
and long on the vertices, which the reduction moves with its rows from the
x and y lists, so the witnesses and the oracle's frame read them instead
of projecting the vertices again. The reduction measures a direction by
its least and largest dot, with no list built: the first four, (1, 0),
(0, 1), (1, -1) and (1, 1), in one sweep of the vertices (_pair_extremes),
and every later point of a pass line in one call of _line_width over two dot
lists. A pass whose neighbours are no narrower than its row stops there,
so a polygon given in a reduced frame costs one sweep and no line search.
The Sigma witness in size.py takes the extremes it needs in one sweep of
the same helper over the entry's dot lists, and each check of a witness in
one pass over the vertices (size._frame_extremes). No set of directions is
searched here; only that oracle searches, over the lattice points of the
width body {u : width(u) <= b}, row by row in this frame. The width by
peeling, lattice_width_recursive, is the width shape of the one recursion
in size.py (size._size_value); width --trace and --verify check
lattice_width against it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

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
    """Width of the functional r1 + k * r2, given the non-empty dot lists a of r1 and b of r2 on the vertices.

    That is max - min of a_i + k * b_i, both taken in one pass over a and b
    with no list built; the reduction measures each pass point beyond its
    first sweep (_pair_extremes) with one call of it.
    """
    lo = hi = a[0] + k * b[0]
    for s, t in zip(a, b):
        d = s + k * t
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
    return hi - lo


def _pair_extremes(pairs: Iterable[Point]) -> tuple[int, ...]:
    """The least and largest of x, y, x - y and x + y over the non-empty pairs (x, y), in that order.

    All eight come from one pass that starts from the first pair, with no
    slice taken and no list built, so pairs may be a tuple of vertices or a
    zip of two dot lists: the first pass of _gauss_reduce reads both row
    widths and both neighbours f(-1) and f(1) off the vertices, and the
    Sigma witness (size._basis_map) its four reaches off the basis's dot
    lists.
    """
    it = iter(pairs)
    x, y = next(it)
    lo_x = hi_x = x
    lo_y = hi_y = y
    lo_d = hi_d = x - y
    lo_s = hi_s = x + y
    for x, y in it:
        if x < lo_x: lo_x = x
        elif x > hi_x: hi_x = x
        if y < lo_y: lo_y = y
        elif y > hi_y: hi_y = y
        d, s = x - y, x + y
        if d < lo_d: lo_d = d
        elif d > hi_d: hi_d = d
        if s < lo_s: lo_s = s
        elif s > hi_s: hi_s = s
    return lo_x, hi_x, lo_y, hi_y, lo_d, hi_d, lo_s, hi_s


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

    Each pass, along the line r1 + j * r2 of the longer row r1, replaces r1
    by r1 + k * r2 when that is strictly narrower, and stops otherwise. The
    sum of the two widths is a non-negative integer that strictly decreases
    with every pass that does not stop, so the loop ends; no pass cap is
    needed.

    A pass first holds both neighbours f(-1) and f(1) of f(0) = f(r1). The
    first pass, along (1, 0) + j * (0, 1) or (0, 1) + j * (1, 0), takes them
    with both row widths in one sweep of the vertices (_pair_extremes), as
    the widths along (1, -1) and (1, 1): each width is the largest less the
    least of its form. Every later pass has at least one carried in (see
    below) and measures only a missing one. f is convex along the line, as
    the max over pairs of vertices of an affine function of j, so when
    neither neighbour is below f(0), f(0) is the least width on the line:
    the pass stops without a search, with the entry that the search would
    give. Only a pass that moves r1 runs the line search _min_convex, whose
    argmin k is then not 0 and f(k) < f(0).

    The vertices are projected once, onto (1, 0) and (0, 1): their x and y
    lists are the dot lists a of r1 and b of r2. A point k of a pass line
    is measured as max - min of a_i + k * b_i by one call of _line_width,
    bound to a and b for the search (functools.partial), which takes both
    in one pass over a and b, so neither a direction tuple nor a list of
    dots is built; a moves with r1 (a <- a + k * b), and the lists swap
    when the rows swap. The updates are plain loops, so no comprehension
    makes k a closure cell. The final lists are the entry's dots, so its
    readers (size._basis_map, the frame of size.fit_into) project nothing.

    No width is measured twice. The widths along the line r1 + j * r2 of a
    pass are kept in a dict, seen, that _min_convex reads and fills. When
    r1 moves to r1 + k * r2, the line stays and seen is shifted by k, which
    keeps f(k + 1) of the search as a neighbour. When the rows swap, the new
    line r2 + j * r1 meets the old one at j = +-1 (r2 +- r1 = +-(r1 +- r2),
    of the same width), so those two widths carry over. The final pass,
    along long + j * short, finds f(long) <= f(long +- short), and the entry
    keeps those three widths: lattice_width reads its tie set from them,
    and the square size its reach f(long).
    """
    if delta.is_empty:
        raise EmptyPolygonError("width of the empty polygon is undefined")
    r1, r2 = (1, 0), (0, 1)
    a, b = zip(*delta.vertices)
    lo_x, hi_x, lo_y, hi_y, lo_d, hi_d, lo_s, hi_s = _pair_extremes(delta.vertices)
    w1, w2 = hi_x - lo_x, hi_y - lo_y
    seen = {0: w1, -1: hi_d - lo_d, 1: hi_s - lo_s}
    while True:
        if w1 < w2:
            carried, seen = seen, {0: w2}
            for j in (-1, 1):
                if j in carried:
                    seen[j] = carried[j]
            r1, r2, w1, w2, a, b = r2, r1, w2, w1, b, a
        f_minus, f_plus = seen.get(-1), seen.get(1)
        if f_minus is None:
            f_minus = seen[-1] = _line_width(a, b, -1)
        if f_plus is None:
            f_plus = seen[1] = _line_width(a, b, 1)
        if f_minus >= w1 and f_plus >= w1:
            return r2, r1, w2, (f_minus, w1, f_plus), tuple(b), tuple(a)
        k, w1 = _min_convex(partial(_line_width, a, b), seen)
        r1 = (r1[0] + k * r2[0], r1[1] + k * r2[1])
        # plain loops, as a comprehension would make k a closure cell
        moved, a = a, []
        for s, t in zip(moved, b):
            a.append(s + k * t)
        shifted, seen = seen, {}
        for j, v in shifted.items():
            seen[j - k] = v


def _checked_basis(delta: LatticePolygon) -> _BasisEntry:
    """_gauss_reduce(delta), checked and kept on delta under "_basis" in its instance dict.

    The check is w <= f(long) <= f(long +- short), or
    InternalConsistencyError. By convexity along long + k * short, that
    makes w and f(long) the two successive minima of the width (Kaib and
    Schnorr), which the width, the witnesses, the box and the rows of
    fit_into rest on. It runs once, before the entry is stored, so a stored
    entry is a checked one; a basis that fails is not stored, and every read
    of that polygon reduces and raises again.

    lattice_width, the Sigma and square sizes (and so minimal_box) and the
    frame of fit_into read this, so over one polygon they run one reduction
    and one check between them, and a width-only caller starts no peel, as
    the entry holds no skins. The checked square size and witness that
    lattice_size_square and minimal_box share sit beside it, under
    "_square" (size._checked_square), stored the same way. Equal polygons
    built apart reduce apart. Two threads that read a fresh polygon at once
    may both reduce it; each stores the same entry with one dict
    assignment, so a reader finds no entry or a whole, checked one. The
    entry holds only tuples and ints, so no reader can change it.
    """
    entry = delta.__dict__.get("_basis")
    if entry is None:
        entry = short, long, w, (f_minus, f_long, f_plus), _, _ = _gauss_reduce(delta)
        if not w <= f_long <= min(f_minus, f_plus):
            raise InternalConsistencyError(f"the basis {short}, {long} of widths {w} and "
                                           f"{f_minus}, {f_long}, {f_plus} is not reduced")
        delta.__dict__["_basis"] = entry
    return entry


def lattice_width(delta: LatticePolygon) -> WidthResult:
    """Exact lattice width with all optimal primitive directions, from the reduced basis.

    With (short, long, w, ...) = _checked_basis(delta) and f the width norm,
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
    point). When +-short is the only optimal direction (f(long) > w),
    nothing is measured, and the lone direction is returned without a tie
    list built or sorted.

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
    if f_long > w:
        return WidthResult(w, (_normalize_direction(short),))
    dirs = [short, long]
    for x, fx in ((-1, f_minus), (1, f_plus)):
        if fx == w:
            a = (long[0] + x * short[0], long[1] + x * short[1])
            dirs.append(a)
            further = ((a[0] + x * short[0], a[1] + x * short[1]), (a[0] + long[0], a[1] + long[1]))
            dirs.extend(u for u in further if width_along(delta, u) == w)
    dirs = sorted(map(_normalize_direction, dirs), key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1]))
    return WidthResult(w, tuple(dirs))
