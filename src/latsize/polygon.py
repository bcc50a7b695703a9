"""Exact lattice polygons and affine unimodular maps.

Coordinates are Python integers and every operation is exact. Polygons are
immutable and canonical: counterclockwise vertex order starting at the
lexicographically smallest vertex, segments store their two extreme lattice
points in sorted order. Structural equality therefore coincides with equality
as point sets, and all values are safe to share between threads.

One monotone-chain builder makes every hull: _push grows a lower and an
upper chain and _from_chains reads the canonical polygon off them. hull
feeds them the sorted points; the column scan of interior._column_hull
feeds them the ends of each interior column, already in order, so it
sorts nothing.

The package's plain result records (Measures and SpecialShape here, and
those of width, size, interior, newton, oracle and cli) are
typing.NamedTuples, so they unpack and compare equal to a tuple of the same
fields. LatticePolygon and AffineUnimodularMap are slotted, immutable
classes instead (_Frozen): a polygon keeps what is derived from it (area2,
edge_constraints, the checked reduced basis of width._checked_basis and
the checked square certificate of size._checked_square) in its instance
dict, and a map checks its determinant however it is built.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    CoordinateGuardError,
    DegeneratePolygonError,
    EmptyPolygonError,
)

Point = tuple[int, int]

_GUARD = 1 << 31


def _check_point(p: object) -> Point:
    """p as a tuple, if it is a pair of ints (bools excluded) within the guard."""
    if not (isinstance(p, (tuple, list)) and len(p) == 2):
        raise CoordinateGuardError(f"lattice point must be a pair of integers: {p!r}")
    x, y = p
    if type(x) is not int or type(y) is not int:
        raise CoordinateGuardError(f"lattice point must have integer coordinates: {p!r}")
    if abs(x) > _GUARD or abs(y) > _GUARD:
        raise CoordinateGuardError(f"coordinate exceeds guard {_GUARD}: {p!r}")
    return (x, y)


def integral_length(p: Point, q: Point) -> int:
    """Number of primitive lattice steps from p to q; gcd(0, 0) is 0."""
    return math.gcd(q[0] - p[0], q[1] - p[1])


def _primitive(v: Point) -> Point:
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


class _Frozen:
    """Base of the slotted value classes: equal and hashed by class and _key(), never changed.

    A subclass defines _key(), its fields in the constructor's order, and
    sets them in __init__ through its slot descriptors' __set__, bound once
    at import (so no call looks object.__setattr__ up); after that, setting
    or deleting an attribute raises AttributeError. pickle and copy rebuild
    an instance through its constructor, so they validate as it does.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()


class LatticePolygon(_Frozen):
    """Convex hull of lattice points, possibly degenerate.

    ``vertices`` is empty, a single point, a sorted extreme pair, or the
    strictly convex counterclockwise vertex cycle starting at the
    lexicographically smallest vertex. Build instances through :func:`hull`.

    A polygon keeps area2, edge_constraints, the reduced basis of its
    width norm (under "_basis", see width._checked_basis) and its square
    size with its witness, which the minimal box shares (under "_square",
    see size._checked_square), in its instance dict; both are checked
    before they are stored. So it is a slotted, immutable class rather than
    a tuple: equal and hashed by class and vertices only, never equal to a
    plain tuple, and unchangeable once built. Each entry is a function of
    the vertices alone and is stored whole by one assignment, so threads
    that fill it at once store equal values, and a polygon is safe to
    share.
    """

    __slots__ = ("vertices", "__dict__")
    __match_args__ = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]) -> None:
        _set_vertices(self, vertices)

    def _key(self) -> tuple:
        return (self.vertices,)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    @property
    def is_two_dim(self) -> bool:
        return len(self.vertices) >= 3

    @property
    def kind(self) -> str:
        return ("empty", "point", "segment")[len(self.vertices)] if len(self.vertices) < 3 else "polygon"

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        vs = self.vertices
        n = len(vs)
        if n < 3:
            return ()
        return tuple((vs[i], vs[(i + 1) % n]) for i in range(n))

    @cached_property
    def area2(self) -> int:
        """Twice the Euclidean area (0 for degenerate polygons)."""
        vs = self.vertices
        n = len(vs)
        if n < 3:
            return 0
        return sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1] for i in range(n))

    @cached_property
    def edge_constraints(self) -> tuple[tuple[int, int, int], ...]:
        """Per edge the primitive outward form (a, b, c) with a*x + b*y <= c on the polygon."""
        out = []
        for p, q in self.edges():
            dx, dy = q[0] - p[0], q[1] - p[1]
            g = math.gcd(dx, dy)
            a, b = dy // g, -dx // g
            out.append((a, b, a * p[0] + b * p[1]))
        return tuple(out)

    def translate(self, t: Point) -> "LatticePolygon":
        return LatticePolygon(tuple((x + t[0], y + t[1]) for x, y in self.vertices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatticePolygon<{self.kind}>{list(self.vertices)}"


_set_vertices = LatticePolygon.vertices.__set__
EMPTY = LatticePolygon(())


def _push(chain: list[Point], p: Point, turn: int) -> None:
    """Append p to a monotone chain, first popping the points p makes redundant.

    ``turn`` is 1 for a lower chain (only left turns survive) and -1 for an
    upper chain (only right turns survive).
    """
    x, y = p
    while len(chain) >= 2:
        (ox, oy), (ax, ay) = chain[-2], chain[-1]
        if turn * ((ax - ox) * (y - oy) - (ay - oy) * (x - ox)) > 0:
            break
        chain.pop()
    chain.append(p)


def _from_chains(lower: list[Point], upper: list[Point]) -> LatticePolygon:
    """The canonical hull of a strictly convex lower chain and a strictly concave upper chain.

    Both chains are built by _push in increasing x, from the least column
    of the points to the greatest, and the upper one starts and ends at
    least as high as the lower one. The hull is the lower chain, the right end of the upper chain if
    it is a new point, the upper chain reversed without its ends, and its
    left end if it is a new point. That starts at the least point and runs
    counterclockwise, the canonical form. Empty chains give the empty
    polygon and a single column a point or a vertical segment; equal chains
    mean every point lies on one line, and the hull is the segment between
    their ends.
    """
    if not lower:
        return EMPTY
    if len(lower) == 1:
        return LatticePolygon((lower[0],) if lower == upper else (lower[0], upper[0]))
    if lower == upper:
        return LatticePolygon((lower[0], lower[-1]))
    right = [upper[-1]] if upper[-1] != lower[-1] else []
    left = [upper[0]] if upper[0] != lower[0] else []
    return LatticePolygon(tuple(lower + right + upper[-2:0:-1] + left))


def hull(points: Iterable[Point]) -> LatticePolygon:
    """Convex hull of the given lattice points, in canonical form.

    Andrew's monotone chain: the sorted points build a lower and an upper
    chain, which share their ends, and _from_chains reads the hull off them.
    """
    lower: list[Point] = []
    upper: list[Point] = []
    for p in sorted({_check_point(p) for p in points}):
        _push(lower, p, 1)
        _push(upper, p, -1)
    return _from_chains(lower, upper)


def standard_triangle(d: int) -> LatticePolygon:
    """conv{(0,0), (d,0), (0,d)}."""
    return hull([(0, 0), (d, 0), (0, d)])


def upsilon(d: int) -> LatticePolygon:
    """The d-th dilation of conv{(-1,-1), (1,0), (0,1)}."""
    return hull([(-d, -d), (d, 0), (0, d)])


def rectangle(a: int, b: int) -> LatticePolygon:
    """The axis-aligned box [0,a] x [0,b]."""
    return hull([(0, 0), (a, 0), (a, b), (0, b)])


def lawrence_prism(a: int, b: int) -> LatticePolygon:
    """conv{(0,0), (a,0), (b,1), (0,1)}: a polygon of lattice width one."""
    return hull([(0, 0), (a, 0), (b, 1), (0, 1)])


class Measures(NamedTuple):
    """Exact lattice-point counts of a polygon."""

    area2: int
    boundary_count: int
    interior_count: int
    total_count: int


def _column_bounds(delta: LatticePolygon, x: int) -> Optional[tuple[int, int]]:
    """Integer y-range of the lattice points strictly inside delta at column x."""
    lo = hi = None
    for a, b, c in delta.edge_constraints:
        t = c - 1 - a * x
        if b > 0:
            ub = t // b
            hi = ub if hi is None else min(hi, ub)
        elif b < 0:
            lb = -(t // (-b))  # ceil(t / b) for the flipped inequality
            lo = lb if lo is None else max(lo, lb)
        elif t < 0:
            return None
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def _interior_columns(delta: LatticePolygon) -> Iterator[tuple[int, int, int]]:
    """(x, lo, hi) for every column x of a two-dimensional delta with interior points."""
    xs = [v[0] for v in delta.vertices]
    for x in range(min(xs), max(xs) + 1):
        rng = _column_bounds(delta, x)
        if rng is not None:
            yield x, rng[0], rng[1]


def interior_lattice_points(delta: LatticePolygon) -> list[Point]:
    """Lattice points strictly inside delta (empty for degenerate polygons)."""
    if not delta.is_two_dim:
        return []
    return [(x, y) for x, lo, hi in _interior_columns(delta) for y in range(lo, hi + 1)]


def measures(delta: LatticePolygon) -> Measures:
    """Area and lattice-point counts; the interior count by Pick's formula.

    Pick's formula, area2 = 2 * interior + boundary - 2, gives the interior
    count from twice the area and the boundary count, the sum of the edges'
    gcds, in O(edges), so measures ends at the 2^31 coordinate guard.
    newton.analyze reads the genus bound from it. The independent count
    that it is tested against, column by column over _interior_columns,
    lives in tests/columns.py.
    """
    if delta.is_empty:
        raise EmptyPolygonError("measures of the empty polygon are undefined")
    if delta.is_point:
        return Measures(0, 1, 0, 1)
    if delta.is_segment:
        n = integral_length(*delta.vertices) + 1
        return Measures(0, n, 0, n)
    area2 = delta.area2
    boundary = sum(integral_length(p, q) for p, q in delta.edges())
    interior = (area2 - boundary + 2) // 2
    return Measures(area2, boundary, interior, interior + boundary)


class AffineUnimodularMap(_Frozen):
    """x -> M x + t with integer M, det M = +-1 and integer translation t.

    Immutable, equal and hashed by its six fields; every way to build one,
    copies included, rejects a determinant other than +-1. There is no
    constructor that skips that test, not even for the witnesses, whose
    rows are a basis by construction.
    """

    __slots__ = __match_args__ = ("m11", "m12", "m21", "m22", "t1", "t2")

    def __init__(self, m11: int, m12: int, m21: int, m22: int, t1: int, t2: int) -> None:
        det = m11 * m22 - m12 * m21
        if det not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {det}")
        # slot by slot through the descriptor setters bound below, not in a
        # loop or by object.__setattr__: every size builds its witness here
        _set_m11(self, m11)
        _set_m12(self, m12)
        _set_m21(self, m21)
        _set_m22(self, m22)
        _set_t1(self, t1)
        _set_t2(self, t2)

    def _key(self) -> tuple:
        return (self.m11, self.m12, self.m21, self.m22, self.t1, self.t2)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @classmethod
    def identity(cls) -> "AffineUnimodularMap":
        return cls(1, 0, 0, 1, 0, 0)

    @classmethod
    def translation(cls, t1: int, t2: int) -> "AffineUnimodularMap":
        return cls(1, 0, 0, 1, t1, t2)

    def apply(self, p: Point) -> Point:
        return (
            self.m11 * p[0] + self.m12 * p[1] + self.t1,
            self.m21 * p[0] + self.m22 * p[1] + self.t2,
        )

    def compose(self, other: "AffineUnimodularMap") -> "AffineUnimodularMap":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        return AffineUnimodularMap(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            self.m11 * other.t1 + self.m12 * other.t2 + self.t1,
            self.m21 * other.t1 + self.m22 * other.t2 + self.t2,
        )

    def inverse(self) -> "AffineUnimodularMap":
        d = self.det
        i11, i12, i21, i22 = d * self.m22, -d * self.m12, -d * self.m21, d * self.m11
        return AffineUnimodularMap(
            i11, i12, i21, i22, -(i11 * self.t1 + i12 * self.t2), -(i21 * self.t1 + i22 * self.t2)
        )


_set_m11, _set_m12, _set_m21, _set_m22, _set_t1, _set_t2 = (
    getattr(AffineUnimodularMap, name).__set__ for name in AffineUnimodularMap.__slots__)


def apply_map(phi: AffineUnimodularMap, delta: LatticePolygon) -> LatticePolygon:
    """Image polygon, re-canonicalized; preserves kind and all lattice counts."""
    return hull([phi.apply(v) for v in delta.vertices])


def complete_to_basis(u: Point) -> Point:
    """A vector w with u[0]*w[1] - u[1]*w[0] == 1, for primitive u; ValueError otherwise.

    For u[1] != 0, w[1] is the inverse of u[0] modulo |u[1]|, which exists
    exactly when u is primitive, and w[0] = (u[0]*w[1] - 1) / u[1]. For
    u[1] == 0, u is primitive only as (+-1, 0), and w is (0, u[0]).
    """
    a, b = u
    if b == 0 and a in (1, -1):
        return (0, a)
    try:
        w1 = pow(a, -1, abs(b))
    except ValueError:
        raise ValueError(f"vector must be primitive: {u!r}") from None
    return ((a * w1 - 1) // b, w1)


def _solve_frame(d1: Point, d2: Point, f1: Point, f2: Point) -> Optional[tuple[int, int, int, int]]:
    """Integer matrix M with M d1 = f1 and M d2 = f2, if one with det +-1 exists."""
    det_d = d1[0] * d2[1] - d1[1] * d2[0]
    if det_d == 0:
        return None
    n11 = f1[0] * d2[1] - f2[0] * d1[1]
    n12 = -f1[0] * d2[0] + f2[0] * d1[0]
    n21 = f1[1] * d2[1] - f2[1] * d1[1]
    n22 = -f1[1] * d2[0] + f2[1] * d1[0]
    if any(n % det_d for n in (n11, n12, n21, n22)):
        return None
    m = (n11 // det_d, n12 // det_d, n21 // det_d, n22 // det_d)
    if m[0] * m[3] - m[1] * m[2] not in (1, -1):
        return None
    return m


def are_equivalent(d1: LatticePolygon, d2: LatticePolygon) -> Optional[AffineUnimodularMap]:
    """A unimodular map sending d1 onto d2 exactly, or None.

    A segment and a two-dimensional polygon are matched by one loop over
    frames: a point of each polygon with two directions there. The frame
    of d1 is matched with each frame of d2 in turn; a pair is accepted only
    if the linear map between the frames is integral with determinant +-1
    and the affine map it induces sends the vertex set of d1 onto that of
    d2. A unimodular map sends vertices to vertices, so that decides
    whether it sends d1 onto d2; no image is re-hulled, and a rejected
    image may leave the coordinate guard. A segment has one frame
    at its first vertex: its primitive direction u, completed to a basis
    (u, u') with det 1, so the linear map always exists and the check
    fails only if the lengths differ.
    A polygon has the edge frame (next, previous edge direction) at its
    first vertex, and d2 a frame at every vertex in both orientations:
    2n pairs.
    """
    if d1.kind != d2.kind:
        return None
    if d1.is_empty:
        return AffineUnimodularMap.identity()
    if d1.is_point:
        p, q = d1.vertices[0], d2.vertices[0]
        return AffineUnimodularMap.translation(q[0] - p[0], q[1] - p[1])
    n = len(d1.vertices)
    if n != len(d2.vertices) or d1.area2 != d2.area2:
        return None

    def edge(vs: tuple[Point, ...], j: int, k: int) -> Point:
        return _primitive((vs[k % n][0] - vs[j][0], vs[k % n][1] - vs[j][1]))

    v0, vs2 = d1.vertices[0], d2.vertices
    if d1.is_segment:
        u1, u2 = edge(d1.vertices, 0, 1), edge(vs2, 0, 1)
        frame, targets = (u1, complete_to_basis(u1)), [(vs2[0], u2, complete_to_basis(u2))]
    else:
        frame = edge(d1.vertices, 0, 1), edge(d1.vertices, 0, -1)
        edges2 = ((w, edge(vs2, j, j + 1), edge(vs2, j, j - 1)) for j, w in enumerate(vs2))
        targets = (t for w, f_next, f_prev in edges2 for t in ((w, f_next, f_prev), (w, f_prev, f_next)))
    for w, g1, g2 in targets:
        m = _solve_frame(*frame, g1, g2)
        if m is None:
            continue
        phi = AffineUnimodularMap(
            m[0], m[1], m[2], m[3],
            w[0] - (m[0] * v0[0] + m[1] * v0[1]),
            w[1] - (m[2] * v0[0] + m[3] * v0[1]),
        )
        if {phi.apply(v) for v in d1.vertices} == set(vs2):
            return phi
    return None


class SpecialShape(NamedTuple):
    """A recognized named shape: kind plus its integer parameters."""

    kind: str  # "standard_triangle" | "upsilon" | "rectangle" | "lawrence_prism"
    params: tuple[int, ...]


def recognize_special(delta: LatticePolygon) -> Optional[SpecialShape]:
    """Detect equivalence with a standard triangle, dilated upsilon triangle,
    unimodular rectangle or Lawrence prism; None otherwise.

    When several families match (the unit square is both a rectangle and a
    width-one prism) the first kind in the order above wins. The invariants
    tested decide equivalence on their own: a triangle with edges d*u, d*w
    (u, w primitive) has area2 = d^2 |det(u, w)|, so area2 = d^2 makes (u, w) a
    lattice basis, and area2 = 3 d^2 with all three edges of length d makes
    delta / d a triangle with three boundary points and, by Pick, one interior
    point, which is upsilon(1) up to equivalence. Opposite edges that are
    antiparallel, of equal lengths and with unimodular directions span a
    parallelogram whose edge frame is a lattice basis, i.e. a rectangle.
    """
    if not delta.is_two_dim:
        raise DegeneratePolygonError("special-shape recognition needs a two-dimensional polygon")
    vs = delta.vertices
    n = len(vs)
    lens = [integral_length(p, q) for p, q in delta.edges()]
    if n == 3 and lens[0] == lens[1] == lens[2]:
        d = lens[0]
        if delta.area2 == d * d:
            return SpecialShape("standard_triangle", (d,))
        if delta.area2 == 3 * d * d:
            return SpecialShape("upsilon", (d,))
    if n == 4:
        prims = [_primitive((q[0] - p[0], q[1] - p[1])) for p, q in delta.edges()]
        opposite = (
            prims[0] == (-prims[2][0], -prims[2][1])
            and prims[1] == (-prims[3][0], -prims[3][1])
            and lens[0] == lens[2]
            and lens[1] == lens[3]
        )
        if opposite and abs(prims[0][0] * prims[1][1] - prims[0][1] * prims[1][0]) == 1:
            a, b = sorted((lens[0], lens[1]))
            return SpecialShape("rectangle", (a, b))
    # A polygon of lattice width one has its vertices on two adjacent lattice
    # lines, at most two on each, so only n <= 4 can be a Lawrence prism.
    if n <= 4:
        for a, b, c in delta.edge_constraints:
            vals = [a * x + b * y for x, y in vs]
            if c - min(vals) == 1:
                top = [v for v in vs if a * v[0] + b * v[1] == c]
                bot = [v for v in vs if a * v[0] + b * v[1] == c - 1]
                len_top = integral_length(top[0], top[1]) if len(top) == 2 else 0
                len_bot = integral_length(bot[0], bot[1]) if len(bot) == 2 else 0
                hi, lo = max(len_top, len_bot), min(len_top, len_bot)
                return SpecialShape("lawrence_prism", (hi, lo))
    return None
