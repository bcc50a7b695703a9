"""Interior hulls and onion-skin peeling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import EmptyPolygonError
from .polygon import (
    EMPTY,
    LatticePolygon,
    Point,
    _column_bounds,
    _cross,
    complete_to_basis,
    hull,
)


def _push(chain: list[Point], p: Point, turn: int) -> None:
    """Append p to a monotone chain, first popping the points p makes redundant.

    ``turn`` is 1 for a lower chain (only left turns survive) and -1 for an
    upper chain (only right turns survive).
    """
    while len(chain) >= 2 and turn * _cross(chain[-2], chain[-1], p) <= 0:
        chain.pop()
    chain.append(p)


def _face_spans(delta: LatticePolygon, edges: list[tuple[Point, int, int]]) -> list[tuple[int, int]]:
    """Sorted x-spans (left, right) of the interior hull's faces on the inward unit shifts of edges.

    ``edges`` holds (p, a, b) for edges a*x + b*y <= c of delta that start at
    p. The lattice points on a*x + b*y = c - 1 that satisfy every other edge
    constraint are the face of the interior hull on that line. They are
    p + w + t*d for the primitive edge direction d = (-b, a) and an integer t
    in a range that one pass over the constraints bounds. Only spans with a
    column strictly inside are kept.
    """
    constraints = delta.edge_constraints
    spans = []
    for p, a, b in edges:
        d = (-b, a)
        w = complete_to_basis(d)  # a*w = -1, so p + w lies on the shifted line
        o = (p[0] + w[0], p[1] + w[1])
        # t*k <= r for each constraint; delta is bounded, so t is bounded on
        # both sides. A parallel opposite edge (k == 0) is left out: if it
        # cuts the line, delta has no interior point to lose.
        bounds = [(a2 * d[0] + b2 * d[1], c2 - 1 - a2 * o[0] - b2 * o[1]) for a2, b2, c2 in constraints]
        t_lo = max(-(r // -k) for k, r in bounds if k < 0)
        t_hi = min(r // k for k, r in bounds if k > 0)
        if (t_hi - t_lo) * abs(b) >= 2:
            spans.append(tuple(sorted((o[0] + t_lo * d[0], o[0] + t_hi * d[0]))))
    return sorted(spans)


def _undecided_columns(delta: LatticePolygon) -> Iterator[int]:
    """The columns of delta that are not strictly inside both a lower and an upper face span.

    Faces come from the lower (b < 0) and upper (b > 0) edges of lattice
    length >= 2; vertical edges cover no column. Edges of length 1 are left
    out: on small polygons, where most edges have length 1, their passes cost
    more than the columns they save. One side's faces are computed only when
    the other side can have one too. Faces of the interior hull on distinct
    lines meet at most in a vertex, so the spans of one side have disjoint
    interiors and one merge pass yields the column ranges strictly inside a
    span of each side, in increasing x.
    """
    vs = delta.vertices
    lower_edges: list[tuple[Point, int, int]] = []
    upper_edges: list[tuple[Point, int, int]] = []
    # q - p = g * (-b, a) for the edge from p to q of lattice length g
    for p, q, (a, b, _) in zip(vs, vs[1:] + vs[:1], delta.edge_constraints):
        if b and (p[0] - q[0]) // b >= 2:
            (lower_edges if b < 0 else upper_edges).append((p, a, b))
    lower = _face_spans(delta, lower_edges) if upper_edges else []
    upper = _face_spans(delta, upper_edges) if lower else []
    xs = [v[0] for v in vs]
    x = min(xs)
    i = j = 0
    while i < len(lower) and j < len(upper):
        left = max(lower[i][0], upper[j][0])
        right = min(lower[i][1], upper[j][1])
        if right - left >= 2:
            yield from range(x, left + 1)
            x = right
        if lower[i][1] < upper[j][1]:
            i += 1
        else:
            j += 1
    yield from range(x, max(xs) + 1)


def _uniform_shift(delta: LatticePolygon) -> Optional[LatticePolygon]:
    """The polygon {a*x + b*y <= c - 1} over the edges of delta, if it has their shape.

    The vertex between two consecutive edges is the intersection of their
    shifted lines. Returns None, within one pass over the edges, as soon as
    a vertex is not integral or an edge does not keep a positive length
    along its own direction.
    """
    cons = delta.edge_constraints
    a0, b0, _ = cons[-1]
    xs: list[int] = []
    ys: list[int] = []
    for (x, y), (a1, b1, _) in zip(delta.vertices, cons):
        # v + (ex, ey) / det solves a0*x + b0*y = c0 - 1 and a1*x + b1*y = c1 - 1
        det = a0 * b1 - b0 * a1
        ex, ey = b0 - b1, a1 - a0
        if ex % det or ey % det:
            return None
        x += ex // det
        y += ey // det
        # the edge from the previous vertex runs along (-b0, a0)
        if xs and a0 * (y - ys[-1]) - b0 * (x - xs[-1]) <= 0:
            return None
        xs.append(x)
        ys.append(y)
        a0, b0 = a1, b1
    if a0 * (ys[0] - ys[-1]) - b0 * (xs[0] - xs[-1]) <= 0:
        return None
    moved = list(zip(xs, ys))
    start = moved.index(min(moved))
    return LatticePolygon(tuple(moved[start:] + moved[:start]))


@lru_cache(maxsize=1 << 15)
def interior_hull(delta: LatticePolygon) -> LatticePolygon:
    """Convex hull of the lattice points strictly inside delta.

    Uniform shift. Let delta have the edges a_i*x + b_i*y <= c_i, in
    counterclockwise order, and let P be the polygon whose vertex w_i is the
    intersection of the lines a*x + b*y = c - 1 of the edges i - 1 and i.
    If every w_i is integral and every w_{i+1} - w_i is a positive multiple
    of the direction (-b_i, a_i) of edge i, then P is the interior hull.
    Proof: the edge vectors of P point along the edge directions of delta,
    which turn counterclockwise once around, so P is a convex polygon whose
    edge i lies on a_i*x + b_i*y = c_i - 1 with P on the inner side; a convex
    polygon is the intersection of its edge half-planes, so
    P = {a_i*x + b_i*y <= c_i - 1 for all i}. With integer coefficients a
    lattice point is strictly inside delta exactly when it satisfies these
    constraints, so the interior lattice points are the lattice points of P.
    They include the vertices w_i and lie in P, so their hull is P. The test
    costs O(edges), and P is returned in canonical form without scanning a
    column. On other input the columns are scanned as follows.

    Only the two ends (x, lo) and (x, hi) of an interior column are looked at:
    every interior lattice point lies on the segment between the ends of its
    column, so the ends have the same convex hull as all interior points. The
    columns come in increasing x, so the lo ends build the lower chain and the
    hi ends the upper chain without sorting.

    Columns strictly inside the x-span of a lower face and of an upper face
    (see _undecided_columns) are skipped. A lower face joins two interior
    points on a line that no interior point lies below, so a column strictly
    between them has its lowest interior point on or above that segment: it
    is no vertex of the hull, unless it is also the column's highest point,
    which the upper face rules out in the same way. The cost is O(edges^2)
    for the faces plus O(edges) per column scanned: O(edges) columns when
    long edges cover the interior, up to every column on slivers that no
    face covers. Degenerate input has no strict interior, so points and
    segments map to the empty polygon.
    """
    if not delta.is_two_dim:
        return EMPTY
    shifted = _uniform_shift(delta)
    if shifted is not None:
        return shifted
    lower: list[Point] = []
    upper: list[Point] = []
    for x in _undecided_columns(delta):
        rng = _column_bounds(delta, x)
        if rng is not None:
            _push(lower, (x, rng[0]), 1)
            _push(upper, (x, rng[1]), -1)
    return hull(lower + upper)


@dataclass(frozen=True)
class OnionTrace:
    """The maximal chain of iterated interior hulls, outermost first."""

    skins: tuple[LatticePolygon, ...]


def onion_skins(delta: LatticePolygon) -> OnionTrace:
    """Peel delta by repeated interior hulls until the interior is empty."""
    if delta.is_empty:
        raise EmptyPolygonError("cannot peel the empty polygon")
    skins = [delta]
    while True:
        nxt = interior_hull(skins[-1])
        if nxt.is_empty:
            return OnionTrace(tuple(skins))
        skins.append(nxt)
