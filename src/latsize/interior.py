"""Interior hulls and onion-skin peeling."""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import EmptyPolygonError
from .polygon import (
    EMPTY,
    LatticePolygon,
    Point,
    _from_chains,
    _push,
    complete_to_basis,
)


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
    """delta's columns between its end columns, except those strictly inside a lower and an upper face span.

    Faces come from the lower (b < 0) and upper (b > 0) edges of lattice
    length >= 2; vertical edges cover no column. Edges of length 1 are left
    out: on small polygons, where most edges have length 1, their passes cost
    more than the columns they save. One side's faces are computed only when
    the other side can have one too. Faces of the interior hull on distinct
    lines meet at most in a vertex, so the spans of one side have disjoint
    interiors and one merge pass yields the column ranges strictly inside a
    span of each side, in increasing x. The two end columns hold only
    boundary points and are left out.
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
    x = vs[0][0] + 1
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
    yield from range(x, max(v[0] for v in vs))


def _uniform_shift(delta: LatticePolygon) -> Optional[tuple[tuple[Point, ...], int]]:
    """(moves, count) if {a*x + b*y <= c - 1} has delta's shape: the moves e_i of its vertices and the run length.

    Vertex i moves to the intersection of the shifted lines of the edges
    i - 1 and i. count is the number of skins in the run of uniform peels
    that starts at delta: 1 + min((L_i - 1) // delta_i) over the edges with
    delta_i > 0, for L_i the lattice length of edge i and delta_i how much
    one move shortens it (see interior_hull). Returns None, within one pass
    over the edges, as soon as a move is not integral or an edge does not
    keep a positive length (L_i <= delta_i). The pass walks the closed
    boundary v_0, ..., v_{n-1}, v_0, so it takes the closing edge like the
    others, at the move of its end vertex.
    """
    vs, cons = delta.vertices, delta.edge_constraints
    a0, b0, _ = cons[-1]
    moves: list[Point] = []
    least = None
    for (x, y), (a1, b1, _) in zip(vs + vs[:1], cons + cons[:1]):
        # (ex, ey) / det solves a0*x + b0*y = -1 and a1*x + b1*y = -1
        det = a0 * b1 - b0 * a1
        ex, ey = b0 - b1, a1 - a0
        if ex % det or ey % det:
            return None
        ex //= det
        ey //= det
        if moves:
            # the edge from the previous vertex, L * (-b0, a0), and its fall under the moves
            if b0:
                length, fall = (px - x) // b0, (ex - pex) // b0
            else:
                length, fall = (y - py) // a0, (pey - ey) // a0
            if length <= fall:
                return None
            if fall > 0 and (least is None or (length - 1) // fall < least):
                least = (length - 1) // fall
        moves.append((ex, ey))
        px, py, pex, pey = x, y, ex, ey
        a0, b0 = a1, b1
    moves.pop()
    return tuple(moves), 1 + least


def _moved(delta: LatticePolygon, shift: tuple[Point, ...], t: int) -> LatticePolygon:
    """Skin t of the run that starts at delta: every vertex moved t times by its shift.

    By the run lemma (see interior_hull) the skin has the edge constraints
    (a, b, c - t) of delta's (a, b, c), edge for edge, so they are seeded
    into its cache rather than computed again.
    """
    if not t:
        return delta
    skin = LatticePolygon(tuple((x + t * dx, y + t * dy) for (x, y), (dx, dy) in zip(delta.vertices, shift)))
    skin.__dict__["edge_constraints"] = tuple((a, b, c - t) for a, b, c in delta.edge_constraints)
    return skin


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
    column (its start vertex stays the canonical one, see Runs).

    Runs. Write w_i = v_i + e_i for the vertices v_i of delta. The move e_i
    solves a*x + b*y = -1 for the edges i - 1 and i, so it depends on the
    edge normals alone. Both e_i and e_{i+1} lie on the line
    a_i*x + b_i*y = -1, so e_i - e_{i+1} = delta_i * d_i for the primitive
    direction d_i = (-b_i, a_i) and an integer delta_i. Let L_i be the
    lattice length of edge i and P_t the polygon with vertices v_i + t*e_i,
    so that edge i of P_t is (L_i - t*delta_i) * d_i; the uniform-shift
    test is L_i > delta_i for every i.
    Lemma: if every e_i is integral, then P_{t+1} is the interior hull of
    P_t for every t < m, m = min over the edges with delta_i > 0 of
    floor((L_i - 1) / delta_i); the peel of P_m is not uniform. So a run
    of uniform peels that starts at delta has the m + 1 skins P_0, ..., P_m.
    Proof: by induction on t, P_t has the edge normals of delta and
    positive edge lengths, so P_t has the constraints
    a_i*x + b_i*y <= c_i - t and its uniform shift moves vertex i by the
    same e_i. That shift is integral,
    and its edge i has length L_i - (t + 1)*delta_i, which is positive for
    every i exactly when t + 1 <= m; by the uniform-shift argument above
    P_{t+1} is then the interior hull of P_t, and for t = m some edge would
    not keep a positive length, so the peel of P_m is not uniform. An edge
    with delta_i <= 0 never shortens and bounds nothing. Some delta_i is
    positive: each peel loses the boundary points of its skin, so the
    lattice-point counts of P_0, P_1, ... fall strictly and the chain ends.
    The canonical start vertex (lexicographically least) is the one whose
    normal cone holds the direction (-1, -epsilon); the P_t share their
    normal fan, so vertex i of P_t is v_i + t*e_i in canonical order, and
    skin t of the run costs O(edges) to write down, whatever t is. This is
    what onion_skins, and through it the recursions, use: one O(edges)
    step per run of uniform peels, with the uniform-shift test on its first
    skin and the column scan on its last, whose peel the lemma shows is not
    uniform, so no skin is tested twice. The test (_uniform_shift) takes
    every L_i and delta_i in its one pass over the edges, so it gives m as
    well as the moves; interior_hull reads only the moves.

    On other input the interior hull comes from the column scan
    (_column_hull): one pass over the columns that the faces on long edges
    leave undecided, with O(1) amortised per column, and the hull read off
    its two chains. Degenerate input has no strict interior, so points and
    segments map to the empty polygon.
    """
    if not delta.is_two_dim:
        return EMPTY
    uniform = _uniform_shift(delta)
    if uniform is not None:
        return _moved(delta, uniform[0], 1)
    return _column_hull(delta)


def _column_hull(delta: LatticePolygon) -> LatticePolygon:
    """The interior hull of a two-dimensional delta by a scan of its columns, with no uniform-shift test.

    Only the two ends (x, lo) and (x, hi) of an interior column are looked
    at: every interior lattice point lies on the segment between the ends of
    its column, so the ends have the same convex hull as all interior
    points. The interior of column x is the integers strictly between the
    lower and upper boundary of delta over x: lo = floor(L(x)) + 1 and
    hi = ceil(U(x)) - 1, by integer division on the boundary edge that spans
    x. The lower boundary is the chain vs[0], vs[1], ... up to the lowest
    vertex of the rightmost column, the upper one vs[0], vs[n - 1], ... up
    to its highest vertex; the columns come in increasing x, so one pointer
    per chain finds the spanning edges in a single pass. The two end
    columns hold only boundary points and are not scanned.

    Columns strictly inside the x-span of a lower face and of an upper face
    (see _undecided_columns) are skipped. A lower face joins two interior
    points on a line that no interior point lies below, so a column strictly
    between them has its lowest interior point on or above that segment: it
    is no vertex of the hull, unless it is also the column's highest point,
    which the upper face rules out in the same way. The cost is O(edges^2)
    for the faces plus O(1) amortised per column scanned: O(edges) columns
    when long edges cover the interior, up to every column on slivers that
    no face covers.

    The lo ends build a strictly convex lower chain and the hi ends a
    strictly concave upper chain, by polygon._push as in hull, and
    polygon._from_chains gives the hull read off its two chains. The
    columns come in increasing x, so the scan sorts nothing and does not
    call hull().
    """
    vs = delta.vertices
    lower: list[Point] = []
    upper: list[Point] = []
    # the lower edge (x0, y0) -> (x1, y1) is vs[i] -> vs[i + 1], the upper
    # edge (u0, v0) -> (u1, v1) is vs[-j] -> vs[-j - 1]
    i = j = 0
    (x0, y0), (x1, y1) = vs[0], vs[1]
    (u0, v0), (u1, v1) = vs[0], vs[-1]
    for x in _undecided_columns(delta):
        while x1 < x:
            i += 1
            x0, y0 = x1, y1
            x1, y1 = vs[i + 1]
        while u1 < x:
            j += 1
            u0, v0 = u1, v1
            u1, v1 = vs[-j - 1]
        lo = y0 + (y1 - y0) * (x - x0) // (x1 - x0) + 1
        hi = v0 - (v0 - v1) * (x - u0) // (u1 - u0) - 1
        if lo <= hi:
            _push(lower, (x, lo), 1)
            _push(upper, (x, hi), -1)
    return _from_chains(lower, upper)


# A run of onion skins: (skin, shift, count), see OnionTrace.
_Run = tuple[LatticePolygon, tuple[Point, ...], int]


class OnionTrace(NamedTuple):
    """The maximal chain of iterated interior hulls, outermost first, in runs.

    A run (skin, shift, count) stands for the count skins
    skin + t * shift, t = 0, ..., count - 1, where vertex i of skin moves by
    shift[i] per skin and each skin is the interior hull of the one before
    (see interior_hull). A skin whose peel is not uniform is a run of count
    1 with shift (). A chain of s skins in r runs is held in O(r) polygons.
    """

    runs: tuple[_Run, ...]

    @property
    def skins(self) -> tuple[LatticePolygon, ...]:
        """The per-skin form, outermost first; for tests and oracles, as it costs O(skins)."""
        return tuple(_moved(skin, shift, t) for skin, shift, count in self.runs for t in range(count))


def onion_skins(delta: LatticePolygon) -> OnionTrace:
    """Peel delta by repeated interior hulls until the interior is empty, one run at a time.

    A skin whose peel is uniform starts a run of count = 1 + m skins, with m
    the minimum of floor((L_i - 1) / delta_i) over the edges with
    delta_i > 0 (see interior_hull); edges with delta_i <= 0 never vanish.
    Each two-dimensional run costs one uniform-shift test (_uniform_shift),
    on its first skin, which gives the moves and count in one walk of its
    edges, plus one column scan (_column_hull) on the last skin of the run,
    whose peel the run lemma shows is not uniform, so it is not tested
    again. A skin whose peel is not uniform is a run of its own, count 1
    with no moves, and so its own last skin. A point or segment is the last
    skin, in a run of its own.
    """
    if delta.is_empty:
        raise EmptyPolygonError("cannot peel the empty polygon")
    runs: list[_Run] = []
    skin = delta
    while skin.is_two_dim:
        shift, count = _uniform_shift(skin) or ((), 1)
        runs.append((skin, shift, count))
        skin = _column_hull(_moved(skin, shift, count - 1))
    if not skin.is_empty:
        runs.append((skin, (), 1))
    return OnionTrace(tuple(runs))
