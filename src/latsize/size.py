"""The peeling recursions, and the lattice sizes with respect to Sigma and the square.

The paper reads the lattice width, the lattice size with respect to the
standard triangle Sigma and that with respect to the unit square from one
recursion over one chain of interior hulls. So does this module: one walk,
_size_value, takes the onion skins of a polygon in runs of uniform peels
(see onion_skins) for any of the three shapes, and computes only the rule
data the shape reads. lattice_width_recursive is its width shape.

The recursion starts from the innermost skin, whose interior hull is empty:
a point, a segment, 2*Sigma or a polygon of lattice width one, each with a
closed-form value. Every outer skin takes the first of three rules that
fires: the rectangle rule (Sigma only, a + b for [0,a] x [0,b]), then the
parallel-edge rule (sizes only: an edge of length r facing a face of length
s = inner value with r - s >= 3 gives r), then the generic step (inner
value plus three for Sigma and two for the square; for the width three on
a standard triangle d*Sigma and two elsewhere, after Castryck and Cools).
No value is found by search.

Every rule is affine in the step along a run, so one rule function, _step,
takes a segment of n skins in O(1): the body of a run (all its skins but the
last, which peel uniformly) and the last skin of a run (n = 1) alike, and
its trace has one Step per segment, not per skin. Each segment of a size
takes its parallel-edge hit from one lookup of the edge normals of the skin
after its first (parallel_edge_exception); the width looks up none.

Each size comes by three independent routes:

- Value and witness, from the basis. lattice_size_sigma and
  lattice_size_square read both off the Gauss-reduced basis of the width
  norm (_basis_map), without search and without peeling, and _checked_map
  checks them in O(n) when they are built: the Sigma witness maps the
  polygon into value * Sigma and touches its far side, and no neighbouring
  frame of it reaches less (a lower bound tested, not proved); the square
  witness maps the polygon onto the minimal box [0, width] x [0, value]
  exactly, which lies in value * square and touches its far side. The
  square value is least as the second successive minimum of the checked
  basis. The checked square value and witness are kept on the polygon
  (_checked_square), and minimal_box reads the same entry, so each polygon
  builds and checks its square witness once.
- Trace, from the recursion. Reading a certificate's trace runs _size_value,
  whose contributions telescope from the empty-hull convention (-2 for the
  triangle, -1 for the square; 0 for the width) to its value, and fails
  unless that value is the basis's. Only --trace, --verify and the tests
  read it.
- Oracle, from the search. fit_into, the exact feasibility search, is the
  oracle only, and the only code that lists the lattice points of the width
  body {u : width(u) <= b}; no certificate calls it. It reads the reduced
  basis too, but only as its frame and for the bound on the rows of the
  body; the search, not the basis, picks the rows.

The lattice width and its optimal directions come from the same basis (see
width.lattice_width), which each polygon keeps once reduced and checked
(width._checked_basis). The width, each witness build and the oracle's
frame read it once each; the box reads no basis, but the checked square
entry, which keeps the width beside the square value and witness. So the
width, both sizes, their witnesses, the box and the oracle's frame share
one reduction and one check per polygon, and the square size and the box
one checked witness. The entry holds no skins, so no default width, size
or box call peels. The chain is not kept: each trace, --verify run and
width recursion peels anew. No module keeps a cache; what is derived from
a polygon is kept on it (see polygon.LatticePolygon).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Union

from .errors import EmptyPolygonError, InternalConsistencyError
# at module level, though the default sizes peel nothing: see the cli docstring
from .interior import _moved, onion_skins
from .polygon import (
    AffineUnimodularMap,
    LatticePolygon,
    Point,
    SpecialShape,
    integral_length,
    recognize_special,
)
from .width import _checked_basis, _min_convex, _pair_extremes

SIGMA = "sigma"
SQUARE = "square"
BOX = "box"
WIDTH = "width"

_BASE = {SIGMA: -2, SQUARE: -1, WIDTH: 0}
_STEP = {SIGMA: 3, SQUARE: 2, WIDTH: 2}

RULE_GENERIC = "GenericStep"
RULE_PRISM = "LawrencePrism"
RULE_TWO_SIGMA = "TwoSigma"
# No rule emits RULE_TABLE; the benchmark reports a count for every RULE_* tag.
RULE_TABLE = "SmallTriangleTable"
RULE_RECTANGLE = "RectangleAB"
RULE_PARALLEL = "ParallelEdge"
RULE_SEARCH = "DegenerateBaseSearch"


class SizeCertificate(NamedTuple):
    """A lattice size with its witness map and the polygon it sizes.

    value and witness come from the reduced basis (_basis_map), checked by
    _checked_map. The rule trace is not stored: reading trace peels polygon
    and runs the size recursion, and raises InternalConsistencyError unless
    the recursion's value equals value. The oracle (oracle_size) is the
    third route, which sigma and square --verify add.
    """

    shape: str
    value: int
    witness: AffineUnimodularMap
    polygon: LatticePolygon

    @property
    def trace(self) -> tuple[Step, ...]:
        value, trace = _size_value(self.polygon, self.shape)
        if value != self.value:
            raise InternalConsistencyError(
                f"the reduced basis gives {self.shape} size {self.value}, but the recursion gives {value}"
            )
        return trace


class BoxCertificate(NamedTuple):
    """The product-order minimal box (lattice width, square lattice size)."""

    a: int
    b: int
    witness: AffineUnimodularMap


class ParallelEdgeHit(NamedTuple):
    """An edge of the polygon facing a face of its interior hull at unit distance."""

    r: int
    s: int
    tau: tuple[Point, Point]
    tau_prime: tuple[Point, ...]


def parallel_edge_exception(
    delta: LatticePolygon, gamma: LatticePolygon, threshold: int
) -> Optional[ParallelEdgeHit]:
    """Scan the edges of delta for the parallel-edge exception against gamma, its interior hull.

    For every edge of delta, the face of gamma on the inward unit shift of its
    supporting line is located (an edge, a single vertex of length zero, or
    nothing). Among the pairs with r - s >= threshold the first one maximizing
    r - s is returned, where r and s are the integral lengths of the edge and
    of the face. A one-dimensional gamma counts as an edge of itself.

    The caller passes the interior hull, as _size_value does by construction:
    the first skin of the next run at a run's end, the skin one shift on
    (interior._moved) on a run's body. That is not checked, which would peel
    delta again; only an empty gamma, which has no face, raises ValueError.

    A face of positive length on the line a*x + b*y = c - 1 is the edge of
    gamma with the outward normal (a, b), so it is found by a dict lookup on
    gamma's edge normals. Only an edge of delta that could still win and
    whose normal gamma lacks needs a pass over gamma's vertices, to find a
    vertex on the line; a point or segment gamma has no edge normals, so its
    vertices are always scanned. That costs O(n + m) for n edges of delta
    and m of gamma, plus O(m) per such edge, against O(n * m) for a pass per
    edge.
    """
    if gamma.is_empty:
        raise ValueError("gamma must be the non-empty interior hull of delta")
    gvs = gamma.vertices
    m = len(gvs)
    faces: Optional[dict[tuple[int, int], tuple[int, int]]] = None
    best: Optional[ParallelEdgeHit] = None
    for (p, q), (a, b, c) in zip(delta.edges(), delta.edge_constraints):
        r = integral_length(p, q)
        # s >= 0, so r bounds r - s
        if r < threshold or (best is not None and r <= best.r - best.s):
            continue
        if faces is None:
            # outward normal -> (c, index of the edge's first vertex)
            faces = {(a2, b2): (c2, j) for j, (a2, b2, c2) in enumerate(gamma.edge_constraints)}
        face = faces.get((a, b))
        if face is not None:
            if face[0] != c - 1:
                continue
            j = face[1]
            # the face's vertices in gamma's order, as a filter of gvs gives them
            tau_prime = (gvs[j], gvs[j + 1]) if j + 1 < m else (gvs[0], gvs[j])
            s = integral_length(*tau_prime)
        else:
            vals = [a * x + b * y for x, y in gvs]
            if max(vals) != c - 1:
                continue
            tau_prime = tuple(v for v, t in zip(gvs, vals) if t == c - 1)
            s = integral_length(*tau_prime) if len(tau_prime) == 2 else 0
        if r - s >= threshold and (best is None or r - s > best.r - best.s):
            best = ParallelEdgeHit(r, s, (p, q), tau_prime)
    return best


class Step(NamedTuple):
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


def lattice_width_recursive(delta: LatticePolygon) -> tuple[int, tuple[Step, ...]]:
    """Lattice width and rule trace by interior-hull peeling: the width shape of _size_value."""
    if delta.is_empty:
        raise EmptyPolygonError("lattice_width_recursive needs a non-empty polygon")
    return _size_value(delta, WIDTH)


def _size_value(delta: LatticePolygon, shape: str) -> tuple[int, tuple[Step, ...]]:
    """Value and rule trace from the onion skins of delta, innermost skin first, one segment at a time.

    The runs of onion_skins(delta) are taken inside out. The last skin of
    the last run, the innermost, gives the start value (_innermost_step).
    Every other run is up to two segments for _step, taken inside out: its
    last skin, with its parallel-edge hit on gamma, the first skin of the
    run inside it; then its body, the count - 1 skins before the last
    (count > 1 only), with the hit of its first skin on its second. For
    Sigma and the width, a run with a segment is recognized at its start,
    whose shape every skin of the run shares (see _step): for Sigma a
    rectangle takes the rectangle rule; for the width a standard triangle
    makes the generic fall 3, as the width of d*Sigma is that of its
    interior hull (d-3)*Sigma plus 3, where every other polygon with a
    non-empty interior hull adds 2 (Castryck and Cools). The width reads no
    parallel-edge hit and no rectangle, so each of its segments is a
    generic step.
    """
    if delta.is_empty:
        return _BASE[shape], ()
    runs = onion_skins(delta).runs
    skin, shift, count = runs[-1]
    end = _moved(skin, shift, count - 1)
    value, step = _innermost_step(end, recognize_special(end) if end.is_two_dim else None, shape)
    trace = [step]
    gamma = None
    for skin, shift, count in reversed(runs):
        special = recognize_special(skin) if shape != SQUARE and (gamma is not None or count > 1) else None
        kind = special and special.kind
        rectangle = special.params if shape == SIGMA and kind == "rectangle" else None
        fall = 3 if shape == WIDTH and kind == "standard_triangle" else _STEP[shape]
        if gamma is not None:
            end = _moved(skin, shift, count - 1)
            last = (end, (), 1, rectangle and tuple(p - 2 * (count - 1) for p in rectangle),
                    parallel_edge_exception(end, gamma, 3) if shape != WIDTH else None)
            value, step = _step(last, value, fall)
            trace.append(step)
        gamma = skin
        if count > 1:
            hit = parallel_edge_exception(skin, _moved(skin, shift, 1), 3) if shape != WIDTH else None
            value, step = _step((skin, shift, count - 1, rectangle, hit), value, fall)
            inner = trace[-1]
            if (inner.rule, inner.contribution, inner.params) == (step.rule, step.contribution,
                                                                   _params_at(step, step.count)):
                # the skin just inside continues the run: one entry for both
                trace[-1] = step._replace(count=step.count + 1)
            else:
                trace.append(step)
    return value, tuple(trace)


def _params_at(step: Step, t: int) -> tuple[int, ...]:
    """The params of skin t of a run step: edge lengths, falling linearly along the run."""
    fall = 2 if step.rule == RULE_RECTANGLE else step.contribution
    return tuple(p - t * fall for p in step.params)


def _innermost_step(
    delta: LatticePolygon, special: Optional[SpecialShape], shape: str
) -> tuple[int, Step]:
    """Value of a non-empty polygon whose interior hull is empty, given recognize_special(delta).

    A point or a segment of lattice length r (0 for a point) has the
    sizes r and the width 0. The two-dimensional ones are 2*Sigma, of
    every value 2, and the polygons of lattice width one: Sigma, the
    rectangles [0,1] x [0,b] and the Lawrence prisms, whose sizes the
    table below gives and whose width is 1. The rectangle [0,1] x [0,b]
    has the Sigma size 1 + b (the rectangle rule) and the square size of
    the prism (b, b). A prism (a, b) has the sizes a: no prism has a = b,
    as a width-one polygon with equal parallel edges is a rectangle, which
    recognize_special names first. The contribution is the value less the
    empty-hull convention _BASE[shape], so a trace's contributions sum to
    the value less that convention.
    """
    base = _BASE[shape]
    if not delta.is_two_dim:
        value = 0 if shape == WIDTH else integral_length(delta.vertices[0], delta.vertices[-1])
        return value, Step(delta, RULE_SEARCH, value - base)
    # Interior-free polygons: width-one prisms (in several disguises) and
    # the twice-dilated standard triangle.
    if special is not None:
        kind, params = special
        if kind == "standard_triangle" and params[0] == 2:
            return 2, Step(delta, RULE_TWO_SIGMA, 2 - base)
        if shape == WIDTH or (kind == "standard_triangle" and params[0] == 1):
            return 1, Step(delta, RULE_GENERIC, 1 - base)
        if kind == "rectangle" and shape == SIGMA:
            a, b = params
            return a + b, Step(delta, RULE_RECTANGLE, a + b - base, (a, b))
        if kind in ("rectangle", "lawrence_prism"):
            a, b = params if kind == "lawrence_prism" else (params[1], params[1])
            if shape == SQUARE and a < 2:
                return 1, Step(delta, RULE_GENERIC, 1 - base)
            return a, Step(delta, RULE_PRISM, a - base, (a, b))
    raise InternalConsistencyError(
        f"no rule names the interior-free polygon {list(delta.vertices)}, "
        "which must be 2*Sigma or of lattice width one"
    )


def _step(segment: tuple, inner_value: int, fall: int) -> tuple[int, Step]:
    """Value of a segment (skin, shift, n, rectangle, hit) from inner_value, that of the skin inside it.

    The segment is the n skins skin + t * shift, t = 0..n-1. rectangle is
    (a, b) if skin is the rectangle [0,a] x [0,b] and the shape is Sigma,
    hit its parallel-edge hit with r - s >= 3, if any and if the shape reads
    hits (the sizes do, the width does not), and fall the generic step of
    the segment: 3 for Sigma and for the width of a standard triangle, 2
    otherwise. The first rule that fires decides: the rectangle rule, then
    the parallel-edge rule, then the generic step. It decides on every skin
    of the segment alike. The skins of a run share edge normals, so if skin
    is a rectangle or a standard triangle, so is every skin of the segment
    (a unimodular [0,a] x [0,b] peels to [1,a-1] x [1,b-1], d*Sigma to
    (d-3)*Sigma); and each edge's r - s is the same on every skin, so the
    same edge wins on every skin or on none. A point or segment inner skin
    goes through the same rules as a two-dimensional one.
    Each rule is affine in t: the rectangle (a - 2t) + (b - 2t) falls by 4
    per skin, the parallel-edge value r - t * (r - s) by r - s, the generic
    step by fall. So the value of skin n, just inside the segment, must be
    inner_value, as the per-skin check s == inner value demands; no other
    skin needs a check, since there the fall is exact.
    """
    skin, shift, n, rectangle, hit = segment
    if rectangle is not None:
        a, b = rectangle
        rule, value, fall, params = RULE_RECTANGLE, a + b, 4, (a, b)
    elif hit is not None:
        rule, value, fall, params = RULE_PARALLEL, hit.r, hit.r - hit.s, (hit.r, hit.s)
    else:
        rule, value, params = RULE_GENERIC, inner_value + n * fall, ()
    if value - n * fall != inner_value:
        raise InternalConsistencyError(
            f"{rule} over {n} skins falls to {value - n * fall}, not to the inner value {inner_value}"
        )
    return value, Step(skin, rule, fall, params, n, shift)


def fit_into(
    delta: LatticePolygon, shape: str, size: Union[int, tuple[int, int]]
) -> Optional[AffineUnimodularMap]:
    """Exact feasibility test: a unimodular map embedding delta into the target.

    Targets: ``size * standard triangle`` ("sigma"), ``size * unit square``
    ("square") or the box [0,a] x [0,b] ("box", size = (a, b) with a <= b).
    Returns the witness of the first pair in order that fits, in the
    deterministic order (|u1|^2, u1, |u2|^2, u2) over candidate functional
    rows in the frame of the reduced basis; None if the embedding is
    infeasible. A pair (u1, u2) is a basis, det = +-1. It fits sigma
    (d = size) if its reach max(u1 + u2) - min u1 - min u2 is at most d,
    and the square or the box if u1 has width at most a (u2 has width at
    most b, as every candidate). All three shapes translate by
    (-min u1, -min u2) over the vertices.

    A row of a witness has width at most b, the larger side of the target,
    so the candidate rows are the primitive lattice points of the width
    body {u : f(u) <= b}, f the width norm. They are listed row by row in
    the frame of the reduced basis (short, long, w) of width._checked_basis,
    as u = y * long + x * short with y >= 0, and each is taken with -u:

    - Row y = 0 holds +-short only.
    - Rows y >= 1 hold points only up to y = 2b / (2 * f(long) - w), since
      f(y * long + x * short) = y * f(long + (x / y) * short)
      >= y * (f(long) - w / 2), as the lattice_width docstring shows.
    - Along a row f is convex in x, so the row's points form an interval.
      width._min_convex finds its argmin on the row's dot lists, y times
      the dots of long and those of short, starting from
      f(y * long) = y * f(long). The interval is walked outward from there
      while f <= b, keeping the x with gcd(x, y) = 1. The walk keeps the
      dots and the width it computed for each point it keeps, so the pairs
      read them and nothing is computed twice.

    That bound needs only w <= f(long) <= f(long +- short), by convexity
    along the line long + t * short, and width._checked_basis raises
    InternalConsistencyError on a basis that breaks them, before it keeps
    it, rather than let a row drop. The basis thus gives the frame and the
    row bound, while the search over the width body, not the basis, picks
    the rows, so "recursion == oracle" still compares two routes.

    This is the oracle, the feasibility core of oracle_size and oracle_box;
    no certificate calls it. The pairs of candidates cost up to the square
    of their number, so it is meant for small inputs.
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

    if shape == SIGMA and delta.area2 > a_cap * a_cap:
        return None
    if shape in (SQUARE, BOX) and delta.area2 > 2 * a_cap * b_cap:
        return None

    short, long, w, (_, f_long, _), dots_short, dots_long = _checked_basis(delta)
    if w == 0:
        # a point or a segment: long runs along it with width f_long, its
        # lattice length, and short is constant on it
        if f_long <= a_cap:
            return AffineUnimodularMap(*long, *short, -min(dots_long), -min(dots_short))
        if shape == BOX and f_long <= b_cap:
            return AffineUnimodularMap(*short, *long, -min(dots_short), -min(dots_long))
        return None

    # The rows (long, short) of the reduced basis become coordinates: the
    # functional y * long + x * short takes the values y * p + x * q on the
    # pairs (p, q) of verts, the images of the vertices under psi, which
    # are the dot lists of long and short that the memo entry keeps.
    psi = AffineUnimodularMap(long[0], long[1], short[0], short[1], 0, 0)
    verts = list(zip(dots_long, dots_short))

    def row(y: int, x: int) -> tuple[tuple[int, int], tuple[int, ...], int]:
        dots = tuple(y * p + x * q for p, q in verts)
        return (y, x), dots, max(dots) - min(dots)

    # each candidate is (u, the dots of u on verts, its width), and -u with them negated
    cands = [row(0, 1)] if w <= b_cap else []
    for y in range(1, 2 * b_cap // (2 * f_long - w) + 1):
        x0 = _min_convex([y * p for p in dots_long], dots_short, {0: y * f_long})[0]
        for x, step in ((x0, 1), (x0 - 1, -1)):
            while (c := row(y, x))[2] <= b_cap:
                if math.gcd(x, y) == 1:
                    cands.append(c)
                x += step
    cands += [((-y, -x), tuple(-t for t in dots), f_u) for (y, x), dots, f_u in cands]
    cands.sort(key=lambda c: (c[0][0] * c[0][0] + c[0][1] * c[0][1], c[0][0], c[0][1]))

    # every candidate has width at most b, so only u1 of a square or box pair is tested
    for u1, dots1, w1 in cands:
        if shape != SIGMA and w1 > a_cap:
            continue
        for u2, dots2, _ in cands:
            if u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
                continue
            if shape == SIGMA and max(s + t for s, t in zip(dots1, dots2)) - min(dots1) - min(dots2) > a_cap:
                continue
            phi = AffineUnimodularMap(u1[0], u1[1], u2[0], u2[1], -min(dots1), -min(dots2))
            return phi.compose(psi)
    return None


# The sign choices (s1, s2) of the Sigma witness rows (s1 * short, s2 * long),
# in the order in which _basis_map tries them.
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _frame_extremes(vertices: Sequence[Point], m11: int, m12: int, m21: int, m22: int,
                    t1: int, t2: int) -> tuple[int, ...]:
    """The least and largest of x, y, x + y, x - y, x + 2y and 2x + y over the images of the vertices.

    Each vertex (p, q) maps to (x, y) = (m11 * p + m12 * q + t1,
    m21 * p + m22 * q + t2). The twelve extremes come in that order, least
    first, from one pass over the non-empty vertices that starts from the
    first one, with no list built: the Sigma and square checks
    (_checked_map) read all they need off one call.
    """
    p, q = vertices[0]
    lo_x, lo_y = hi_x, hi_y = m11 * p + m12 * q + t1, m21 * p + m22 * q + t2
    lo_s, lo_d = hi_s, hi_d = lo_x + lo_y, lo_x - lo_y
    lo_sy, lo_sx = hi_sy, hi_sx = lo_s + lo_y, lo_s + lo_x
    for p, q in vertices[1:]:
        x, y = m11 * p + m12 * q + t1, m21 * p + m22 * q + t2
        if x < lo_x: lo_x = x
        elif x > hi_x: hi_x = x
        if y < lo_y: lo_y = y
        elif y > hi_y: hi_y = y
        s, d = x + y, x - y
        if s < lo_s: lo_s = s
        elif s > hi_s: hi_s = s
        if d < lo_d: lo_d = d
        elif d > hi_d: hi_d = d
        sy, sx = s + y, s + x
        if sy < lo_sy: lo_sy = sy
        elif sy > hi_sy: hi_sy = sy
        if sx < lo_sx: lo_sx = sx
        elif sx > hi_sx: hi_sx = sx
    return lo_x, hi_x, lo_y, hi_y, lo_s, hi_s, lo_d, hi_d, lo_sy, hi_sy, lo_sx, hi_sx


def _basis_map(delta: LatticePolygon, shape: str) -> tuple[int, int, AffineUnimodularMap]:
    """(w, reach, witness): the width, the reach for the target shape and its map, off the checked width basis.

    This is the basis route to every size: lattice_size_sigma takes its
    value and witness from it through _checked_map, and lattice_size_square
    and minimal_box through the checked square entry that _checked_square
    keeps on the polygon, so the square witness is built once per polygon.
    The other two routes, the recursion (a certificate's trace) and the
    oracle (fit_into), do not call it.

    The rows (short, long) of the checked basis map delta into the minimal
    box [0, width] x [0, b] (see minimal_box), which lies in b * square: so
    the square reach is b = width(long), the second successive minimum of
    the width norm (Kaib and Schnorr) and so the square size, which the
    memo entry holds, with that witness. For the triangle, the rows
    (u1, u2) map delta into reach * Sigma with
    reach = max((u1 + u2) . p) - min(u1 . p) - min(u2 . p); one of the four
    sign choices (+-short, +-long) attains the lattice size with respect to
    Sigma (Harrison and Soprunov, lattice size by generalized basis
    reduction in dimensions two and three). Points and segments are covered
    too: their reduced widths are (0, 0) and (0, length). The empty polygon
    reaches the empty-hull convention (-2 or -1) with the identity, and has
    width -1, as in lattice_width. The width w is read off the same checked
    entry, so the square check and the box take it from here and read the
    basis no second time.

    The dot lists of short and long are read off the memo entry, which the
    reduction moved with its rows, so the vertices are not projected again;
    the four sign choices read their reaches off the extremes of the two
    lists and of their sums and differences, into one tuple in the order of
    _SIGNS, and the first least reach wins (reaches.index(min(reaches))).
    All eight extremes come from one call of width._pair_extremes over the
    pairs of the two lists, the sweep that also starts the reduction.
    """
    if delta.is_empty:
        return -1, _BASE[shape], AffineUnimodularMap.identity()
    short, long, w, (_, b, _), dots1, dots2 = _checked_basis(delta)
    if shape == SQUARE:
        return w, b, AffineUnimodularMap(*short, *long, -min(dots1), -min(dots2))
    lo1, hi1, lo2, hi2, lo_diff, hi_diff, lo_sum, hi_sum = _pair_extremes(zip(dots1, dots2))
    # the reaches of (s1 * short, s2 * long), (s1, s2) in the order of _SIGNS
    reaches = (hi_sum - lo1 - lo2, hi_diff - lo1 + hi2, hi1 - lo_diff - lo2, hi1 + hi2 - lo_sum)
    reach = min(reaches)
    s1, s2 = _SIGNS[reaches.index(reach)]
    t1, t2 = (-lo1, hi1)[s1 < 0], (-lo2, hi2)[s2 < 0]
    return w, reach, AffineUnimodularMap(s1 * short[0], s1 * short[1], s2 * long[0], s2 * long[1], t1, t2)


def _checked_map(delta: LatticePolygon, shape: str) -> tuple[int, int, AffineUnimodularMap]:
    """_basis_map(delta, shape), checked in O(n) without peeling, or InternalConsistencyError.

    The witness must reach the value. It maps each vertex p to a point
    (x, y), recomputed here from the map's six fields and the vertices, not
    read off the basis entry, in the one pass of _frame_extremes. For the
    square the witness is checked as the minimal box: the x range must be
    exactly [0, w], w the width that _basis_map read off the checked basis
    in the same call, and the y range exactly [0, value]. As w <= value,
    that implies the square check (least coordinate 0, largest the value),
    and it also stops a witness with its rows swapped or a translation off
    by one that still maps into value * square. For Sigma, the least x and the least y must be 0 and
    the largest x + y the value. The empty polygon must have the empty-hull
    convention.

    The value must be least. A square value needs no more: _basis_map reads
    it as f(long) off the checked basis, and the check
    w <= f(long) <= f(long +- short) of width._checked_basis makes f(long)
    the second successive minimum of the width norm; the rows of a map into
    b * square are a basis of widths at most b, so no b below f(long) fits.

    For Sigma, write a frame as (u1, u2, u3) with u1 + u2 + u3 = 0 and
    (u1, u2) a lattice basis, and m(u) = min u . p, M(u) = max u . p over
    the vertices. The map p -> (u1 . p - m(u1), u2 . p - m(u2)) takes delta
    into reach * Sigma, reach = -(m(u1) + m(u2) + m(u3)), so every frame's
    reach bounds the Sigma size from above, and the size is the least reach.
    The witness rows give the frame (u1, u2, -u1 - u2) of reach value. No
    frame one of 13 moves away may reach less: the twelve u_i += k * u_j,
    u_l -= k * u_j for k = +-1 and {i, j, l} = {1, 2, 3}, and the negation
    u -> -u. As u_i + u_j = -u_l, the moves (i, j, -1) and (l, j, 1) give
    the same frame, (u_i - u_j, u_j, -u_i) up to order, so the twelve are
    six frames, of reach M(u_i) - m(u_j) - m(u_i - u_j) for each ordered
    pair (i, j); the negation reaches M(u1) + M(u2) + M(u3). All seven come
    from the extremes of six dot lists, those of u1, u2, u3 and of
    u1 - u2, u2 - u3, u3 - u1, about the work of _basis_map's four sign
    choices: the extremes of x, y, z = -(x + y), x - y, x + 2y and
    -(2x + y) over the image, which the same pass takes. The
    test fails only on a value that a frame beats, so only on a wrong
    value. That it passes only on the right value is a conjecture,
    held on every polygon tried (ROADMAP item 11): the Sigma lower bound is
    tested, not proved.
    """
    w, value, phi = _basis_map(delta, shape)
    if delta.is_empty:
        got, want, what = value, _BASE[shape], "the empty-hull convention"
    else:
        # for Sigma, the dots of the witness frame, less m(u1) and m(u2): x, y and z = -(x + y)
        lo_x, hi_x, lo_y, hi_y, lo_s, hi_s, lo12, hi12, lo23, hi23, lo13, hi13 = _frame_extremes(
            delta.vertices, *phi._key())
        if shape == SQUARE:
            got = lo_x, hi_x, lo_y, hi_y
            want, what = (0, w, 0, value), "least and largest x, least and largest y"
        else:
            got = lo_x, lo_y, hi_s
            want, what = (0, 0, value), "least x, least y and largest x + y of the image"
    if got != want:
        raise InternalConsistencyError(f"the {shape} witness reaches {got}, not {want} ({what})")
    if delta.is_empty or shape == SQUARE:
        return w, value, phi
    # u1 - u2 = x - y, u2 - u3 = x + 2y and u1 - u3 = 2x + y; z runs from -hi_s to -lo_s. The
    # negation, then the pairs (1, 2), (2, 3), (3, 1), each giving both of its frames
    reaches = (hi_x + hi_y - lo_s, hi_x - lo_y - lo12, hi_y - lo_x + hi12,
               hi_y + hi_s - lo23, -lo_s - lo_y + hi23, -lo_s - lo_x + hi13, hi_x + hi_s - lo13)
    if min(reaches) < value:
        raise InternalConsistencyError(f"a frame next to the sigma witness frame reaches {min(reaches)}, "
                                       f"below the value {value}")
    return w, value, phi


def _checked_square(delta: LatticePolygon) -> tuple[int, int, AffineUnimodularMap]:
    """_checked_map(delta, SQUARE), (w, value, witness), kept on delta under "_square" in its instance dict.

    lattice_size_square and minimal_box both read it, so a polygon's square
    witness is built and checked once, however many of them run and in
    whichever order; the box is the entry itself, with w read off the
    checked basis when the entry was built. The entry sits beside "_basis"
    (see width._checked_basis) and is stored the same way: whole, by one dict
    assignment, and only once checked, so a reader finds no entry or a
    checked one, and two threads that fill it at once store equal values.
    The empty polygon stores nothing, as EMPTY is shared.
    """
    entry = delta.__dict__.get("_square")
    if entry is None:
        entry = _checked_map(delta, SQUARE)
        if delta.vertices:
            delta.__dict__["_square"] = entry
    return entry


def lattice_size_sigma(delta: LatticePolygon) -> SizeCertificate:
    """Lattice size of delta with respect to the standard triangle, off the reduced basis.

    The witness proves the value an upper bound; its lower bound is tested,
    not proved, by the 13 moves of _checked_map. Reading the certificate's
    trace runs the size recursion, which must give the same value.
    """
    return SizeCertificate(SIGMA, *_checked_map(delta, SIGMA)[1:], delta)


def lattice_size_square(delta: LatticePolygon) -> SizeCertificate:
    """Lattice size of delta with respect to the unit square, off the reduced basis.

    The value is the second successive minimum of the width norm, attained
    by the witness, which maps delta onto the minimal box (see _checked_map);
    both are kept on delta and shared with minimal_box (_checked_square).
    Reading the certificate's trace runs the size recursion, which must give
    the same value.
    """
    return SizeCertificate(SQUARE, *_checked_square(delta)[1:], delta)


def minimal_box(delta: LatticePolygon) -> BoxCertificate:
    """The componentwise-minimal bounding box (lattice width, square size), off the reduced basis.

    A box [0,a'] x [0,b'] with a' <= b' has independent rows of widths at
    most a' and b', so the successive minima a = w and b = f(long) of the
    checked basis bound a' and b' from below: (a, b) is the least box, b
    the square size, and its witness the square one. Both are read off the
    checked square entry that lattice_size_square shares (_checked_square),
    a with them, whose check is that of the minimal box: the witness maps
    delta onto [0, a] x [0, b] exactly. Whichever of the two runs first
    builds and checks it; the other reads it.
    """
    if delta.is_empty:
        raise EmptyPolygonError("minimal_box needs a non-empty polygon")
    return BoxCertificate(*_checked_square(delta))
