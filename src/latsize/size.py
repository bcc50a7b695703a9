"""The peeling recursions: lattice width and lattice sizes with respect to Sigma and the square.

The paper reads the lattice width, the lattice size with respect to the
standard triangle Sigma and that with respect to the unit square from one
recursion over one chain of interior hulls. So does this module: the memo
_rule_runs peels a polygon once into its onion skins, in runs of uniform
peels (see onion_skins), with the rule data of every run, and
lattice_width_recursive, lattice_size_sigma and lattice_size_square, its
only readers, read that one chain.

The width recursion adds 2 per skin, except that a standard triangle d*Sigma
ends the chain with d and a skin whose interior hull is a point, a segment or
empty ends it with a fixed base (_WIDTH_BASE). The size recursions start from
the innermost skin, whose interior hull is empty: a point, a segment, 2*Sigma
or a polygon of lattice width one, each with a closed-form value. Every outer
skin takes the first of three rules that fires: the rectangle rule (triangle
only, a + b for [0,a] x [0,b]), then the parallel-edge rule (an edge of
length r facing a face of length s = inner value with r - s >= 3 gives r),
then the generic step (inner value plus three for the triangle, two for the
square). No value is found by search.

Every rule is affine in the step along a run, so one rule function, _step,
takes a segment of n skins in O(1): the body of a run (all its skins but the
last, which peel uniformly) and the last skin of a run (n = 1) alike, and
its trace has one Step per segment, not per skin. Each segment takes its
parallel-edge hit from one lookup of the edge normals of the skin after its
first (_parallel_edge_hit), done once per segment in the memo.

Every certificate carries a witness map built from the Gauss-reduced basis
of the width norm (see _basis_map), without search, plus the rule trace whose
contributions telescope from the empty-hull convention (-2 for the triangle,
-1 for the square) to the final value. The witness must reach the recursion's
value exactly, or the certificate fails. The lattice width and its optimal
directions come from the same basis (see width.lattice_width), which is
memoised per polygon (width._reduced_basis) and checked on every read
(width._checked_basis): the width, the witnesses, the box and the oracle's
frame share one reduction, as the recursions share one chain. These two
memos, each of the last 1024 polygons, are the package's only caches; they
stay apart so that lattice_width and minimal_box never peel.

fit_into, the exact feasibility search, is the oracle only, and the only
code that lists the lattice points of the width body {u : width(u) <= b}:
no certificate calls it, so value (recursion), witness (reduced basis) and
oracle (search over the width body) are three independent routes. The
oracle reads the reduced basis too, but only as its frame and for the
bound on the rows of the body; the search, not the basis, picks the rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .errors import EmptyPolygonError, InternalConsistencyError
from .interior import _moved, interior_hull, onion_skins
from .polygon import (
    EMPTY,
    AffineUnimodularMap,
    LatticePolygon,
    Point,
    SpecialShape,
    are_equivalent,
    hull,
    integral_length,
    recognize_special,
)
from .width import _checked_basis, _min_convex

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


class SizeCertificate(NamedTuple):
    """A lattice-size value with its witness map and recursion trace."""

    shape: str
    value: int
    witness: AffineUnimodularMap
    trace: tuple[Step, ...]


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
    """Scan the edges of delta for the parallel-edge exception.

    For every edge of delta, the face of gamma on the inward unit shift of its
    supporting line is located (an edge, a single vertex of length zero, or
    nothing). Among the pairs with r - s >= threshold the first one maximizing
    r - s is returned, where r and s are the integral lengths of the edge and
    of the face. A one-dimensional gamma counts as an edge of itself.

    A face of positive length on the line a*x + b*y = c - 1 is the edge of
    gamma with the outward normal (a, b), so it is found by a dict lookup on
    gamma's edge normals. Only an edge of delta that could still win and
    whose normal gamma lacks needs a pass over gamma's vertices, to find a
    vertex on the line; a point or segment gamma has no edge normals, so its
    vertices are always scanned. That costs O(n + m) for n edges of delta
    and m of gamma, plus O(m) per such edge, against O(n * m) for a pass per
    edge.
    """
    if gamma.is_empty or gamma != interior_hull(delta):
        raise ValueError("gamma must be the (non-empty) interior hull of delta")
    return _parallel_edge_hit(delta, gamma, threshold)


def _parallel_edge_hit(
    delta: LatticePolygon, gamma: LatticePolygon, threshold: int
) -> Optional[ParallelEdgeHit]:
    """parallel_edge_exception without the check that gamma is the interior hull of delta."""
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


# A run of onion skins (see OnionTrace) with the rule data of its skins,
# as the segments that _step takes: (skin, shift, n, rectangle, hit).
# special is recognize_special of the first skin (None for a point or
# segment). If that is a rectangle, so is every skin of the run (the skins
# share edge normals, and a unimodular rectangle [0,a] x [0,b] peels to
# [1,a-1] x [1,b-1]). body is the segment of the count - 1 skins before the
# last (None if count is 1), with the parallel-edge hit of the first skin on
# the second; each edge's r - s is the same on every skin of the run, so the
# same edge wins on every skin of the run or on none. last is the segment of
# the last skin, end, with its hit on the first skin of the next run (None
# for the last run).
_RunRules = namedtuple("_RunRules", "skin shift count end special body last")


@lru_cache(maxsize=1 << 10)
def _rule_runs(delta: LatticePolygon) -> tuple[tuple[_RunRules, ...], Optional[SpecialShape]]:
    """The runs of onion_skins(delta) with their rule data, outermost first.

    Returned with recognize_special of the innermost skin, the last skin of
    the last run. This is the one chain of every recursion: its readers are
    lattice_width_recursive and _size_value, and through _size_value
    lattice_size_sigma and lattice_size_square, so the three of them over
    the same polygon peel it and recognize its run starts once. Each run
    costs O(edges) plus one recognize_special on its first skin and one
    parallel-edge lookup per segment.
    """
    runs = onion_skins(delta).runs
    out = []
    for j, (skin, shift, count) in enumerate(runs):
        end = _moved(skin, shift, count - 1)
        special = recognize_special(skin) if skin.is_two_dim else None
        rectangle = special.params if special is not None and special.kind == "rectangle" else None
        body = last = None
        if count > 1:
            body = (skin, shift, count - 1, rectangle, _parallel_edge_hit(skin, _moved(skin, shift, 1), 3))
        if j + 1 < len(runs):
            last = (end, (), 1, rectangle and tuple(p - 2 * (count - 1) for p in rectangle),
                    _parallel_edge_hit(end, runs[j + 1][0], 3))
        out.append(_RunRules(skin, shift, count, end, special, body, last))
    if count > 1:
        special = recognize_special(end)
    return tuple(out), special


_WIDTH_BASE = {
    "empty": ("LawrencePrismBase", 1),
    "point": ("SinglePointInteriorBase", 2),
    "segment": ("SegmentInteriorBase", 2),
}


def lattice_width_recursive(delta: LatticePolygon) -> tuple[int, tuple[Step, ...]]:
    """Lattice width by interior-hull peeling, read off the chain of _rule_runs.

    Standard triangles are the one exceptional family (their width drops by
    three per peel instead of two); polygons whose interior hull is degenerate
    are settled by a fixed base table. The runs are walked outermost first,
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
    runs, _ = _rule_runs(delta)
    generic: list[Step] = []
    for j, run in enumerate(runs):
        if run.special is not None and run.special.kind == "standard_triangle":
            base = Step(run.skin, "StandardTriangleException", run.special.params[0])
            break
        gamma = runs[j + 1].skin if j + 1 < len(runs) else EMPTY
        if gamma.is_two_dim:
            generic.append(Step(run.skin, RULE_GENERIC, 2, (), run.count, run.shift))
            continue
        if run.count > 1:
            generic.append(Step(run.skin, RULE_GENERIC, 2, (), run.count - 1, run.shift))
        base = Step(run.end, *_WIDTH_BASE[gamma.kind])
        break
    trace = (base,) + tuple(reversed(generic))
    return base.contribution + 2 * sum(step.count for step in generic), trace


def _size_value(delta: LatticePolygon, shape: str) -> tuple[int, tuple[Step, ...]]:
    """Value and rule trace from the onion skins of delta, innermost skin first, one segment at a time.

    Each run is up to two segments for _step (see _RunRules), taken inside
    out: its last skin, then its body.
    """
    if delta.is_empty:
        return _BASE[shape], ()
    runs, innermost = _rule_runs(delta)
    value, step = _innermost_step(runs[-1].end, innermost, shape)
    trace = [step]
    for run in reversed(runs):
        if run.last is not None:
            value, step = _step(run.last, value, shape)
            trace.append(step)
        if run.body is not None:
            value, step = _step(run.body, value, shape)
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
    """Value of a non-empty polygon whose interior hull is empty, given recognize_special(delta)."""
    base = _BASE[shape]
    if delta.is_point:
        return 0, Step(delta, RULE_SEARCH, -base)
    if delta.is_segment:
        value = integral_length(*delta.vertices)
        return value, Step(delta, RULE_SEARCH, value - base)
    # Interior-free polygons: width-one prisms (in several disguises) and
    # the twice-dilated standard triangle.
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


def _step(segment: tuple, inner_value: int, shape: str) -> tuple[int, Step]:
    """Value of a segment (skin, shift, n, rectangle, hit) from inner_value, that of the skin inside it.

    The segment is the n skins skin + t * shift, t = 0..n-1. rectangle is
    (a, b) if skin is the rectangle [0,a] x [0,b], hit its parallel-edge hit
    with r - s >= 3, if any. The first rule that fires decides, on every
    skin of the segment alike (see _RunRules): the rectangle rule (triangle
    only), then the parallel-edge rule, then the generic step. A point or
    segment inner skin goes through the same rules as a two-dimensional one.
    Each rule is affine in t: the rectangle (a - 2t) + (b - 2t) falls by 4
    per skin, the parallel-edge value r - t * (r - s) by r - s, the generic
    step by 3 or 2. So the value of skin n, just inside the segment, must be
    inner_value, as the per-skin check s == inner value demands; no other
    skin needs a check, since there the fall is exact.
    """
    skin, shift, n, rectangle, hit = segment
    if shape == SIGMA and rectangle is not None:
        a, b = rectangle
        rule, value, fall, params = RULE_RECTANGLE, a + b, 4, (a, b)
    elif hit is not None:
        rule, value, fall, params = RULE_PARALLEL, hit.r, hit.r - hit.s, (hit.r, hit.s)
    else:
        fall = _STEP[shape]
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
    Returns the first witness in the deterministic order (|u1|^2, u1, |u2|^2,
    u2) over candidate functional rows, in the frame of the reduced basis;
    None if the embedding is infeasible.

    A row of a witness has width at most b, the larger side of the target,
    so the candidate rows are the primitive lattice points of the width
    body {u : f(u) <= b}, f the width norm. They are listed row by row in
    the frame of the reduced basis (short, long, w) of width._reduced_basis,
    as u = y * long + x * short with y >= 0, and each is taken with -u:

    - Row y = 0 holds +-short only.
    - Rows y >= 1 hold points only up to y = 2b / (2 * f(long) - w), since
      f(y * long + x * short) = y * f(long + (x / y) * short)
      >= y * (f(long) - w / 2), as the lattice_width docstring shows.
    - Along a row f is convex in x, so the row's points form an interval:
      it is walked outward from the argmin that width._min_convex finds,
      while f <= b, keeping the x with gcd(x, y) = 1.

    That bound needs only w <= f(long) <= f(long +- short), by convexity
    along the line long + t * short, and width._checked_basis raises
    InternalConsistencyError on a basis that breaks them rather than let a
    row drop. The basis thus gives the frame and the row bound, while the
    search over the width body, not the basis, picks the rows, so
    "recursion == oracle" still compares two routes.

    This is the oracle, the feasibility core of oracle_size and
    oracle_box_pareto; no certificate calls it. The pairs of candidates
    cost up to the square of their number, so it is meant for small inputs.
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

    # The rows (long, short) of the reduced basis become coordinates: the
    # functional y * long + x * short takes the values y * p + x * q on the
    # pairs (p, q) of verts, the images of the vertices under psi.
    short, long, w, (_, f_long, _) = _checked_basis(delta)
    psi = AffineUnimodularMap(long[0], long[1], short[0], short[1], 0, 0)
    verts = [(long[0] * x + long[1] * y, short[0] * x + short[1] * y) for x, y in delta.vertices]

    def width(y: int, x: int) -> int:
        dots = [y * p + x * q for p, q in verts]
        return max(dots) - min(dots)

    body = [(0, 1)] if w <= b_cap else []
    for y in range(1, 2 * b_cap // (2 * f_long - w) + 1):
        x0 = _min_convex(lambda x, y=y: width(y, x), {0: width(y, 0)})[0]
        for x, step in ((x0, 1), (x0 - 1, -1)):
            while width(y, x) <= b_cap:
                if math.gcd(x, y) == 1:
                    body.append((y, x))
                x += step
    cands = []
    for u in body:
        dots = tuple(u[0] * p + u[1] * q for p, q in verts)
        f_u = max(dots) - min(dots)
        cands.append((u, dots, f_u))
        cands.append(((-u[0], -u[1]), tuple(-t for t in dots), f_u))
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


def _basis_map(delta: LatticePolygon, shape: str) -> tuple[int, AffineUnimodularMap]:
    """The reach of the reduced width basis for the target shape, with its witness map.

    The rows (short, long) of the checked basis map delta into the minimal
    box [0, width] x [0, b] (see minimal_box), which lies in b * square: so
    the square reach is b = width(long), which the memo entry holds, with
    that witness. For the triangle, the rows (u1, u2) map delta into
    reach * Sigma with reach = max((u1 + u2) . p) - min(u1 . p) - min(u2 . p);
    one of the four sign choices (+-short, +-long) attains the lattice size
    with respect to Sigma (Harrison and Soprunov, lattice size by generalized
    basis reduction in dimensions two and three). Points and segments are
    covered too: their reduced widths are (0, 0) and (0, length). The empty
    polygon reaches the empty-hull convention (-2 or -1) with the identity.

    One pass over the vertices gives the dot products of short and long;
    the four sign choices read their reaches off the extremes of the two
    lists and of their sums and differences. The choices are tried in the
    fixed order (1, 1), (1, -1), (-1, 1), (-1, -1), and the first least
    reach wins.
    """
    if delta.is_empty:
        return _BASE[shape], AffineUnimodularMap.identity()
    short, long, _, (_, b, _) = _checked_basis(delta)
    dots1 = [short[0] * x + short[1] * y for x, y in delta.vertices]
    dots2 = [long[0] * x + long[1] * y for x, y in delta.vertices]
    lo1, lo2 = min(dots1), min(dots2)
    if shape == SIGMA:
        hi1, hi2 = max(dots1), max(dots2)
        sums = [s + t for s, t in zip(dots1, dots2)]
        diffs = [s - t for s, t in zip(dots1, dots2)]
        reaches = (  # of (s1 * short, s2 * long), in the order of the signs below
            max(sums) - lo1 - lo2,
            max(diffs) - lo1 + hi2,
            hi1 - min(diffs) - lo2,
            hi1 + hi2 - min(sums),
        )
        reach = min(reaches)
        s1, s2 = ((1, 1), (1, -1), (-1, 1), (-1, -1))[reaches.index(reach)]
        t1, t2 = (-lo1, hi1)[s1 < 0], (-lo2, hi2)[s2 < 0]
    else:
        reach, s1, s2, t1, t2 = b, 1, 1, -lo1, -lo2
    return reach, AffineUnimodularMap(s1 * short[0], s1 * short[1], s2 * long[0], s2 * long[1], t1, t2)


def _certificate(delta: LatticePolygon, shape: str) -> SizeCertificate:
    value, trace = _size_value(delta, shape)
    reach, witness = _basis_map(delta, shape)
    if reach != value:
        raise InternalConsistencyError(
            f"the reduced basis reaches {reach}, but the recursion gives {shape} size {value}"
        )
    return SizeCertificate(shape, value, witness, trace)


def lattice_size_sigma(delta: LatticePolygon) -> SizeCertificate:
    """Lattice size of delta with respect to the standard triangle."""
    return _certificate(delta, SIGMA)


def lattice_size_square(delta: LatticePolygon) -> SizeCertificate:
    """Lattice size of delta with respect to the unit square."""
    return _certificate(delta, SQUARE)


def minimal_box(delta: LatticePolygon) -> BoxCertificate:
    """The componentwise-minimal bounding box (lattice width, square size), off the reduced basis.

    A box [0,a'] x [0,b'] with a' <= b' has independent rows of widths at
    most a' and b', so the successive minima a = w and b = f(long) of the
    checked basis bound a' and b' from below: (a, b) is the least box, b
    the square size, and its witness the square one of _basis_map.
    """
    if delta.is_empty:
        raise EmptyPolygonError("minimal_box needs a non-empty polygon")
    b, witness = _basis_map(delta, SQUARE)
    return BoxCertificate(_checked_basis(delta)[2], b, witness)
