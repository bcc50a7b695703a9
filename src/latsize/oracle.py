"""Brute-force ground truth and deterministic test-corpus generation.

Everything here is independent of the recursive algorithms: sizes are found
by doubling and bisection over the feasibility test size.fit_into, Pareto
sets by a walk along the least feasible box side, and random inputs come
from a fixed 64-bit mixing function (splitmix64) so every platform
reproduces the identical corpus.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import EmptyPolygonError, InternalConsistencyError
from .polygon import AffineUnimodularMap, LatticePolygon, hull
from .size import BOX, SQUARE, fit_into
from .width import lattice_width

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: state += golden gamma, then two xor-multiply mixes."""
    state = seed & _MASK
    while True:
        state = (state + _GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        yield z ^ (z >> 31)


def random_polygon(seed: int, k: int) -> LatticePolygon:
    """Deterministic pseudo-random two-dimensional hull with vertices in [0,k]^2."""
    if k < 1:
        raise ValueError("coordinate box needs k >= 1")
    stream = _splitmix64(seed)
    while True:
        count = 3 + next(stream) % 7
        pts = [(next(stream) % (k + 1), next(stream) % (k + 1)) for _ in range(count)]
        candidate = hull(pts)
        if candidate.is_two_dim:
            return candidate


def random_unimodular_map(seed: int) -> AffineUnimodularMap:
    """Deterministic pseudo-random map built from shears, swaps and a translation."""
    stream = _splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5)
    phi = AffineUnimodularMap.identity()
    for _ in range(4):
        choice = next(stream) % 3
        amount = next(stream) % 7 - 3
        if choice == 0:
            step = AffineUnimodularMap(1, amount, 0, 1, 0, 0)
        elif choice == 1:
            step = AffineUnimodularMap(1, 0, amount, 1, 0, 0)
        else:
            step = AffineUnimodularMap(0, 1, 1, 0, 0, 0)
        phi = step.compose(phi)
    t1 = next(stream) % 11 - 5
    t2 = next(stream) % 11 - 5
    return AffineUnimodularMap.translation(t1, t2).compose(phi)


def oracle_size(delta: LatticePolygon, shape: str) -> int:
    """Smallest feasible target size, by doubling and bisection over fit_into.

    Feasibility is monotone in the size, as d * target lies in
    (d + 1) * target. The search starts at lattice_width, a lower bound for
    both target shapes, doubles until fit_into finds a map, then bisects
    between the last infeasible size and the first feasible one. So it ends
    with value - 1 tested infeasible, and the search itself certifies the
    value. A value >= 1 takes at most 2 * ceil(log2(value)) + 3 calls of
    fit_into. lattice_width is the width along a direction of the reduced
    basis, never below the true width, so a wrong basis can only start the
    search too high. The search does not trust it: when the start fits,
    start - 1 is tested too, and InternalConsistencyError is raised if it
    fits.
    """
    if delta.is_empty:
        raise EmptyPolygonError("oracle_size needs a non-empty polygon")
    lo = max(lattice_width(delta).width, 0)
    if fit_into(delta, shape, lo) is not None:
        if lo > 0 and fit_into(delta, shape, lo - 1) is not None:
            raise InternalConsistencyError(f"{shape} size {lo - 1} fits, below the lattice width {lo}")
        return lo
    hi = max(2 * lo, 1)
    while fit_into(delta, shape, hi) is None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fit_into(delta, shape, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


class ParetoSet(NamedTuple):
    """Product-order minimal feasible boxes (a, b) with a <= b."""

    pairs: tuple[tuple[int, int], ...]


def oracle_box_pareto(delta: LatticePolygon) -> ParetoSet:
    """All product-order minimal boxes [0,a] x [0,b] with a <= b, with b up to the square size.

    Let s = oracle_size(delta, "square"). Every feasible box has b >= s, as
    [0,a] x [0,b] lies in b * square, and (s, s) is feasible. So the least
    feasible b never rises as a rises and is s from some a on: the walk
    starts at a = lattice_width, a lower bound for a, and raises a until
    fit_into places delta in [0,a] x [0,s]; if that is the start, a - 1 is
    tested too, as oracle_size does, and InternalConsistencyError is raised
    if it fits. That costs at most s - width + 2 calls beyond oracle_size.
    Sides b > s are not searched: a minimal pair (a', b) with b > s would
    need a' below that a, and the reduced basis gives the box (width, s)
    (see size.minimal_box).
    """
    if delta.is_empty:
        raise EmptyPolygonError("oracle_box_pareto needs a non-empty polygon")
    s = oracle_size(delta, SQUARE)
    a = start = max(lattice_width(delta).width, 0)
    while fit_into(delta, BOX, (a, s)) is None:
        a += 1
    if a == start > 0 and fit_into(delta, BOX, (a - 1, s)) is not None:
        raise InternalConsistencyError(f"the box ({a - 1}, {s}) fits, below the lattice width {a}")
    return ParetoSet(((a, s),))


def census(k: int = 3) -> list[LatticePolygon]:
    """Every distinct hull spanned by subsets of the lattice points of [0,k]^2.

    The 2^((k+1)^2) subsets are enumerated outright and deduplicated by
    canonical form, which is exact and fast for k <= 3; larger k is rejected.
    """
    if k > 3:
        raise ValueError(f"census enumerates boxes up to [0,3]^2, got k={k}")
    pts = [(x, y) for x in range(k + 1) for y in range(k + 1)]
    seen: dict[tuple, LatticePolygon] = {}
    n = len(pts)
    for mask in range(1, 1 << n):
        subset = [pts[i] for i in range(n) if mask >> i & 1]
        poly = hull(subset)
        seen.setdefault(poly.vertices, poly)
    return [seen[key] for key in sorted(seen)]
