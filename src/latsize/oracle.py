"""Brute-force ground truth and deterministic test-corpus generation.

Everything here is independent of the recursive algorithms: sizes are found
by ascending feasibility search, Pareto sets by grid feasibility, and random
inputs come from a fixed 64-bit mixing function (splitmix64) so every
platform reproduces the identical corpus.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import EmptyPolygonError
from .polygon import AffineUnimodularMap, LatticePolygon, hull
from .size import BOX, fit_into
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
    """Smallest feasible target size, by ascending fit_into search.

    The scan starts at lattice_width, a lower bound for both target shapes;
    in particular the search itself certifies that value - 1 is infeasible.
    lattice_width is the width along a direction of the reduced basis, never
    below the true width, so a wrong basis can only start the scan too high:
    that shows as a --verify mismatch with the recursion, never as a false
    agreement.
    """
    if delta.is_empty:
        raise EmptyPolygonError("oracle_size needs a non-empty polygon")
    d = max(lattice_width(delta).width, 0)
    while fit_into(delta, shape, d) is None:
        d += 1
    return d


class ParetoSet(NamedTuple):
    """Product-order minimal feasible boxes (a, b) with a <= b."""

    pairs: tuple[tuple[int, int], ...]


def oracle_box_pareto(delta: LatticePolygon) -> ParetoSet:
    """All product-order minimal boxes [0,a] x [0,b] with a <= b.

    Feasibility is decided by fit_into on the grid; for each a the minimal
    feasible b is found, and dominated pairs are discarded. Sides are
    searched up to the square lattice size from oracle_size plus two, which
    is always large enough to contain every minimal pair.
    """
    if delta.is_empty:
        raise EmptyPolygonError("oracle_box_pareto needs a non-empty polygon")
    limit = oracle_size(delta, "square") + 2
    front: list[tuple[int, int]] = []
    prev_b: Optional[int] = None
    for a in range(0, limit + 1):
        if prev_b is not None and prev_b <= a:
            break  # every further pair is dominated by (prev_a, prev_b)
        b = a
        found = None
        while b <= limit:
            if fit_into(delta, BOX, (a, b)) is not None:
                found = b
                break
            b += 1
        if found is None:
            continue
        if prev_b is None or found < prev_b:
            front.append((a, found))
            prev_b = found
    return ParetoSet(tuple(front))


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
