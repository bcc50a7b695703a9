"""Interior hulls and onion-skin peeling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyPolygonError
from .polygon import EMPTY, LatticePolygon, Point, _cross, _interior_columns, hull


def _push(chain: list[Point], p: Point, turn: int) -> None:
    """Append p to a monotone chain, first popping the points p makes redundant.

    ``turn`` is 1 for a lower chain (only left turns survive) and -1 for an
    upper chain (only right turns survive).
    """
    while len(chain) >= 2 and turn * _cross(chain[-2], chain[-1], p) <= 0:
        chain.pop()
    chain.append(p)


@lru_cache(maxsize=1 << 15)
def interior_hull(delta: LatticePolygon) -> LatticePolygon:
    """Convex hull of the lattice points strictly inside delta.

    Only the two ends (x, lo) and (x, hi) of each interior column are looked
    at: every interior lattice point lies on the segment between the ends of
    its column, so the ends have the same convex hull as all interior points.
    The columns come in increasing x, so the lo ends build the lower chain and
    the hi ends the upper chain without sorting, and the cost is
    O(columns x edges) rather than the number of interior points. Degenerate
    input has no strict interior, so points and segments map to the empty
    polygon.
    """
    if not delta.is_two_dim:
        return EMPTY
    lower: list[Point] = []
    upper: list[Point] = []
    for x, lo, hi in _interior_columns(delta):
        _push(lower, (x, lo), 1)
        _push(upper, (x, hi), -1)
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
