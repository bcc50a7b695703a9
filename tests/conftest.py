"""Shared fixtures: reference polygons and the exhaustive small-box corpus."""

from __future__ import annotations

import pytest

from latsize import LatticePolygon, census, hull, random_polygon

HEPTAGON_VERTICES = [(8, 0), (6, 1), (2, 4), (0, 6), (0, 8), (3, 7), (5, 6)]


@pytest.fixture(scope="session")
def heptagon() -> LatticePolygon:
    return hull(HEPTAGON_VERTICES)


@pytest.fixture(scope="session")
def box3_census() -> list[LatticePolygon]:
    return census(3)


@pytest.fixture(scope="session")
def random_corpus() -> list[LatticePolygon]:
    return [random_polygon(seed, 5) for seed in range(500)]


def weierstrass(g: int) -> LatticePolygon:
    """The genus-g triangle conv{(0,0), (2g+1,0), (0,2)}."""
    return hull([(0, 0), (2 * g + 1, 0), (0, 2)])


def contains(poly: LatticePolygon, pt: tuple[int, int]) -> bool:
    """Closed containment test through the edge constraints of a two-dimensional polygon."""
    assert poly.is_two_dim
    return all(a * pt[0] + b * pt[1] <= c for a, b, c in poly.edge_constraints)


def in_sigma(d: int, pt: tuple[int, int]) -> bool:
    return pt[0] >= 0 and pt[1] >= 0 and pt[0] + pt[1] <= d


def in_box(a: int, b: int, pt: tuple[int, int]) -> bool:
    return 0 <= pt[0] <= a and 0 <= pt[1] <= b
