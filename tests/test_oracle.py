"""Deterministic generation and brute-force reference values."""

import pytest

from latsize import (
    EmptyPolygonError,
    census,
    fit_into,
    hull,
    oracle_box_pareto,
    oracle_size,
    random_polygon,
    rectangle,
    standard_triangle,
)
from latsize.oracle import _splitmix64


def test_splitmix_stream_is_stable():
    stream = _splitmix64(0)
    first = [next(stream) for _ in range(3)]
    # reference values of the standard splitmix64 sequence for seed 0
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_random_polygon_determinism_and_containment():
    assert random_polygon(1, 4) == random_polygon(1, 4)
    for seed in range(100):
        poly = random_polygon(seed, 4)
        assert poly.is_two_dim
        assert all(0 <= x <= 4 and 0 <= y <= 4 for x, y in poly.vertices)
    with pytest.raises(ValueError):
        random_polygon(1, 0)


def test_oracle_size_reference_values(heptagon):
    assert oracle_size(heptagon, "sigma") == 10
    assert oracle_size(heptagon, "square") == 8
    assert oracle_size(hull([(7, -2)]), "sigma") == 0
    with pytest.raises(EmptyPolygonError):
        oracle_size(hull([]), "sigma")


def test_pareto_reference_sets():
    assert oracle_box_pareto(rectangle(2, 3)).pairs == ((2, 3),)
    assert oracle_box_pareto(hull([(0, 0), (5, 0), (0, 2)])).pairs == ((2, 5),)
    assert oracle_box_pareto(standard_triangle(2)).pairs == ((2, 2),)


def test_pareto_oracle_does_not_use_the_recursion(heptagon, monkeypatch):
    def no_recursion(*args):
        raise AssertionError("oracle_box_pareto ran the size recursion")

    monkeypatch.setattr("latsize.size._size_value", no_recursion)
    assert oracle_box_pareto(heptagon).pairs == ((5, 8),)


def test_pareto_pairs_are_feasible_and_minimal():
    for seed in range(40):
        delta = random_polygon(seed, 4)
        front = oracle_box_pareto(delta).pairs
        assert len(front) == 1
        a, b = front[0]
        assert fit_into(delta, "box", (a, b)) is not None
        if a >= 1:
            assert fit_into(delta, "box", (a - 1, b)) is None
        if b - 1 >= a:
            assert fit_into(delta, "box", (a, b - 1)) is None


def test_census_is_deterministic_and_complete():
    first = census(3)
    second = census(3)
    assert first == second
    assert len({p.vertices for p in first}) == len(first)
    assert standard_triangle(3) in first
    assert rectangle(3, 3) in first
    assert hull([(0, 0)]) in first
    assert hull([(0, 0), (3, 3)]) in first
    # every canonical hull of box subsets shows up exactly once
    assert len(first) == 2855
    with pytest.raises(ValueError):
        census(4)
