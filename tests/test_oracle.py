"""Deterministic generation and brute-force reference values."""

import math

import pytest

from latsize import (
    EmptyPolygonError,
    apply_map,
    census,
    fit_into,
    hull,
    oracle_box_pareto,
    oracle_size,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
)
from latsize.oracle import _splitmix64

from disc import disc_box_pareto, disc_fit_into, disc_oracle_size


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


def test_oracle_work_is_bounded_by_count(monkeypatch):
    # fit_into calls, not seconds: oracle_size doubles then bisects, and the
    # Pareto walk raises a from the width; neither peels
    calls = []

    def counted(*args):
        calls.append(args)
        return fit_into(*args)

    def no_recursion(*args):
        raise AssertionError("the oracle ran the size recursion")

    monkeypatch.setattr("latsize.oracle.fit_into", counted)
    monkeypatch.setattr("latsize.size._size_value", no_recursion)
    monkeypatch.setattr("latsize.size._rule_runs", no_recursion)
    thin = hull([(0, 0), (3000, 0), (0, 2)])
    for shape in ("sigma", "square"):
        calls.clear()
        assert oracle_size(thin, shape) == 3000
        assert len(calls) <= 2 * math.ceil(math.log2(3000)) + 3, shape
    calls.clear()
    assert oracle_box_pareto(hull([(0, 0), (300, 0), (0, 2)])).pairs == ((2, 300),)
    assert len(calls) <= 2 * 300


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


def test_oracle_matches_the_disc_search(box3_census):
    # census(3), an image of each and random polygons up to k = 80: values,
    # fronts and witnesses of the width-body oracle equal those of the disc
    polygons = list(box3_census)
    polygons += [apply_map(random_unimodular_map(2 * i), delta) for i, delta in enumerate(box3_census)]
    polygons += [random_polygon(seed, k) for k in (5, 12, 40, 80) for seed in range(25)]
    fits = 0
    for delta in polygons:
        for shape in ("sigma", "square"):
            value = oracle_size(delta, shape)
            assert value == disc_oracle_size(delta, shape), (delta, shape)
            for size in range(max(value - 1, 0), value + 2):
                assert fit_into(delta, shape, size) == disc_fit_into(delta, shape, size), (delta, shape, size)
                fits += 1
        front = oracle_box_pareto(delta).pairs
        assert front == disc_box_pareto(delta), delta
        (a, b), = front
        for box in ((a, b), (a, b - 1), (a + 1, b + 1)):
            if box[0] <= box[1]:
                assert fit_into(delta, "box", box) == disc_fit_into(delta, "box", box), (delta, box)
                fits += 1
    assert len(polygons) == 5810 and fits > 40000
