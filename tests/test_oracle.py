"""Deterministic generation and brute-force reference values."""

import math

import pytest

import latsize.oracle

from latsize import (
    EmptyPolygonError,
    InternalConsistencyError,
    apply_map,
    census,
    fit_into,
    hull,
    oracle_box,
    oracle_size,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
)
from latsize.cli import run_command
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


def test_oracle_size_takes_sigma_or_square_only(monkeypatch):
    # the box has two sides; oracle_size names oracle_box for it, before any search
    def no_search(*args):
        raise AssertionError("oracle_size searched a shape it does not take")

    monkeypatch.setattr("latsize.oracle.fit_into", no_search)
    monkeypatch.setattr("latsize.oracle.lattice_width", no_search)
    for delta in (hull([(0, 0), (3, 0), (0, 2)]), hull([(7, -2)]), hull([])):
        for shape in ("box", "triangle", "Sigma", None):
            with pytest.raises(ValueError, match="oracle_box"):
                oracle_size(delta, shape)


def test_pareto_reference_sets():
    assert oracle_box(rectangle(2, 3)) == (2, 3)
    assert oracle_box(hull([(0, 0), (5, 0), (0, 2)])) == (2, 5)
    assert oracle_box(standard_triangle(2)) == (2, 2)


def test_pareto_oracle_does_not_use_the_recursion(heptagon, monkeypatch):
    def no_recursion(*args):
        raise AssertionError("oracle_box ran the size recursion")

    monkeypatch.setattr("latsize.size._size_value", no_recursion)
    assert oracle_box(heptagon) == (5, 8)


def test_oracle_work_is_bounded_by_count(monkeypatch):
    # fit_into calls, not seconds: oracle_size doubles then bisects, and
    # oracle_box searches a from the width the same way; neither peels
    calls = []

    def counted(*args):
        calls.append(args)
        return fit_into(*args)

    def no_recursion(*args):
        raise AssertionError("the oracle ran the size recursion")

    monkeypatch.setattr("latsize.oracle.fit_into", counted)
    monkeypatch.setattr("latsize.size._size_value", no_recursion)
    monkeypatch.setattr("latsize.size.onion_skins", no_recursion)
    thin = hull([(0, 0), (3000, 0), (0, 2)])
    for shape in ("sigma", "square"):
        calls.clear()
        assert oracle_size(thin, shape) == 3000
        assert len(calls) <= 2 * math.ceil(math.log2(3000)) + 3, shape
    calls.clear()
    assert oracle_box(hull([(0, 0), (300, 0), (0, 2)])) == (2, 300)
    assert len(calls) <= 2 * 300


def test_oracle_tests_one_below_its_start(monkeypatch):
    # the search starts at lattice_width; when the start fits, start - 1 is
    # tested too, so a width that is too high does not agree with itself
    calls = []
    monkeypatch.setattr("latsize.oracle.fit_into", lambda *args: calls.append(args[2]) or fit_into(*args))
    assert oracle_size(standard_triangle(3), "sigma") == 3 and calls == [3, 2]
    calls.clear()
    assert oracle_box(hull([(0, 0), (7, 0), (0, 2)])) == (2, 7)
    assert calls[-2:] == [(2, 7), (1, 7)]
    width = latsize.oracle.lattice_width
    monkeypatch.setattr("latsize.oracle.lattice_width", lambda d: width(d)._replace(width=width(d).width + 1))
    with pytest.raises(InternalConsistencyError, match="below the lattice width"):
        oracle_size(standard_triangle(3), "sigma")
    with pytest.raises(InternalConsistencyError, match="below the lattice width"):
        oracle_box(hull([(0, 0), (7, 0), (0, 2)]))
    for command, vertices in (("sigma", "0,0;3,0;0,3"), ("square", "0,0;3,0;0,3"), ("box", "0,0;7,0;0,2")):
        assert run_command([command, "--vertices", vertices, "--verify"]).exit_code == 4, command


def test_pareto_pairs_are_feasible_and_minimal():
    for seed in range(40):
        delta = random_polygon(seed, 4)
        a, b = oracle_box(delta)
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
        # the disc search lists every product-order minimal box: exactly one
        a, b = least = oracle_box(delta)
        assert (least,) == disc_box_pareto(delta), delta
        for box in ((a, b), (a, b - 1), (a + 1, b + 1)):
            if box[0] <= box[1]:
                assert fit_into(delta, "box", box) == disc_fit_into(delta, "box", box), (delta, box)
                fits += 1
    assert len(polygons) == 5810 and fits > 40000
