"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The corpus is the exhaustive census of hulls with vertices in [0,3]^2 plus
500 seeded random polygons in [0,5]^2. Values are computed once per polygon
and shared across the criteria.
"""

from __future__ import annotations

import time

import pytest

from latsize import (
    apply_map,
    fit_into,
    hull,
    interior_hull,
    lattice_size_sigma,
    lattice_size_square,
    lattice_width,
    lattice_width_recursive,
    lawrence_prism,
    minimal_box,
    onion_skins,
    oracle_box_pareto,
    oracle_size,
    parse_laurent,
    random_unimodular_map,
    rectangle,
    recognize_special,
    standard_triangle,
    upsilon,
)
from latsize.newton import analyze
from latsize.size import _size_value

from conftest import in_box, in_sigma, weierstrass

ALL_RULES = {
    "GenericStep",
    "LawrencePrism",
    "TwoSigma",
    "RectangleAB",
    "ParallelEdge",
    "DegenerateBaseSearch",
}


@pytest.fixture(scope="session")
def corpus(box3_census, random_corpus):
    return box3_census + random_corpus


@pytest.fixture(scope="session")
def corpus_values(corpus):
    """vertices -> (width, sigma value, sigma trace, square value, square trace)."""
    table = {}
    for delta in corpus:
        sigma_value, sigma_trace = _size_value(delta, "sigma")
        square_value, square_trace = _size_value(delta, "square")
        width = lattice_width(delta).width
        table[delta.vertices] = (width, sigma_value, sigma_trace, square_value, square_trace)
    return table


def test_criterion_1_heptagon_reference_values(heptagon):
    start = time.perf_counter()
    sigma = lattice_size_sigma(heptagon)
    sigma_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    square = lattice_size_square(heptagon)
    square_elapsed = time.perf_counter() - start
    assert sigma.value == 10
    assert square.value == 8
    assert sigma_elapsed < 1.0 and square_elapsed < 1.0
    sigma_image = apply_map(sigma.witness, heptagon)
    assert all(in_sigma(10, v) for v in sigma_image.vertices)
    square_image = apply_map(square.witness, heptagon)
    assert all(in_box(8, 8, v) for v in square_image.vertices)
    skins = onion_skins(heptagon).skins
    assert len(skins) == 3
    inner = recognize_special(skins[-1])
    assert (inner.kind, inner.params) == ("lawrence_prism", (4, 2))
    assert len(sigma.trace) == 3 and len(square.trace) == 3
    print(
        "ACCEPTANCE criterion 1: PASS -- heptagon sizes 10 (triangle) and 8 (square), "
        f"witnesses verified, 3 skins, inner prism (4,2); {sigma_elapsed + square_elapsed:.3f}s"
    )


def test_criterion_2_family_laws():
    start = time.perf_counter()
    for d in range(1, 9):
        tri = standard_triangle(d)
        assert _size_value(tri, "sigma")[0] == d
        assert _size_value(tri, "square")[0] == d
        assert lattice_width(tri).width == d
    for a in range(1, 7):
        for b in range(a, 7):
            box = rectangle(a, b)
            assert _size_value(box, "sigma")[0] == a + b
            assert _size_value(box, "square")[0] == b
            assert lattice_width(box).width == a
    for d in range(2, 6):
        assert _size_value(upsilon(d), "sigma")[0] == 3 * d
    for g in range(2, 11):
        tri = weierstrass(g)
        assert _size_value(tri, "sigma")[0] == 2 * g + 1
        inner = interior_hull(tri)
        # the interior hull is the horizontal segment with g lattice points,
        # i.e. of integral length g - 1; by the segment convention its
        # triangle size is that length (counting points instead gives g)
        assert inner.vertices == ((1, 1), (g, 1))
        assert _size_value(inner, "sigma")[0] == g - 1
    for a in range(2, 7):
        for b in range(0, a + 1):
            prism = lawrence_prism(a, b)
            expected = a + 1 if a == b else a
            assert _size_value(prism, "sigma")[0] == expected
            assert _size_value(prism, "square")[0] == a
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "ACCEPTANCE criterion 2: PASS -- family laws exact in "
        f"{elapsed:.2f}s (interior of the genus-g triangle has size g-1, "
        "its integral length; see decision notes)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="quoted family value is off by one: the interior hull is a segment "
    "of integral length g-1, and the segment convention makes its size g-1",
)
def test_criterion_2_weierstrass_interior_quoted_value():
    for g in range(2, 11):
        inner = interior_hull(weierstrass(g))
        assert _size_value(inner, "sigma")[0] == g


def test_criterion_3_oracle_equivalence(corpus, corpus_values):
    start = time.perf_counter()
    for delta in corpus:
        width, sigma_value, _, square_value, _ = corpus_values[delta.vertices]
        assert sigma_value == oracle_size(delta, "sigma"), delta
        assert square_value == oracle_size(delta, "square"), delta
        assert lattice_width_recursive(delta)[0] == width, delta
        if sigma_value >= 1:
            assert fit_into(delta, "sigma", sigma_value - 1) is None, delta
        if square_value >= 1:
            assert fit_into(delta, "square", square_value - 1) is None, delta
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE criterion 3: PASS -- {len(corpus)} polygons, recursion == oracle "
        f"for both sizes and both width algorithms, minimality certified; {elapsed:.1f}s"
    )


def test_criterion_4_minimal_box_is_pareto_minimum(corpus, corpus_values):
    start = time.perf_counter()
    for delta in corpus:
        width, _, _, square_value, _ = corpus_values[delta.vertices]
        box = minimal_box(delta)
        assert (box.a, box.b) == (width, square_value), delta
        pareto = oracle_box_pareto(delta)
        assert pareto.pairs == ((width, square_value),), delta
        image = apply_map(box.witness, delta)
        assert all(in_box(width, square_value, v) for v in image.vertices), delta
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE criterion 4: PASS -- Pareto set == {{(width, square size)}} and "
        f"box witnesses verified on {len(corpus)} polygons; {elapsed:.1f}s"
    )


def test_criterion_5_invariant_suites(corpus, corpus_values):
    from latsize import measures

    start = time.perf_counter()
    for index, delta in enumerate(corpus):
        width, sigma_value, _, square_value, _ = corpus_values[delta.vertices]
        if delta.is_two_dim:
            m = measures(delta)
            assert m.area2 == 2 * m.interior_count + m.boundary_count - 2
            special = recognize_special(delta)
            is_standard = special is not None and special.kind == "standard_triangle"
            assert (width == sigma_value) == is_standard, delta
            assert 3 * width * width <= 4 * delta.area2, delta
        elif delta.is_point:
            assert width == sigma_value == 0
        else:
            assert width == 0 and sigma_value >= 1
        assert width <= square_value <= sigma_value <= 2 * square_value, delta
        for j in range(50):
            phi = random_unimodular_map(index * 50 + j)
            image = apply_map(phi, delta)
            assert lattice_width_recursive(image)[0] == width, (delta, phi)
            assert _size_value(image, "sigma")[0] == sigma_value, (delta, phi)
            assert _size_value(image, "square")[0] == square_value, (delta, phi)
    elapsed = time.perf_counter() - start
    print(
        "ACCEPTANCE criterion 5: PASS -- Pick, chain, width-equality characterization, "
        f"width-area bound and 50-map invariance on {len(corpus)} polygons; {elapsed:.1f}s"
    )


def test_criterion_6_newton_bounds():
    for g in range(2, 11):
        res = analyze(parse_laurent(f"y^2 + x^{2 * g + 1} + 1"))
        assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (
            g, 2, g + 2, (2, g + 1),
        )
    res = analyze(parse_laurent("x^-2*y^-2 + x^2 + y^2 + 1"))
    assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (4, 3, 5, (3, 4))
    print(
        "ACCEPTANCE criterion 6: PASS -- hyperelliptic families g=2..10 and the "
        "dilated-upsilon quartic genus-4 case are exact"
    )


def test_criterion_7_rule_coverage(corpus_values):
    seen = set()
    for _, _, sigma_trace, _, square_trace in corpus_values.values():
        for step in sigma_trace + square_trace:
            seen.add(step.rule)
    for extra in (weierstrass(4), hull([(0, 0), (4, 0), (0, 2)]), upsilon(1)):
        for shape in ("sigma", "square"):
            seen.update(step.rule for step in _size_value(extra, shape)[1])
    missing = ALL_RULES - seen
    assert not missing, f"rules never exercised: {missing}"
    print(f"ACCEPTANCE criterion 7: PASS -- all rule tags exercised: {sorted(ALL_RULES)}")
