"""Lattice sizes: recursion rules, witnesses, fits and minimal boxes."""

import pytest

from latsize import (
    EmptyPolygonError,
    apply_map,
    fit_into,
    hull,
    integral_length,
    interior_hull,
    lattice_size_sigma,
    lattice_size_square,
    lattice_width,
    lawrence_prism,
    minimal_box,
    oracle_size,
    parallel_edge_exception,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
    upsilon,
)
from latsize.size import RULE_SEARCH, _size_value

from conftest import in_box, in_sigma, weierstrass


def translated(poly, t):
    return hull([(x + t[0], y + t[1]) for x, y in poly.vertices])


# --- parallel edge scan -----------------------------------------------------


def test_parallel_edge_on_dilated_triangle():
    delta = standard_triangle(4)
    hit = parallel_edge_exception(delta, interior_hull(delta), 3)
    assert (hit.r, hit.s) == (4, 1)


def test_parallel_edge_on_weierstrass():
    delta = weierstrass(4)
    gamma = interior_hull(delta)
    assert gamma.vertices == ((1, 1), (4, 1))
    hit = parallel_edge_exception(delta, gamma, 3)
    assert (hit.r, hit.s) == (9, 3)
    assert hit.tau_prime == ((1, 1), (4, 1))


def test_parallel_edge_absent_on_square():
    delta = rectangle(3, 3)
    assert parallel_edge_exception(delta, interior_hull(delta), 3) is None


def test_parallel_edge_rejects_wrong_gamma():
    delta = standard_triangle(4)
    with pytest.raises(ValueError):
        parallel_edge_exception(delta, standard_triangle(1), 3)


# --- triangle size ----------------------------------------------------------


def test_sigma_heptagon_reference(heptagon):
    cert = lattice_size_sigma(heptagon)
    assert cert.value == 10
    image = apply_map(cert.witness, heptagon)
    assert all(in_sigma(10, v) for v in image.vertices)
    assert [s.rule for s in cert.trace] == ["LawrencePrism", "GenericStep", "GenericStep"]
    assert [s.contribution for s in cert.trace] == [6, 3, 3]


def test_sigma_reference_values():
    assert _size_value(rectangle(2, 3), "sigma")[0] == 5
    assert _size_value(weierstrass(4), "sigma")[0] == 9
    assert _size_value(interior_hull(weierstrass(4)), "sigma")[0] == 3
    assert _size_value(upsilon(2), "sigma")[0] == 6
    assert _size_value(hull([(0, 0), (2, 0), (2, 1), (0, 1)]), "sigma")[0] == 3


def test_sigma_conventions():
    assert lattice_size_sigma(hull([])).value == -2
    assert lattice_size_sigma(hull([(4, 5)])).value == 0
    assert lattice_size_sigma(hull([(0, 0), (3, 0)])).value == 3
    assert lattice_size_sigma(hull([(2, 2), (6, 4)])).value == 2


def test_sigma_family_laws():
    for d in range(1, 9):
        assert _size_value(standard_triangle(d), "sigma")[0] == d
    for a in range(1, 7):
        for b in range(a, 7):
            assert _size_value(rectangle(a, b), "sigma")[0] == a + b
    for d in range(2, 6):
        assert _size_value(upsilon(d), "sigma")[0] == 3 * d
    for a in range(2, 7):
        for b in range(0, a + 1):
            want = a + 1 if a == b else a
            assert _size_value(lawrence_prism(a, b), "sigma")[0] == want, (a, b)


# --- square size ------------------------------------------------------------


def test_square_heptagon_reference(heptagon):
    cert = lattice_size_square(heptagon)
    assert cert.value == 8
    image = apply_map(cert.witness, heptagon)
    assert all(in_box(8, 8, v) for v in image.vertices)
    assert [s.contribution for s in cert.trace] == [5, 2, 2]


def test_square_reference_values():
    assert _size_value(standard_triangle(3), "square")[0] == 3
    assert _size_value(hull([(0, 0), (4, 0), (0, 2)]), "square")[0] == 4
    assert _size_value(hull([(-1, -1), (3, -1), (3, 0), (-1, 4)]), "square")[0] == 5
    cert = lattice_size_square(standard_triangle(4))
    assert cert.value == 4
    hit = [s for s in cert.trace if s.rule == "ParallelEdge"]
    assert hit and hit[-1].params == (4, 1)


def test_small_triangles_take_the_parallel_edge_rule():
    # a long edge facing the single interior point decides these sizes
    for vs in ([(0, 0), (3, 0), (0, 2)], [(0, 0), (3, 0), (2, 1), (0, 2)], [(0, 0), (3, 0), (1, 2), (0, 2)]):
        value, trace = _size_value(hull(vs), "square")
        assert value == 3
        assert (trace[-1].rule, trace[-1].params) == ("ParallelEdge", (3, 0))
    value, trace = _size_value(hull([(0, 0), (4, 0), (0, 2)]), "sigma")
    assert value == 4
    assert (trace[-1].rule, trace[-1].params) == ("ParallelEdge", (4, 0))


def test_square_family_laws():
    for d in range(1, 9):
        assert _size_value(standard_triangle(d), "square")[0] == d
    for a in range(1, 7):
        for b in range(a, 7):
            assert _size_value(rectangle(a, b), "square")[0] == b
    for a in range(2, 7):
        for b in range(0, a + 1):
            assert _size_value(lawrence_prism(a, b), "square")[0] == a, (a, b)


def test_two_dim_skins_need_no_search(box3_census, monkeypatch):
    # every two-dimensional skin takes a rule, innermost or not: the recursion
    # never runs the feasibility search that fit_into and the oracle share
    def no_search(*args):
        raise AssertionError("_size_value ran the feasibility search")

    monkeypatch.setattr("latsize.size._fit_two_dim", no_search)
    for i, delta in enumerate(box3_census):
        for poly in (delta, apply_map(random_unimodular_map(i), delta)):
            for shape in ("sigma", "square"):
                for step in _size_value(poly, shape)[1]:
                    assert not (step.skin.is_two_dim and step.rule == RULE_SEARCH), poly


def test_trace_contributions_telescope():
    for seed in range(100):
        delta = random_polygon(seed, 5)
        for shape, base in (("sigma", -2), ("square", -1)):
            value, trace = _size_value(delta, shape)
            assert base + sum(s.contribution for s in trace) == value


# --- fits -------------------------------------------------------------------


def test_fit_examples(heptagon):
    two_sigma = standard_triangle(2)
    phi = fit_into(two_sigma, "sigma", 2)
    assert phi is not None
    assert all(in_sigma(2, v) for v in apply_map(phi, two_sigma).vertices)
    assert fit_into(rectangle(1, 1), "sigma", 1) is None
    assert fit_into(heptagon, "square", 7) is None
    assert fit_into(heptagon, "square", 8) is not None


def test_fit_degenerate_and_box():
    assert fit_into(hull([(5, 5)]), "sigma", 0) is not None
    seg = hull([(0, 0), (4, 2)])
    assert fit_into(seg, "sigma", 1) is None
    phi = fit_into(seg, "box", (0, 2))
    assert phi is not None
    assert all(in_box(0, 2, v) for v in apply_map(phi, seg).vertices)
    with pytest.raises(ValueError):
        fit_into(seg, "box", (3, 2))
    with pytest.raises(EmptyPolygonError):
        fit_into(hull([]), "sigma", 1)


def test_fit_rejects_unknown_shape():
    for delta in (standard_triangle(3), hull([(1, 1)]), hull([(0, 0), (2, 0)])):
        with pytest.raises(ValueError):
            fit_into(delta, "nonsense", 3)
    with pytest.raises(ValueError):
        oracle_size(standard_triangle(3), "nonsense")


def test_segment_witnesses_reach_both_targets():
    for dx in range(-6, 7):
        for dy in range(0, 7):
            seg = hull([(3, -2), (3 + dx, -2 + dy)])
            if not seg.is_segment:
                continue
            length = integral_length(*seg.vertices)
            flat = apply_map(fit_into(seg, "sigma", length), seg)
            assert flat == hull([(0, 0), (length, 0)])
            assert fit_into(seg, "square", length - 1) is None
            upright = apply_map(fit_into(seg, "box", (length - 1, length)), seg)
            assert upright == hull([(0, 0), (0, length)])
            assert apply_map(minimal_box(seg).witness, seg) == upright


def test_fit_witness_is_deterministic(heptagon):
    assert fit_into(heptagon, "sigma", 10) == fit_into(heptagon, "sigma", 10)


# --- minimal boxes ----------------------------------------------------------


def test_minimal_box_examples(heptagon):
    cert = minimal_box(rectangle(2, 5))
    assert (cert.a, cert.b) == (2, 5)
    assert apply_map(cert.witness, rectangle(2, 5)) == rectangle(2, 5)
    cert = minimal_box(hull([(0, 0), (7, 0), (0, 2)]))
    assert (cert.a, cert.b) == (2, 7)
    cert = minimal_box(heptagon)
    assert (cert.a, cert.b) == (5, 8)
    image = apply_map(cert.witness, heptagon)
    assert all(in_box(5, 8, v) for v in image.vertices)


def test_minimal_box_degenerate():
    cert = minimal_box(hull([(3, 7)]))
    assert (cert.a, cert.b) == (0, 0)
    cert = minimal_box(hull([(0, 0), (6, 4)]))
    assert (cert.a, cert.b) == (0, 2)
    seg_image = apply_map(cert.witness, hull([(0, 0), (6, 4)]))
    assert all(in_box(0, 2, v) for v in seg_image.vertices)
    with pytest.raises(EmptyPolygonError):
        minimal_box(hull([]))


def test_minimal_box_second_width_matches_square_size():
    for seed in range(200):
        delta = random_polygon(seed, 5)
        cert = minimal_box(delta)
        assert cert.a == lattice_width(delta).width
        assert cert.b == _size_value(delta, "square")[0]
        image = apply_map(cert.witness, delta)
        assert all(in_box(cert.a, cert.b, v) for v in image.vertices)


# --- cross-cutting checks ---------------------------------------------------


def test_chain_inequality():
    for seed in range(200):
        delta = random_polygon(seed, 5)
        w = lattice_width(delta).width
        sq = _size_value(delta, "square")[0]
        sg = _size_value(delta, "sigma")[0]
        assert w <= sq <= sg <= 2 * sq


def test_witness_containment_on_random_sample():
    for seed in range(60):
        delta = random_polygon(seed, 5)
        sig = lattice_size_sigma(delta)
        assert all(in_sigma(sig.value, v) for v in apply_map(sig.witness, delta).vertices)
        sq = lattice_size_square(delta)
        assert all(in_box(sq.value, sq.value, v) for v in apply_map(sq.witness, delta).vertices)


def test_values_agree_with_oracle_sample():
    for seed in range(120):
        delta = random_polygon(seed, 4)
        assert _size_value(delta, "sigma")[0] == oracle_size(delta, "sigma")
        assert _size_value(delta, "square")[0] == oracle_size(delta, "square")


def test_translation_invariance():
    delta = weierstrass(3)
    moved = translated(delta, (-11, 23))
    assert _size_value(moved, "sigma")[0] == _size_value(delta, "sigma")[0]
    assert _size_value(moved, "square")[0] == _size_value(delta, "square")[0]
