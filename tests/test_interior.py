"""Interior hulls and onion skins."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsize import (
    AffineUnimodularMap,
    EmptyPolygonError,
    LatticePolygon,
    apply_map,
    are_equivalent,
    hull,
    interior_hull,
    lattice_size_sigma,
    lattice_size_square,
    lattice_width,
    lattice_width_recursive,
    lawrence_prism,
    measures,
    minimal_box,
    newton_polygon,
    onion_skins,
    parse_laurent,
    random_polygon,
    random_unimodular_map,
    rectangle,
    recognize_special,
    standard_triangle,
    upsilon,
)

import latsize.interior
import latsize.polygon
import latsize.size
from latsize.cli import run_command
from latsize.polygon import _column_bounds, _interior_columns, interior_lattice_points

from columns import column_interior_count
from conftest import fibonacci_shear, long_faced, reference_skins, run_corpus, weierstrass


def test_interior_of_weierstrass_triangle():
    assert interior_hull(weierstrass(4)).vertices == ((1, 1), (4, 1))


def test_interior_single_point_and_rectangle():
    assert interior_hull(standard_triangle(3)).vertices == ((1, 1),)
    assert interior_hull(rectangle(4, 5)) == hull([(1, 1), (3, 1), (3, 4), (1, 4)])


def test_interior_of_degenerate_is_empty():
    assert interior_hull(hull([(0, 0), (4, 2)])).is_empty
    assert interior_hull(hull([(1, 1)])).is_empty
    assert interior_hull(hull([])).is_empty


def test_onion_skins_heptagon(heptagon):
    trace = onion_skins(heptagon)
    assert len(trace.skins) == 3
    inner = recognize_special(trace.skins[-1])
    assert (inner.kind, inner.params) == ("lawrence_prism", (4, 2))


def test_onion_skins_small_cases():
    assert onion_skins(standard_triangle(1)).skins == (standard_triangle(1),)
    skins = onion_skins(standard_triangle(6)).skins
    assert len(skins) == 3
    assert are_equivalent(skins[1], standard_triangle(3)) is not None
    assert skins[2].is_point
    with pytest.raises(EmptyPolygonError):
        onion_skins(hull([]))


def test_onion_chain_is_consistent():
    for seed in range(50):
        delta = random_polygon(seed, 6)
        skins = onion_skins(delta).skins
        for outer, inner in zip(skins, skins[1:]):
            assert interior_hull(outer) == inner
        assert interior_hull(skins[-1]).is_empty


def test_interior_hull_equivariance():
    for seed in range(100):
        delta = random_polygon(seed, 5)
        phi = random_unimodular_map(seed + 12345)
        assert interior_hull(apply_map(phi, delta)) == apply_map(phi, interior_hull(delta))


def test_interior_count_matches_total_of_interior():
    for seed in range(100):
        delta = random_polygon(seed, 6)
        inner = interior_hull(delta)
        expected = column_interior_count(delta)
        assert measures(delta).interior_count == expected, delta
        got = 0 if inner.is_empty else measures(inner).total_count
        assert got == expected, delta


def _enumerated_hull(delta):
    """The interior hull by its definition: the hull of every interior lattice point."""
    return hull(interior_lattice_points(delta))


def _assert_skins_enumerated(delta):
    skins = onion_skins(delta).skins
    for outer, inner in zip(skins, skins[1:]):
        assert inner == _enumerated_hull(outer), outer
    assert _enumerated_hull(skins[-1]).is_empty


def test_interior_hull_matches_enumeration_on_census_and_shears(box3_census):
    for i, delta in enumerate(box3_census):
        assert interior_hull(delta) == _enumerated_hull(delta), delta
        moved = apply_map(random_unimodular_map(i), delta)
        assert interior_hull(moved) == _enumerated_hull(moved), moved


def test_onion_skins_match_enumeration_on_random_polygons():
    for k in (8, 20, 40, 60):
        for seed in range(40):
            _assert_skins_enumerated(random_polygon(seed, k))


def _thin_sheared():
    bases = [
        standard_triangle(1),
        standard_triangle(2),
        rectangle(1, 3),
        rectangle(2, 9),
        lawrence_prism(7, 3),
        hull([(0, 0), (5, 0), (0, 3)]),
        hull([(0, 0), (9, 1), (4, 3)]),
    ]
    for base in bases:
        for m in (5, 17, 61):
            shear = AffineUnimodularMap(1, m, 0, 1, 0, 0)
            for phi in (shear, shear.inverse(), shear.compose(AffineUnimodularMap(1, 0, 1, 1, 0, 0))):
                yield apply_map(phi, base)


def test_onion_skins_match_enumeration_on_thin_sheared_polygons():
    empty_columns = point_columns = 0
    for delta in _thin_sheared():
        _assert_skins_enumerated(delta)
        xs = [x for x, _ in delta.vertices]
        for x in range(min(xs), max(xs) + 1):
            rng = _column_bounds(delta, x)
            empty_columns += rng is None
            point_columns += rng is not None and rng[0] == rng[1]
    # the family must exercise the columns a chain scan can get wrong
    assert empty_columns > 0 and point_columns > 0


def test_onion_skins_match_enumeration_on_long_faces():
    for delta in long_faced():
        _assert_skins_enumerated(delta)


def test_onion_skins_match_enumeration_on_large_random_polygons():
    for k in (100, 200):
        for seed in range(3):
            delta = random_polygon(seed, k)
            _assert_skins_enumerated(delta)
            _assert_skins_enumerated(apply_map(random_unimodular_map(seed), delta))


def _count_columns(monkeypatch, budget=None):
    """Patch the column source of the column scan; the returned list collects the columns it evaluates.

    _column_hull evaluates every column that _undecided_columns yields, and
    no other. With a budget, a scan past that many columns raises, so that a
    scan of far more columns fails at once instead of running on.
    """
    scanned = []
    orig = latsize.interior._undecided_columns

    def counting(delta):
        for x in orig(delta):
            scanned.append(x)
            if budget is not None and len(scanned) > budget:
                raise AssertionError(f"more than {budget} columns scanned")
            yield x

    monkeypatch.setattr(latsize.interior, "_undecided_columns", counting)
    return scanned


def _column_end_hull(delta):
    """The interior hull from the two ends of every interior column, no column skipped."""
    return hull(pt for x, lo, hi in _interior_columns(delta) for pt in ((x, lo), (x, hi)))


def _lens(n):
    """hull{(i, i^2), (i, 2n^2 - i^2) : i < n}: 2n vertices, and every peel is not uniform."""
    return hull([(i, i * i) for i in range(n)] + [(i, 2 * n * n - i * i) for i in range(n)])


def test_column_scan_matches_the_per_column_reference():
    # the scan reads lo and hi off the boundary edge over each column; the
    # reference takes both from every edge constraint. Checked on the skins
    # that the scan peels in a chain, the last skin of each run, and on one
    # image of each under a unimodular map; the interior hull is
    # equivariant, so the image's reference is the image of the skin's
    big = 10**3
    families = [_lens(n) for n in (10, 50, 120)]
    families += [hull([(-big, -big), (big, -big + 5), (big - 7, big), (-big + 3, big - 1)]),
                 newton_polygon(parse_laurent("y^2 + x^10000 + 1"))]
    families += [apply_map(fibonacci_shear(n), base) for n in range(2, 21)
                 for base in (standard_triangle(1), standard_triangle(7))]
    skins = [latsize.interior._moved(skin, shift, count - 1)
             for delta in families for skin, shift, count in onion_skins(delta).runs]
    # interiors of one point, a vertical segment, a diagonal segment and none
    skins += [standard_triangle(3), rectangle(2, 5), hull([(-1, 0), (0, -1), (4, 3), (3, 4)]),
              standard_triangle(2)]
    kinds = set()
    for i, skin in enumerate(skin for skin in skins if skin.is_two_dim):
        phi = random_unimodular_map(i)
        inner = _column_end_hull(skin)
        kinds.add(inner.kind)
        assert latsize.interior._column_hull(skin) == inner, skin
        assert latsize.interior._column_hull(apply_map(phi, skin)) == apply_map(phi, inner), (phi, skin)
    assert kinds == {"empty", "point", "segment", "polygon"}
    segments = [_column_end_hull(skin) for skin in skins[-3:-1]]
    assert segments == [hull([(1, 1), (1, 4)]), hull([(0, 0), (3, 3)])]


def test_run_skins_carry_their_edge_constraints(box3_census):
    # skin t of a run has the constraints (a, b, c - t) of its start's, so
    # _moved seeds them; they must equal the ones computed from the vertices
    polygons = [random_polygon(seed, 1000) for seed in range(3)]
    polygons += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    seeded = 0
    for delta in polygons:
        for skin, shift, count in onion_skins(delta).runs:
            for t in range(1, count):
                moved = latsize.interior._moved(skin, shift, t)
                assert "edge_constraints" in vars(moved)
                assert moved.edge_constraints == LatticePolygon(moved.vertices).edge_constraints, (skin, t)
                seeded += 1
    assert seeded > 500, seeded


def test_interior_hull_scans_few_columns_when_faces_cover_them(monkeypatch):
    # long faces, but a shifted vertex that is fractional or an edge that
    # shrinks to nothing, so the uniform shift does not apply
    cases = [hull(vs) for vs in ([(0, 0), (3000, 0), (3000, 1), (0, 2001)],
                                 [(0, 0), (3000, 0), (3000, 2000), (1, 2000)],
                                 [(0, 0), (3000, 0), (3000, 2000), (2, 2000)])]
    expected = [_column_end_hull(delta) for delta in cases]
    scanned = _count_columns(monkeypatch)
    for delta, inner in zip(cases, expected):
        scanned.clear()
        assert interior_hull(delta) == inner
        # O(edges) columns: the outer ones and those next to the face ends
        assert 0 < len(scanned) <= 3 * len(delta.vertices), len(scanned)


def test_faces_skip_the_columns_of_flat_skins_at_the_guard(monkeypatch):
    # rectangle(2^31, 1) has no interior point, and the uniform run of the
    # quadrilateral ends in a rectangle of height one with 7 * 10^8 columns;
    # the faces on the two long edges skip all but the outer columns only
    # because _face_spans leaves the parallel opposite edge out
    cases = [(rectangle(2**31, 1), 1, 4),
             (hull([(0, 0), (2**31, 0), (2**31, 1431655765), (1, 1431655765)]), 715827882, 8)]
    scanned = _count_columns(monkeypatch, budget=64)
    for delta, count, columns in cases:
        scanned.clear()
        assert onion_skins(delta).runs[-1][2] == count
        assert len(scanned) <= columns, len(scanned)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5, step 3: a non-uniform peel scans the "
                   "x-extent of the skin, not width + 1 columns along the reduced basis")
def test_hyperelliptic_peel_scans_at_most_width_plus_one_columns(monkeypatch):
    # the Newton polygon of y^2 + x^N + 1, conv{(0,0), (N,0), (0,2)}, has
    # width 2 but N + 1 columns; its first peel is not uniform, and at
    # N = 2^31 peel and every --trace on it do not end
    delta = newton_polygon(parse_laurent("y^2 + x^100000 + 1"))
    scanned = _count_columns(monkeypatch)
    onion_skins(delta)
    assert len(scanned) <= lattice_width(delta).width + 1, len(scanned)


def _is_uniform_peel(outer, inner):
    """Whether inner is {a*x + b*y <= c - 1} over the edges a*x + b*y <= c of outer, edge for edge."""
    return sorted(inner.edge_constraints) == sorted((a, b, c - 1) for a, b, c in outer.edge_constraints)


def test_uniform_skins_scan_no_columns(monkeypatch):
    d = 3000
    families = [
        (standard_triangle(d), standard_triangle(d - 3).translate((1, 1))),
        (upsilon(d), upsilon(d - 1)),
        (rectangle(d, d), rectangle(d - 2, d - 2).translate((1, 1))),
        (rectangle(d, 2000), rectangle(d - 2, 1998).translate((1, 1))),
    ]
    peels = []
    for seed in range(3):
        skins = onion_skins(random_polygon(seed, 1000)).skins
        peels += zip(skins, skins[1:])
    uniform = [(outer, inner) for outer, inner in peels if _is_uniform_peel(outer, inner)]
    # most peels of large random polygons are uniform
    assert 2 * len(uniform) > len(peels) > 100
    scanned = _count_columns(monkeypatch)
    for outer, inner in families + uniform:
        scanned.clear()
        assert interior_hull(outer) == inner
        assert not scanned, outer


def test_interior_hull_is_canonical(box3_census):
    # the uniform shift builds its polygon without hull(), so its form is checked here
    polygons = [random_polygon(seed, 1000) for seed in range(3)]
    polygons += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    polygons += [base for d in (1, 2, 3, 7, 40, 3000)
                 for base in (standard_triangle(d), upsilon(d), rectangle(d, d), rectangle(d, 1 + d // 3))]
    polygons += list(long_faced())
    for delta in polygons:
        for skin in onion_skins(delta).skins:
            inner = interior_hull(skin)
            assert inner.vertices == hull(inner.vertices).vertices, skin


def test_runs_expand_to_the_per_skin_chain(box3_census):
    skins = runs = 0
    for delta in run_corpus(box3_census):
        trace = onion_skins(delta)
        want = reference_skins(delta)
        assert list(trace.skins) == want, delta
        ends = []
        for skin, shift, count in trace.runs:
            assert count >= 1 and (count > 1) == bool(shift), skin
            ends.append(latsize.interior._moved(skin, shift, count - 1))
        # runs are maximal: the peel that ends a run is not uniform
        for end, (nxt, _, _) in zip(ends, trace.runs[1:]):
            assert not _is_uniform_peel(end, nxt), end
        assert all(skin.vertices == hull(skin.vertices).vertices for skin in trace.skins), delta
        skins += len(want)
        runs += len(trace.runs)
    # thousands of uniform peels are taken inside runs, not one by one
    assert skins - runs > 5000, (skins, runs)


def _count_hull_calls(monkeypatch):
    """Patch the peels: interior_hull in its module, where analyze imports it, and the column scan of onion_skins.

    The returned list collects their arguments.
    """
    calls = []

    def counting(orig):
        def count(delta):
            calls.append(delta)
            return orig(delta)
        return count

    monkeypatch.setattr(latsize.interior, "interior_hull", counting(latsize.interior.interior_hull))
    monkeypatch.setattr(latsize.interior, "_column_hull", counting(latsize.interior._column_hull))
    return calls


_GUARD = 2**31


def _sigma_trace(delta):
    return lattice_size_sigma(delta).trace


def _square_trace(delta):
    return lattice_size_square(delta).trace


# the sizes and the box peel nothing; the traces, the width recursion and onion_skins walk the chain
_CHAIN_OPS = (lattice_size_sigma, lattice_size_square, _sigma_trace, _square_trace, minimal_box,
              lattice_width_recursive, onion_skins)


def test_runs_take_one_interior_hull_call_each(monkeypatch):
    # d*Sigma, Upsilon_d and a near-square rectangle are one run and a point
    # or segment, at any size; d = 2^31 has about 7 * 10^8 skins
    families = [standard_triangle(3000), upsilon(3000), rectangle(3000, 3001),
                standard_triangle(_GUARD), upsilon(_GUARD // 2), rectangle(_GUARD, _GUARD - 1)]
    large = [random_polygon(seed, 1000) for seed in range(3)]
    bounds = []
    for delta in large:
        want = reference_skins(delta)
        peels = zip(want, want[1:] + [hull([])])
        nonuniform = sum(not _is_uniform_peel(outer, inner) for outer, inner in peels)
        runs = len(onion_skins(delta).runs)
        assert len(want) > 2 * runs, delta
        bounds.append(nonuniform + runs)
    calls = _count_hull_calls(monkeypatch)
    for delta, bound in [(delta, 3) for delta in families] + list(zip(large, bounds)):
        for op in _CHAIN_OPS:
            calls.clear()
            op(delta)
            assert len(calls) <= bound, (op.__name__, delta, len(calls))
    for delta in families[3:]:
        vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in delta.vertices)
        for argv in (["sigma"], ["square"], ["box"], ["peel"], ["width", "--trace"], ["sigma", "--trace"],
                     ["square", "--trace"]):
            calls.clear()
            assert run_command(argv + [vertices, "--json"]).exit_code == 0, (argv, delta)
            assert len(calls) <= 3, (argv, delta, len(calls))
    calls.clear()
    result = run_command(["analyze", "--poly", f"x^{_GUARD} + y^{_GUARD} + 1", "--json"])
    assert result.exit_code == 0 and json.loads(result.stdout)["s2_bound"] == _GUARD
    assert len(calls) <= 4, len(calls)


def test_onion_skins_test_each_run_start_once(monkeypatch):
    # the uniform-shift test runs once per two-dimensional run start: a
    # skin whose peel is not uniform goes straight to the column scan, and
    # the last skin of a run, whose peel the run lemma shows is not uniform,
    # is not tested at all
    tested = []
    orig = latsize.interior._uniform_shift

    def counting(delta):
        tested.append(delta)
        return orig(delta)

    monkeypatch.setattr(latsize.interior, "_uniform_shift", counting)
    n = 10**3
    quadrilateral = hull([(-n, -n), (n, -n + 5), (n - 7, n), (-n + 3, n - 1)])
    for delta in (random_polygon(3, 160), random_polygon(4, 300), quadrilateral):
        tested.clear()
        runs = onion_skins(delta).runs
        starts = [skin for skin, _, _ in runs if skin.is_two_dim]
        assert tested == starts, (delta, len(tested), len(starts))
        assert any(count > 1 for _, _, count in runs) and any(count == 1 for _, _, count in runs[:-1]), delta


_points = st.lists(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)), min_size=1, max_size=9
)


@settings(max_examples=200, deadline=None)
@given(_points, st.integers(-12, 12))
def test_onion_skins_match_enumeration_property(points, m):
    delta = apply_map(AffineUnimodularMap(1, m, 0, 1, 0, 0), hull(points))
    assert interior_hull(delta) == _enumerated_hull(delta)
    _assert_skins_enumerated(delta)
