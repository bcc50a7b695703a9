"""Hulls, measures, unimodular maps, equivalence and shape recognition."""

import copy
import itertools
import math
import pickle

import pytest

from latsize import (
    CoordinateGuardError,
    EmptyPolygonError,
    apply_map,
    are_equivalent,
    census,
    LatticePolygon,
    hull,
    integral_length,
    lattice_width,
    lawrence_prism,
    measures,
    random_polygon,
    random_unimodular_map,
    rectangle,
    recognize_special,
    standard_triangle,
    upsilon,
)
import latsize.polygon
from latsize.polygon import AffineUnimodularMap, complete_to_basis

from columns import column_interior_count
from conftest import HEPTAGON_VERTICES, contains, fibonacci_shear


def test_hull_unit_square():
    assert hull([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]).vertices == (
        (0, 0), (1, 0), (1, 1), (0, 1),
    )


def test_hull_collinear_becomes_segment():
    assert hull([(0, 0), (1, 0), (3, 0)]).vertices == ((0, 0), (3, 0))
    # unsorted, with duplicates: the chains collapse to their ends
    assert hull([(3, 0), (1, 0), (-2, 0), (3, 0), (1, 0)]).vertices == ((-2, 0), (3, 0))
    assert hull([(1, 5), (1, -2), (1, 0), (1, 5)]).vertices == ((1, -2), (1, 5))
    # diagonal and anti-diagonal sets whose ends are not first or last in the input
    assert hull([(2, 3), (-2, -3), (4, 6), (0, 0), (2, 3)]).vertices == ((-2, -3), (4, 6))
    assert hull([(2, 2), (0, 4), (3, 1), (4, 0), (1, 3)]).vertices == ((0, 4), (4, 0))


def test_hull_degenerate_kinds():
    assert hull([]).is_empty
    assert hull([(2, 5), (2, 5)]).vertices == ((2, 5),)
    assert hull([(5, 1), (2, 7)]).vertices == ((2, 7), (5, 1))
    assert hull([(5, 1), (5, -7)]).vertices == ((5, -7), (5, 1))


def test_hull_input_order_irrelevant():
    a = hull([(0, 0), (3, 1), (1, 3), (2, 2)])
    b = hull([(1, 3), (2, 2), (0, 0), (3, 1)])
    assert a == b


def test_hull_of_heptagon_lattice_points(heptagon):
    # brute-force the point set of the heptagon from its edge constraints,
    # then re-hull it
    pts = [
        (x, y)
        for x in range(0, 9)
        for y in range(0, 9)
        if contains(heptagon, (x, y))
    ]
    assert len(pts) == 30
    assert hull(pts) == heptagon


def test_coordinate_guard():
    with pytest.raises(CoordinateGuardError):
        hull([(2**31 + 1, 0)])
    with pytest.raises(CoordinateGuardError):
        hull([(0.5, 0)])


@pytest.mark.parametrize(
    "point",
    [(1, 2, 3), (1,), 5, (True, 0), (0, False), ("1", 2), (1, None), {1: 2, 3: 4}],
    ids=["triple", "single", "int", "bool_x", "bool_y", "str", "none", "dict"],
)
def test_hull_rejects_malformed_points(point):
    with pytest.raises(CoordinateGuardError):
        hull([(0, 0), point, (4, 0)])


def test_measures_reference_counts():
    m = measures(standard_triangle(3))
    assert (m.area2, m.boundary_count, m.interior_count, m.total_count) == (9, 9, 1, 10)
    m = measures(upsilon(1))
    assert (m.area2, m.boundary_count, m.interior_count, m.total_count) == (3, 3, 1, 4)
    m = measures(rectangle(2, 3))
    assert (m.area2, m.boundary_count, m.interior_count, m.total_count) == (12, 10, 2, 12)


def test_measures_degenerate():
    assert measures(hull([(1, 1)])).total_count == 1
    assert measures(hull([(0, 0), (6, 4)])).boundary_count == 3
    with pytest.raises(EmptyPolygonError):
        measures(hull([]))


@pytest.mark.parametrize(
    "p,q,expected",
    [((0, 0), (6, 4), 2), ((0, 0), (7, 0), 7), ((1, 1), (1, 1), 0), ((2, 3), (-1, 5), 1)],
)
def test_integral_length(p, q, expected):
    assert integral_length(p, q) == expected


def test_apply_map_identity_and_shear():
    two_sigma = standard_triangle(2)
    assert apply_map(AffineUnimodularMap.identity(), two_sigma) == two_sigma
    shear = AffineUnimodularMap(1, 1, 0, 1, 0, 0)
    assert apply_map(shear, two_sigma) == hull([(0, 0), (2, 0), (2, 2)])
    swap = AffineUnimodularMap(0, 1, 1, 0, 0, 0)
    assert apply_map(swap, rectangle(2, 5)) == rectangle(5, 2)


def test_map_compose_inverse_roundtrip():
    phi = random_unimodular_map(7)
    inv = phi.inverse()
    assert phi.compose(inv) == AffineUnimodularMap.identity()
    assert inv.compose(phi) == AffineUnimodularMap.identity()


def test_map_rejects_non_unimodular():
    for fields in ((2, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 5, 5), (2, 1, 1, 2, 0, 0)):
        with pytest.raises(ValueError):
            AffineUnimodularMap(*fields)
        # a map forged past the constructor: every other way to build one checks again
        forged = object.__new__(AffineUnimodularMap)
        for name, value in zip(("m11", "m12", "m21", "m22", "t1", "t2"), fields):
            object.__setattr__(forged, name, value)
        identity = AffineUnimodularMap.identity()
        for build in (lambda: identity.compose(forged), lambda: forged.compose(identity), forged.inverse,
                      lambda: copy.copy(forged), lambda: copy.deepcopy(forged),
                      lambda: pickle.loads(pickle.dumps(forged))):
            with pytest.raises(ValueError):
                build()


class _SubPolygon(LatticePolygon):
    pass


class _SubMap(AffineUnimodularMap):
    pass


def test_polygons_and_maps_are_immutable_values():
    # a polygon is a memo key and a map part of every certificate: equal and
    # hash equal exactly when class and fields match, never equal to a
    # tuple, unchangeable, and copied through the constructor
    square = hull([(1, 1), (0, 0), (1, 0), (0, 1)])
    phi = AffineUnimodularMap(1, 2, 0, -1, 3, -4)
    cases = [
        (square, LatticePolygon(((0, 0), (1, 0), (1, 1), (0, 1))),
         [rectangle(1, 2), square.translate((1, 0)), _SubPolygon(square.vertices),
          square.vertices, (square.vertices,)]),
        (phi, AffineUnimodularMap(1, 2, 0, -1, 3, -4),
         [AffineUnimodularMap(1, 2, 0, -1, 3, -5), phi.inverse(), _SubMap(1, 2, 0, -1, 3, -4),
          (1, 2, 0, -1, 3, -4)]),
    ]
    # the hash is _Frozen's, hash((vertices,)), whatever the polygon keeps in its dict
    assert "__hash__" not in vars(LatticePolygon)
    for value, twin, others in cases:
        if isinstance(value, LatticePolygon):
            # a polygon keeps its reduced basis beside area2; that changes
            # neither its hash nor its equality, also on polygons built
            # separately
            assert hash(value) == hash((value.vertices,))
            lattice_width(value)
            other_build = hull(value.vertices[::-1])
            for delta in (twin, other_build):
                assert "_basis" not in delta.__dict__
                lattice_width(delta)
                assert hash(delta) == hash((delta.vertices,)) == hash(value) and delta == value
            assert hash(value) == hash((value.vertices,))
        assert value == twin and hash(value) == hash(twin) and value is not twin
        assert all(value != other and other != value for other in others), value
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
    assert square.area2 == 2 and square.edge_constraints == ((0, -1, 0), (1, 0, 1), (0, 1, 1), (-1, 0, 0))
    for value, name in ((square, "vertices"), (square, "area2"), (square, "edge_constraints"), (square, "_basis"),
                        (square, "_square"), (square, "extra"), (phi, "m11"), (phi, "t2"), (phi, "extra"),
                        (lattice_width(square), "width")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert square == cases[0][1] and square.area2 == 2 and phi.apply((0, 0)) == (3, -4)
    match (square, phi):
        case (LatticePolygon(vertices), AffineUnimodularMap(m11, m12, m21, m22, t1, t2)):
            assert vertices == square.vertices and (m11, m12, m21, m22, t1, t2) == (1, 2, 0, -1, 3, -4)
        case _:
            pytest.fail("positional patterns no longer match")


def test_random_pairs_preserve_measures_and_stay_equivalent():
    for seed in range(1000):
        delta = random_polygon(seed, 4)
        phi = random_unimodular_map(seed)
        image = apply_map(phi, delta)
        assert measures(image) == measures(delta)
        back = are_equivalent(delta, image)
        assert back is not None
        assert apply_map(back, delta) == image


def test_are_equivalent_examples():
    assert are_equivalent(standard_triangle(2), hull([(0, 0), (2, 0), (2, 2)])) is not None
    assert are_equivalent(standard_triangle(1), rectangle(1, 1)) is None
    flip = are_equivalent(hull([(0, 0), (5, 0), (0, 2)]), hull([(0, 0), (5, 0), (5, 2)]))
    assert flip is not None


def test_are_equivalent_reflexive_and_invertible(heptagon):
    phi = are_equivalent(heptagon, heptagon)
    assert phi is not None
    other = apply_map(random_unimodular_map(3), heptagon)
    fwd = are_equivalent(heptagon, other)
    assert apply_map(fwd, heptagon) == other
    assert apply_map(fwd.inverse(), other) == heptagon


def test_are_equivalent_degenerate():
    assert are_equivalent(hull([(1, 2)]), hull([(5, -1)])) is not None
    assert are_equivalent(hull([(0, 0), (2, 2)]), hull([(1, 0), (3, 1)])) is None
    seg = are_equivalent(hull([(0, 0), (2, 2)]), hull([(0, 0), (0, 2)]))
    assert seg is not None and apply_map(seg, hull([(0, 0), (2, 2)])) == hull([(0, 0), (0, 2)])


def test_are_equivalent_maps_pairs_at_the_guard():
    # a candidate is tested on the images of the vertices, which are not
    # hulled, so a rejected candidate may send them beyond the guard
    n = 2**31
    wide = hull([(0, 0), (n, 0), (0, 1)])
    sliver = hull([(0, 0), (n, 1), (n - 1, 2), (1, 1)])
    for delta, image in ((wide, hull([(-x, -y) for x, y in wide.vertices])),
                         (sliver, hull([(y, x) for x, y in sliver.vertices]))):
        phi = are_equivalent(delta, image)
        assert phi is not None and apply_map(phi, delta) == image, (delta, phi)


def test_complete_to_basis_has_determinant_one():
    for u in itertools.product(range(-40, 41), repeat=2):
        if math.gcd(*u) == 1:
            w = complete_to_basis(u)
            assert u[0] * w[1] - u[1] * w[0] == 1, (u, w)
        else:
            with pytest.raises(ValueError, match="primitive"):
                complete_to_basis(u)


def test_recognize_reference_shapes():
    assert recognize_special(hull([(0, 0), (4, 0), (0, 4)])).params == (4,)
    up = recognize_special(hull([(-2, -2), (2, 0), (0, 2)]))
    assert (up.kind, up.params) == ("upsilon", (2,))
    assert recognize_special(hull([(0, 0), (1, 2), (3, 3), (2, 1)])) is None
    pr = recognize_special(hull([(0, 0), (3, 0), (1, 1), (0, 1)]))
    assert (pr.kind, pr.params) == ("lawrence_prism", (3, 1))
    sq = recognize_special(rectangle(3, 2))
    assert (sq.kind, sq.params) == ("rectangle", (2, 3))


def test_recognize_degenerate_rejected():
    with pytest.raises(Exception):
        recognize_special(hull([(0, 0), (1, 0)]))


@pytest.mark.parametrize(
    "family,expected",
    [
        (lambda d: standard_triangle(d), lambda d: ("standard_triangle", (d,))),
        (lambda d: upsilon(d), lambda d: ("upsilon", (d,))),
    ],
)
def test_recognition_stable_under_random_maps(family, expected):
    for d in range(1, 9):
        shape = family(d)
        for seed in range(50):
            image = apply_map(random_unimodular_map(seed * 31 + d), shape)
            got = recognize_special(image)
            assert (got.kind, got.params) == expected(d), (d, seed)


def test_rectangle_and_prism_recognition_stable():
    for a in range(1, 5):
        for b in range(a, 5):
            want = ("rectangle", (a, b))
            for seed in range(50):
                image = apply_map(random_unimodular_map(seed * 17 + a + 7 * b), rectangle(a, b))
                got = recognize_special(image)
                assert (got.kind, got.params) == want, (a, b, seed)
    for a in range(2, 6):
        for b in range(0, a):
            if (a, b) == (1, 0):
                continue
            prism = lawrence_prism(a, b)
            for seed in range(50):
                image = apply_map(random_unimodular_map(seed * 13 + 3 * a + b), prism)
                got = recognize_special(image)
                assert (got.kind, got.params) == ("lawrence_prism", (a, b)), (a, b, seed)
    # a prism's top is longer than its bottom: equal parallel edges make a rectangle, named first
    shapes = [recognize_special(delta) for delta in census(3) if delta.is_two_dim]
    prisms = [s for s in shapes if s is not None and s.kind == "lawrence_prism"]
    assert prisms and all(s.params[0] > s.params[1] for s in prisms)


def test_pick_identity_on_random_polygons():
    for seed in range(200):
        delta = random_polygon(seed, 6)
        m = measures(delta)
        interior = column_interior_count(delta)
        assert m.interior_count == interior, delta
        assert m.area2 == 2 * interior + m.boundary_count - 2, delta


def test_measures_ends_at_the_guard_without_counting_columns(monkeypatch):
    # each expected count is a closed form, not Pick's formula
    def refuse(delta):
        raise AssertionError("measures must not count the interior column by column")

    monkeypatch.setattr(latsize.polygon, "_interior_columns", refuse)
    n = 2**31
    m = measures(standard_triangle(n))
    assert (m.interior_count, m.boundary_count) == ((n - 1) * (n - 2) // 2, 3 * n)
    assert m.total_count == (n + 1) * (n + 2) // 2
    sliver = apply_map(fibonacci_shear(43), standard_triangle(1))
    assert max(x for x, _ in sliver.vertices) == 433494437
    m = measures(sliver)
    assert (m.interior_count, m.boundary_count) == (0, 3)
    m = measures(hull([(0, 0), (n, 0), (0, 2)]))
    assert (m.interior_count, m.boundary_count) == (2**30 - 1, n + 4)


_REPRESENTATIVE = {
    "standard_triangle": standard_triangle,
    "upsilon": upsilon,
    "rectangle": rectangle,
    "lawrence_prism": lawrence_prism,
}


def test_recognized_shape_is_equivalent_to_its_representative(box3_census):
    families = [f(d) for f in (standard_triangle, upsilon) for d in range(1, 7)]
    families += [f(a, b) for a in range(1, 6) for b in range(a + 1) for f in (rectangle, lawrence_prism)]
    polygons = [p for p in box3_census + families if p.is_two_dim]
    polygons += [apply_map(random_unimodular_map(i), p) for i, p in enumerate(polygons)]
    kinds = set()
    for delta in polygons:
        special = recognize_special(delta)
        if special is not None:
            kinds.add(special.kind)
            ref = _REPRESENTATIVE[special.kind](*special.params)
            assert are_equivalent(delta, ref) is not None, (delta, special)
    assert kinds == set(_REPRESENTATIVE)
