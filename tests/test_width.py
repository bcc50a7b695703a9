"""Lattice width: enumeration, recursion and their agreement."""

import pytest

from latsize import (
    EmptyPolygonError,
    analyze,
    apply_map,
    hull,
    lattice_size_sigma,
    lattice_size_square,
    lattice_width,
    lattice_width_recursive,
    lawrence_prism,
    minimal_box,
    parse_laurent,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
    upsilon,
    width_along,
)
from latsize.size import _rule_runs, _size_value
from latsize.width import _reduced_basis

from conftest import fibonacci_shear, weierstrass
from disc import _euclidean_width_sq, _primitive_directions


def test_width_along_reference_values(heptagon):
    assert width_along(standard_triangle(5), (1, 0)) == 5
    assert width_along(upsilon(1), (1, -1)) == 2
    assert width_along(heptagon, (1, 0)) == 8


def test_width_along_errors():
    with pytest.raises(ValueError):
        width_along(standard_triangle(1), (0, 0))
    with pytest.raises(EmptyPolygonError):
        width_along(hull([]), (1, 0))


@pytest.mark.parametrize("d", range(1, 9))
def test_width_of_standard_triangles(d):
    assert lattice_width(standard_triangle(d)).width == d


def test_width_of_rectangles():
    result = lattice_width(rectangle(5, 2))
    assert result.width == 2
    assert (0, 1) in result.directions
    assert lattice_width(rectangle(3, 3)).width == 3


def test_width_of_heptagon_reference_value(heptagon):
    # frozen value, computed up front by the bounded direction enumeration
    result = lattice_width(heptagon)
    assert result.width == 5
    assert result.directions == ((1, 1),)


def test_width_degenerate_conventions():
    assert lattice_width(hull([])).width == -1
    assert lattice_width(hull([])).directions == ()
    point = lattice_width(hull([(3, 4)]))
    assert point.width == 0 and point.directions
    seg = lattice_width(hull([(0, 0), (6, 4)]))
    assert seg.width == 0
    assert seg.directions == ((2, -3),) or seg.directions == ((-2, 3),)


def test_width_directions_achieve_width():
    for seed in range(100):
        delta = random_polygon(seed, 5)
        result = lattice_width(delta)
        assert result.directions
        for u in result.directions:
            assert width_along(delta, u) == result.width


def _disc_width(delta):
    """Width and optimal directions of a two-dimensional delta by a scan of a disc of directions.

    With w the width along the first direction that lattice_width reports,
    an optimal u has |u| * wE <= width(u) <= w for the Euclidean width wE,
    so the disc |u|^2 <= (w / wE)^2 holds every optimal direction.
    """
    result = lattice_width(delta)
    w = width_along(delta, result.directions[0])
    we2 = _euclidean_width_sq(delta)
    widths = {u: width_along(delta, u) for u in _primitive_directions(w * w * we2.denominator // we2.numerator)}
    best = min(widths.values())
    return best, tuple(u for u, v in widths.items() if v == best)


@pytest.mark.parametrize(
    "vertices, directions",
    [
        # short = (0, 1), long = (1, 0): 2 * long - short ties
        ([(0, 0), (1, 0), (2, 2), (1, 2)], ((0, 1), (1, 0), (1, -1), (2, -1))),
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], ((0, 1), (1, 0), (1, -1), (1, 1))),
        ([(0, 0), (1, 0), (0, 1)], ((0, 1), (1, 0), (1, 1))),
        # short = (0, 1), long = (1, 0): long - 2 * short ties
        ([(0, 0), (2, 1), (2, 2), (0, 1)], ((0, 1), (1, 0), (1, -1), (1, -2))),
        # short = (1, 0), long = (-3, 1): long + 2 * short ties
        ([(1, 3), (2, 4), (3, 7), (2, 6)], ((1, 0), (1, -1), (2, -1), (3, -1))),
    ],
)
def test_width_lists_every_optimal_direction(vertices, directions):
    delta = hull(vertices)
    assert lattice_width(delta).directions == directions
    assert _disc_width(delta) == (lattice_width(delta).width, directions)


def _sheared_disc_width(base, phi):
    """_disc_width of apply_map(phi, base) for a linear phi, from a disc scan of base.

    The image's width along u is the base's along phi^T u, so its optimal
    directions are phi^-T of the base's. This keeps the scan small on
    slivers, whose own disc is huge, and keeps it apart from the reduced
    basis.
    """
    width, directions = _disc_width(base)
    det = phi.det
    mapped = (
        (det * (phi.m22 * v[0] - phi.m21 * v[1]), det * (phi.m11 * v[1] - phi.m12 * v[0])) for v in directions
    )
    mapped = (u if u[0] > 0 or (u[0] == 0 and u[1] > 0) else (-u[0], -u[1]) for u in mapped)
    return width, tuple(sorted(mapped, key=lambda u: (u[0] * u[0] + u[1] * u[1], u[0], u[1])))


def test_width_directions_match_the_disc_scan(box3_census):
    checked = 0
    for n, delta in enumerate(box3_census):
        if not delta.is_two_dim:
            continue
        for image in (delta, *(apply_map(random_unimodular_map(2 * n + j), delta) for j in range(2))):
            result = lattice_width(image)
            assert (result.width, result.directions) == _disc_width(image), image
            checked += 1
    assert checked > 7000
    slivers = 0
    for base, _, n, image in _fibonacci_shears(20):
        result = lattice_width(image)
        assert (result.width, result.directions) == _sheared_disc_width(base, fibonacci_shear(n)), (base, n)
        slivers += 1
    assert slivers == 3 * 18


def test_recursive_standard_triangle_trace():
    value, trace = lattice_width_recursive(standard_triangle(5))
    assert value == 5
    assert [step.rule for step in trace] == ["StandardTriangleException"]


def test_recursive_base_cases():
    assert lattice_width_recursive(weierstrass(4))[0] == 2
    assert lattice_width_recursive(lawrence_prism(4, 2))[0] == 1
    assert lattice_width_recursive(standard_triangle(2))[0] == 2
    assert lattice_width_recursive(standard_triangle(3))[0] == 3
    assert lattice_width_recursive(upsilon(1))[0] == 2
    assert lattice_width_recursive(hull([(5, 5)]))[0] == 0
    with pytest.raises(EmptyPolygonError):
        lattice_width_recursive(hull([]))


def test_recursive_agrees_with_enumeration_on_random():
    for seed in range(1000):
        delta = random_polygon(seed, 5)
        assert lattice_width_recursive(delta)[0] == lattice_width(delta).width, delta


def test_width_is_unimodular_invariant():
    for seed in range(200):
        delta = random_polygon(seed, 5)
        phi = random_unimodular_map(seed * 7 + 1)
        assert lattice_width(apply_map(phi, delta)).width == lattice_width(delta).width


def test_width_squared_bounded_by_area():
    # 3 * width^2 <= 4 * area2 for every two-dimensional polygon
    for seed in range(300):
        delta = random_polygon(seed, 6)
        w = lattice_width(delta).width
        assert 3 * w * w <= 4 * delta.area2, delta


def test_width_equals_triangle_size_only_for_standard_triangles(box3_census):
    from latsize import recognize_special

    for delta in box3_census:
        if not delta.is_two_dim:
            continue
        w = lattice_width(delta).width
        s = _size_value(delta, "sigma")[0]
        special = recognize_special(delta)
        is_std = special is not None and special.kind == "standard_triangle"
        assert (w == s) == is_std, delta


def _fibonacci_shears(top=44):
    """(base, its two successive width minima, n, image) under the n-th Fibonacci shear, 3 <= n <= top.

    [[F(n), F(n-1)], [F(n-1), F(n-2)]] is the slowest shear to undo: the
    reduction takes about n/2 passes. Images with a coordinate beyond 2^31
    are left out; the entries reach F(44) < 2^30.
    """
    guard = 1 << 31
    for base, widths in ((standard_triangle(1), (1, 1)), (rectangle(2, 5), (2, 5)), (lawrence_prism(4, 1), (1, 4))):
        for n in range(3, top + 1):
            points = [fibonacci_shear(n).apply(v) for v in base.vertices]
            if max(abs(c) for p in points for c in p) <= guard:
                yield base, widths, n, hull(points)


def test_reduced_basis_converges_on_fibonacci_shears():
    # peeling such slivers takes time linear in F(n), so the basis is checked directly
    checked = 0
    for base, widths, n, image in _fibonacci_shears():
        short, long, w, line = _reduced_basis(image)
        assert (width_along(image, short), width_along(image, long)) == widths, (base, n)
        # the entry's widths are those of short and long + x * short, |x| <= 1
        assert w == width_along(image, short), (base, n)
        assert line == tuple(width_along(image, (long[0] + x * short[0], long[1] + x * short[1])) for x in (-1, 0, 1))
        checked += 1
    assert checked == 42 + 40 + 41


_CHAIN = (lattice_width, lattice_size_sigma, lattice_size_square, minimal_box)


def test_one_reduction_per_polygon(box3_census):
    # the width, both witnesses, the box and analyze read one memoised
    # basis: whichever of them runs first reduces, the others hit the memo,
    # also on an equal polygon built separately, as the chain memo does
    polygons = [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    polygons += [random_polygon(seed, 160) for seed in range(3)]
    polygons += [image for base, _, _, image in _fibonacci_shears(20) if base == standard_triangle(1)]
    for delta in polygons:
        twin = hull(delta.vertices[::-1])
        assert twin == delta and twin is not delta
        # points and segments too: their witnesses read the basis
        for ops in (_CHAIN, _CHAIN[::-1]):
            _reduced_basis.cache_clear()
            _rule_runs.cache_clear()
            for op in ops:
                op(delta)
            for op in ops:
                op(twin)
            assert _reduced_basis.cache_info().misses == 1, (delta, ops[0].__name__)
            assert _rule_runs.cache_info().misses == 1, (delta, ops[0].__name__)
    # analyze reads the basis of its interior only, through the minimal box
    # and the Sigma reach, a segment interior too, and peels no interior
    _reduced_basis.cache_clear()
    _rule_runs.cache_clear()
    hyperelliptic = analyze(parse_laurent("y^2 + x^9 + x + 1"))
    assert hyperelliptic.interior.is_segment and _reduced_basis.cache_info().misses == 1
    for _ in range(2):
        quintic = analyze(parse_laurent("x^5 + y^5 + 1"))
    assert quintic.interior.is_two_dim and _reduced_basis.cache_info().misses == 2
    assert _rule_runs.cache_info().misses == 0


def test_memoised_basis_is_the_fresh_reduction(box3_census):
    images = [image for _, _, _, image in _fibonacci_shears()]
    images += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    for image in images:
        assert _reduced_basis(image) == _reduced_basis.__wrapped__(image), image
    # a certificate does not depend on which reader filled the memo
    for delta in images[-len(box3_census):]:
        _reduced_basis.cache_clear()
        sigma_first = (lattice_size_sigma(delta), lattice_size_square(delta), minimal_box(delta))
        _reduced_basis.cache_clear()
        box_first = minimal_box(delta)
        assert (lattice_size_sigma(delta), lattice_size_square(delta), box_first) == sigma_first, delta


@pytest.fixture
def measured(monkeypatch):
    """Every direction that width.width_along is asked for while the fixture is active, in order."""
    from latsize import width

    log = []

    def counting(delta, u):
        log.append(u)
        return width_along(delta, u)

    monkeypatch.setattr(width, "width_along", counting)
    return log


def _work_corpus(box3_census):
    images = [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    return images + [image for _, _, _, image in _fibonacci_shears()]


def test_a_reduction_measures_each_direction_once(box3_census, measured):
    # the line search keeps what it measured, within a pass and from one
    # pass to the next, so no direction (or its negative) is measured twice
    for image in _work_corpus(box3_census):
        measured.clear()
        _reduced_basis.__wrapped__(image)
        normalized = [u if u > (0, 0) else (-u[0], -u[1]) for u in measured]
        assert len(set(normalized)) == len(normalized), (image, measured)


def test_warm_lattice_width_measures_at_most_four_directions(box3_census, measured):
    # the tie set of long + x * short for |x| <= 1 comes from the memo entry;
    # only long +- 2 * short and 2 * long +- short can be measured again
    counts = []
    for image in _work_corpus(box3_census):
        _reduced_basis(image)
        measured.clear()
        lattice_width(image)
        counts.append(len(measured))
    assert max(counts) <= 4
    assert counts.count(0) > len(counts) // 2


def test_lattice_width_of_a_thin_triangle_measures_nothing(measured):
    # +-short is the only optimal direction of conv{(0,0), (5,0), (0,2)}
    thin = hull([(0, 0), (5, 0), (0, 2)])
    images = [apply_map(random_unimodular_map(seed), thin) for seed in range(50)]
    images += [apply_map(fibonacci_shear(n), thin) for n in range(3, 30)]
    for image in images:
        _reduced_basis(image)
        measured.clear()
        result = lattice_width(image)
        assert result.width == 2 and len(result.directions) == 1, image
        assert measured == [], image
