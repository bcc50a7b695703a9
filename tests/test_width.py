"""Lattice width: enumeration, recursion and their agreement."""

import hashlib
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsize import (
    AffineUnimodularMap,
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
from latsize.size import _checked_map, _size_value
from latsize.width import _checked_basis, _gauss_reduce, _line_width, _min_convex, _pair_extremes

import line_search_reference
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
    # a segment's one optimal direction is its normal, normalised
    assert lattice_width(hull([(0, 0), (6, 4)])) == (0, ((2, -3),))
    assert lattice_width(hull([(-3, 2), (5, 2)])) == (0, ((0, 1),))
    assert lattice_width(hull([(4, -1), (4, 7)])) == (0, ((1, 0),))
    g = 2**31
    assert lattice_width(hull([(-g, 5), (g, 5)])) == (0, ((0, 1),))
    assert lattice_width(hull([(3, -g), (3, g)])) == (0, ((1, 0),))
    assert lattice_width(hull([(g, -g), (-g, g)])) == (0, ((1, 1),))
    assert lattice_width(hull([(-g, -g), (g, g - 1)])) == (0, ((2 * g - 1, -2 * g),))


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
    # 2*Sigma is the innermost skin, and 5*Sigma adds 3 as a standard triangle
    value, trace = lattice_width_recursive(standard_triangle(5))
    assert value == 5
    assert [step.rule for step in trace] == ["TwoSigma", "GenericStep"]
    assert [step.contribution for step in trace] == [2, 3]


def test_recursive_width_family_laws():
    # each family peels in one run of generic steps around its innermost
    # skin, so its trace has at most two entries however large it is
    families = [(standard_triangle(d), d) for d in range(1, 3001)]
    families += [(upsilon(d), 2 * d) for d in range(1, 3001)]
    families += [(rectangle(a, b), a) for a in range(1, 3001, 7) for b in {a, a + 1, 2 * a + 3, 3000} if a <= b]
    for delta, width in families:
        value, trace = lattice_width_recursive(delta)
        assert value == width and len(trace) <= 2, delta
        assert sum(step.contribution * step.count for step in trace) == width, delta


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


def _holds_only_tuples_and_ints(value) -> bool:
    return type(value) is int or (type(value) is tuple and all(map(_holds_only_tuples_and_ints, value)))


def test_reduced_basis_converges_on_fibonacci_shears(box3_census):
    # peeling such slivers takes time linear in F(n), so the basis is checked directly
    checked = 0
    for base, widths, n, image in _fibonacci_shears():
        short, long, w, line, _, _ = _checked_basis(image)
        assert (width_along(image, short), width_along(image, long)) == widths, (base, n)
        # the entry's widths are those of short and long + x * short, |x| <= 1
        assert w == width_along(image, short), (base, n)
        assert line == tuple(width_along(image, (long[0] + x * short[0], long[1] + x * short[1])) for x in (-1, 0, 1))
        checked += 1
    assert checked == 42 + 40 + 41
    # the entry's dot lists are those of its rows, and it holds nothing a reader could change
    corpus = [image for _, _, _, image in _fibonacci_shears()] + box3_census
    corpus += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    corpus += [random_polygon(seed, k) for k in (5, 40, 160) for seed in range(4)]
    for delta in corpus:
        entry = short, long, _, _, dots_short, dots_long = _checked_basis(delta)
        for u, dots in ((short, dots_short), (long, dots_long)):
            assert dots == tuple(u[0] * x + u[1] * y for x, y in delta.vertices), delta
        assert _holds_only_tuples_and_ints(entry), delta


_CHAIN = (lattice_width, lattice_size_sigma, lattice_size_square, minimal_box)


@pytest.fixture
def reductions(monkeypatch):
    """Every polygon that width._gauss_reduce reduces while the fixture is active, in order."""
    from latsize import width

    log = []

    def counting(delta):
        log.append(delta)
        return _gauss_reduce(delta)

    monkeypatch.setattr(width, "_gauss_reduce", counting)
    return log


def test_one_reduction_per_polygon(box3_census, reductions, monkeypatch):
    # the width, both sizes, the box and analyze read the basis that the
    # polygon keeps: whichever of them runs first reduces, the others read
    # the entry. An equal polygon built separately keeps its own entry, so
    # it reduces once more
    def no_chain(*args):
        raise AssertionError("a default call walked the chain")

    # none of them peels: the chain is walked only when a trace is read
    monkeypatch.setattr("latsize.size.onion_skins", no_chain)
    bases = [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    bases += [random_polygon(seed, 160) for seed in range(3)]
    bases += [image for base, _, _, image in _fibonacci_shears(20) if base == standard_triangle(1)]
    for base in bases:
        # points and segments too: their witnesses read the basis
        for ops in (_CHAIN, _CHAIN[::-1]):
            delta, twin = hull(base.vertices), hull(base.vertices[::-1])
            assert twin == delta and twin is not delta
            reductions.clear()
            for op in ops:
                op(delta)
            assert reductions == [delta], (delta, ops[0].__name__)
            assert delta.__dict__["_basis"] == _gauss_reduce(delta), delta
            for op in ops:
                op(twin)
            assert reductions == [delta, twin] and reductions[1] is twin, (delta, ops[0].__name__)
    # analyze reads the basis of its interior only, through the minimal box
    # and the Sigma reach, a segment interior too, and peels no interior
    # beyond the one interior hull; each call builds its interior afresh
    reductions.clear()
    hyperelliptic = analyze(parse_laurent("y^2 + x^9 + x + 1"))
    assert hyperelliptic.interior.is_segment and reductions == [hyperelliptic.interior]
    for _ in range(2):
        reductions.clear()
        quintic = analyze(parse_laurent("x^5 + y^5 + 1"))
        assert quintic.interior.is_two_dim and reductions == [quintic.interior]


def test_memoised_basis_is_the_fresh_reduction(box3_census):
    images = [image for _, _, _, image in _fibonacci_shears()]
    images += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    for image in images:
        assert _checked_basis(image) == _gauss_reduce(image), image
        assert _checked_basis(image) is image.__dict__["_basis"], image
    # a certificate does not depend on which reader filled the entry, nor
    # does the checked square entry that the square size and the box share
    for delta in images[-len(box3_census):]:
        fresh = hull(delta.vertices)
        sigma_first = (lattice_size_sigma(fresh), lattice_size_square(fresh), minimal_box(fresh))
        square_filled = fresh.__dict__["_square"]
        fresh = hull(delta.vertices)
        box_first = minimal_box(fresh)
        box_filled = fresh.__dict__["_square"]
        assert (lattice_size_sigma(fresh), lattice_size_square(fresh), box_first) == sigma_first, delta
        # the entry is the box (w, value, witness), the square size its value and witness
        assert square_filled == box_filled == _checked_map(fresh, "square") == tuple(sigma_first[2]), delta
        assert square_filled[1:] == sigma_first[1][1:3], delta
        assert fresh.__dict__["_square"] is box_filled, delta


def test_threads_share_fresh_polygons(box3_census):
    # values are safe to share between threads, and the basis and the
    # checked square entry are written into the shared polygon on first
    # read: 8 threads, more than the cores, read width, both sizes and the
    # box of the same fresh polygons at a short switch interval, half of
    # them box first. A race may reduce or check a polygon twice, but every
    # result must be the single-thread one and every entry whole
    def corpus():
        polygons = [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census[::4])]
        return polygons + [random_polygon(seed, 160) for seed in range(8)]

    def chain(polygons, step=1):
        return [tuple(op(delta) for op in _CHAIN[::step])[::step] for delta in polygons]

    want = chain(corpus())
    shared = corpus()
    assert not any("_basis" in delta.__dict__ or "_square" in delta.__dict__ for delta in shared)
    results, failures = {}, []
    start = threading.Barrier(8)

    def worker(i):
        try:
            start.wait(timeout=5)
            results[i] = chain(shared, 1 if i % 2 else -1)
        except Exception as exc:  # reported below, as the thread cannot fail the test
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(8)]
    began = time.monotonic()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sorted(results) == list(range(8)) and all(results[i] == want for i in range(8))
    for delta in shared:
        assert delta.__dict__["_basis"] == _gauss_reduce(delta), delta
        assert delta.__dict__["_square"] == _checked_map(delta, "square"), delta
    assert time.monotonic() - began < 5


@pytest.fixture
def measured(monkeypatch):
    """The dot list of every direction that width._line_width measures while the fixture is active, in order.

    A test warms the basis (_checked_basis) before it calls lattice_width,
    so no reduction runs there, and each call logged is one of the tie
    candidates beyond the memo entry, measured on the entry's dot lists.
    """
    from latsize import width

    log = []

    def counting(a, b, k):
        log.append(tuple(s + k * t for s, t in zip(a, b)))
        return _line_width(a, b, k)

    monkeypatch.setattr(width, "_line_width", counting)
    return log


# The forms x, y, x - y and x + y whose extremes width._pair_extremes takes, in its order.
_FRAME_DIRECTIONS = ((1, 0), (0, 1), (1, -1), (1, 1))


@pytest.fixture
def line_points(monkeypatch):
    """The dot list of every direction that a reduction measures while the fixture is active, in order.

    The first pass's sweep (_pair_extremes) logs its four directions, the
    rows and both neighbours of the first line, so a reduction that starts
    at a reduced frame logs them too; every later point comes through
    _line_width.
    """
    from latsize import width

    log = []

    def counting(a, b, k):
        log.append(tuple(s + k * t for s, t in zip(a, b)))
        return _line_width(a, b, k)

    def sweeping(pairs):
        pairs = tuple(pairs)
        log.extend(tuple(u[0] * x + u[1] * y for x, y in pairs) for u in _FRAME_DIRECTIONS)
        return _pair_extremes(pairs)

    monkeypatch.setattr(width, "_line_width", counting)
    monkeypatch.setattr(width, "_pair_extremes", sweeping)
    return log


def _direction(delta, dots):
    """The u with dots == [u . p for p in delta.vertices]; two of the vertices must be linearly independent."""
    vs = delta.vertices
    i, j = next((i, j) for i in range(len(vs)) for j in range(i) if vs[i][0] * vs[j][1] != vs[i][1] * vs[j][0])
    (px, py), (qx, qy) = vs[i], vs[j]
    det = px * qy - py * qx
    u = ((dots[i] * qy - dots[j] * py) // det, (px * dots[j] - qx * dots[i]) // det)
    assert dots == tuple(u[0] * x + u[1] * y for x, y in vs), (delta, dots)
    return u


def _work_corpus(box3_census):
    images = [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    return images + [image for _, _, _, image in _fibonacci_shears()]


def test_a_reduction_measures_each_direction_once(box3_census, line_points):
    # the line search keeps what it measured, within a pass and from one
    # pass to the next, so no direction (or its negative) is measured twice.
    # Each point measured is read back as its direction r1 + k * r2 from its
    # dots. Widths do not change under translation, so a segment on a line
    # through 0 is moved off it, for its two vertices to tell the direction;
    # a point's one dot cannot, so points are left out.
    for image in _work_corpus(box3_census):
        if image.is_point:
            continue
        if image.is_segment:
            (px, py), (qx, qy) = image.vertices
            if px * qy == py * qx:
                image = image.translate((py - qy, qx - px))
        line_points.clear()
        _gauss_reduce(image)
        measured = [_direction(image, dots) for dots in line_points]
        normalized = [u if u > (0, 0) else (-u[0], -u[1]) for u in measured]
        assert measured and len(set(normalized)) == len(normalized), (image, measured)


# sha256 over the dot list of every direction that _gauss_reduce measures
# (line_points), in order, on each polygon of _work_corpus. It pins which
# points the passes measure, as _CHAIN_SHA256 in test_size.py pins what the
# chain returns; it was taken with the first pass's four widths taken in one
# sweep and a pass that stops measuring no point beyond its two neighbours.
_PASS_POINTS_SHA256 = "a08468ca2de225f7ca4e6fc220ed2216b32187b24cac67ebcdbfe82748183d79"


def test_the_reduction_pass_points_are_pinned(box3_census, line_points):
    digest = hashlib.sha256()
    for image in _work_corpus(box3_census):
        line_points.clear()
        _gauss_reduce(image)
        digest.update(repr(line_points).encode() + b"\n")
    assert digest.hexdigest() == _PASS_POINTS_SHA256


# The 8 symmetries of the square lattice, as (m11, m12, m21, m22).
_SQUARE_SYMMETRIES = tuple(m for a in (1, -1) for b in (1, -1) for m in ((a, 0, 0, b), (0, a, b, 0)))


def test_every_line_search_moves_a_row(box3_census, monkeypatch):
    # a pass whose neighbours f(-1) and f(1) are no narrower than f(0)
    # stops without a search, so every search of a cold reduction returns a
    # point narrower than the row it moves, and a polygon given in a
    # reduced frame, under any symmetry of the square lattice, runs none
    from latsize import width

    searches = []

    def logged(a, b, known):
        f0 = known[0]
        k, fk = _min_convex(a, b, known)
        searches.append((f0, k, fk))
        return k, fk

    monkeypatch.setattr(width, "_min_convex", logged)
    symmetries = [AffineUnimodularMap(*m, 0, 0) for m in _SQUARE_SYMMETRIES]
    corpus = _work_corpus(box3_census)
    corpus += [apply_map(phi, random_polygon(s, k)) for k in (40, 80, 160) for s in range(20) for phi in symmetries]
    total = searched = 0
    for delta in corpus:
        searches.clear()
        _gauss_reduce(delta)
        assert all(fk < f0 for f0, _, fk in searches), (delta, searches)
        total += len(searches)
        searched += bool(searches)
    assert total > len(corpus) and 0 < searched < len(corpus)
    for delta in (standard_triangle(5), rectangle(2, 5), hull([(0, 0), (7, 0), (0, 2)])):
        for phi in symmetries:
            searches.clear()
            _gauss_reduce(apply_map(phi, delta))
            assert searches == [], (delta, phi)


def test_warm_lattice_width_measures_at_most_four_directions(box3_census, measured):
    # the tie set of long + x * short for |x| <= 1 comes from the memo entry;
    # only long +- 2 * short and 2 * long +- short can be measured again
    counts = []
    for image in _work_corpus(box3_census):
        _checked_basis(image)
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
        _checked_basis(image)
        measured.clear()
        result = lattice_width(image)
        assert result.width == 2 and len(result.directions) == 1, image
        assert measured == [], image


# Dots far past the 2**31 coordinate guard, so k * b_i is too.
_DOT = st.integers(-2**40, 2**40)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(_DOT, _DOT), min_size=1, max_size=40), st.integers(-2**20, 2**20),
       st.sampled_from([0, 1, -1]))
@example([(7, -3)], 5, 0)
@example([(2**40, -2**40), (0, 0), (-1, 1)], 2**20, 1)
@example([(2**40, -2**40), (0, 0), (-1, 1)], -2**20, -1)
def test_line_width_is_the_max_minus_min_of_the_dot_list(pairs, k, lift):
    """One pass gives max(d) - min(d) of d = a + k * b, also when d[0] alone is the max or the min.

    lift moves the first pair by one more than the spread of d, up (1) or
    down (-1), so that its entry is the only largest or the only least.
    """
    a, b = map(list, zip(*pairs))
    d = [s + k * t for s, t in zip(a, b)]
    if lift:
        a[0] += lift * (max(d) - min(d) + 1)
        d[0] = a[0] + k * b[0]
        extreme = max(d) if lift > 0 else min(d)
        assert d[0] == extreme and d.count(extreme) == 1
    assert _line_width(a, b, k) == _line_width(tuple(a), tuple(b), k) == max(d) - min(d)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(_DOT, _DOT), min_size=1, max_size=40),
       st.none() | st.tuples(st.integers(0, 3), st.sampled_from([1, -1])))
@example([(7, -3)], None)
@example([(5, 0), (0, 0), (1, 1), (-1, 2)], (0, 1))
@example([(0, -5), (0, 0), (1, 1), (-1, 2)], (1, -1))
@example([(2**40, -2**40), (0, 0), (-1, 1)], (2, 1))
@example([(2**40, 2**40), (0, 0), (-1, 1)], (3, -1))
def test_pair_extremes_are_the_min_and_max_of_each_form(vertices, lift):
    """One pass gives min and max of x, y, x - y and x + y, also when the first pair alone is an extreme.

    The pairs come as a list, a tuple and a zip of two lists, which can be
    read only once.

    lift = (i, sign) moves the first vertex along x, or along y for the
    form y, by one more than the spread of the form i, so that its value
    there is the only largest (sign 1) or the only least (sign -1).
    """
    def form_lists(vs):
        return [[a * x + b * y for x, y in vs] for a, b in _FRAME_DIRECTIONS]

    if lift is not None:
        i, sign = lift
        vals = form_lists(vertices)[i]
        step = (max(vals) - min(vals) + 1) * sign
        x, y = vertices[0]
        vertices = [(x + step, y) if _FRAME_DIRECTIONS[i][0] else (x, y + step), *vertices[1:]]
        vals = form_lists(vertices)[i]
        extreme = max(vals) if sign > 0 else min(vals)
        assert vals[0] == extreme and vals.count(extreme) == 1
    want = tuple(v for vals in form_lists(vertices) for v in (min(vals), max(vals)))
    xs, ys = (list(c) for c in zip(*vertices))
    assert _pair_extremes(vertices) == _pair_extremes(tuple(vertices)) == _pair_extremes(zip(xs, ys)) == want


# A coercive piecewise-linear convex function: the max of affine pieces
# a * (k - c) + b, with a falling and a rising piece, a flat one sometimes,
# so the minimum may be a plateau of several points.
_PIECES = st.tuples(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-60, 60)), max_size=3),
    st.integers(-9, -1), st.integers(1, 9), st.integers(-60, 60), st.integers(-60, 60),
    st.integers(-3000, 3000),
)


# Larger than any dot that a search reads on a line built from _PIECES, so (-_FAR, 0) stays the least dot.
_FAR = 2**40


@settings(max_examples=800, deadline=None)
@given(_PIECES, st.sampled_from([(), (-1,), (1,), (-1, 1)]))
def test_min_convex_matches_the_line_search_reference(pieces, carried):
    """The one gallop evaluates the points of the mirrored gallops, in their order, and leaves the same known.

    The convex function is a line width: the piece a * (k - c) + b is the
    dot pair (b - a * c, a), and the far pair (-_FAR, 0) is the least dot
    at every k that a search reads, so the width is the max of the pieces
    plus _FAR. known is seeded with f(0), or also with the widths at -1 and
    1 that a pass holds before its search; _gauss_reduce then reads the
    argmin and its neighbours from the final known, where f(k + 1) is always
    found.
    """
    from latsize import width

    extra, down, up, b_down, b_up, c = pieces
    lines = [*extra, (down, b_down), (up, b_up)]
    a, b = zip(*[(beta - alpha * c, alpha) for alpha, beta in lines], (-_FAR, 0))

    def f(k: int) -> int:
        return max(alpha * (k - c) + beta for alpha, beta in lines) + _FAR

    # the reference reads width._line_width at call time, so the patch logs both
    searches = (lambda known: _min_convex(a, b, known),
                lambda known: line_search_reference._min_convex(lambda k: width._line_width(a, b, k), known))
    results = []
    for search in searches:
        calls = []

        def logged(p, q, k):
            calls.append(k)
            return _line_width(p, q, k)

        known = {j: _line_width(a, b, j) for j in (0, *carried)}
        with mock.patch.object(width, "_line_width", logged):
            results.append((search(known), calls, list(known.items())))
    assert results[0] == results[1]
    (k, fk), calls, known = results[0]
    assert k + 1 in dict(known)
    assert all(_line_width(a, b, j) == f(j) for j in calls)
    assert fk == f(k) == min(f(k + j) for j in range(-3, 4))
