"""Laurent parsing, Newton polygons and the curve-invariant bounds."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latsize.interior
from latsize import (
    AffineUnimodularMap,
    InternalConsistencyError,
    LaurentPolynomial,
    NotTwoDimensionalError,
    ZeroPolynomialError,
    analyze,
    apply_map,
    hull,
    interior_hull,
    lattice_width_recursive,
    lawrence_prism,
    measures,
    minimal_box,
    newton_polygon,
    parse_laurent,
    random_unimodular_map,
    rectangle,
    standard_triangle,
    transform_support,
    upsilon,
)
from latsize.size import _size_value

from columns import column_interior_count
from conftest import AlarmRang, alarm
from laurent_reference import reference_parse


def test_parse_supports():
    assert parse_laurent("y^2 + x^5 + 1").support == {(0, 2), (5, 0), (0, 0)}
    assert parse_laurent("3*x^-2*y^5 - x*y + 7").support == {(-2, 5), (1, 1), (0, 0)}
    assert parse_laurent("x^3").support == {(3, 0)}


def test_parse_coefficients():
    f = parse_laurent("3*x - 1/2*y + 4")
    assert f.terms[(1, 0)] == 3
    assert f.terms[(0, 1)] == Fraction(-1, 2)
    assert f.terms[(0, 0)] == 4
    g = parse_laurent("x*y + x*y")
    assert g.terms[(1, 1)] == 2


def test_parse_juxtaposition_and_signs():
    assert parse_laurent("2x y^2").support == {(1, 2)}
    assert parse_laurent("-x + y").terms[(1, 0)] == -1
    assert parse_laurent("x - -2").terms[(0, 0)] == 2


def test_parse_errors_carry_positions():
    with pytest.raises(SyntaxError, match="position"):
        parse_laurent("x +* y")
    with pytest.raises(SyntaxError, match="position"):
        parse_laurent("z + 1")
    with pytest.raises(SyntaxError, match="position"):
        parse_laurent("")
    with pytest.raises(SyntaxError, match="denominator"):
        parse_laurent("1/0*x")
    with pytest.raises(ZeroPolynomialError):
        parse_laurent("x - x")
    with pytest.raises(ZeroPolynomialError):
        parse_laurent("x*y - y*x + 0")


def _parse_outcome(parse, text):
    """The terms in insertion order, or the type and message of the exception."""
    try:
        return list(parse(text).items())
    except (SyntaxError, ZeroPolynomialError) as exc:
        return type(exc), str(exc)


# The grammar's characters, whitespace, a letter it rejects and a non-ASCII
# decimal digit (ARABIC-INDIC THREE), which \d and int() accept.
_LAURENT_ALPHABET = "0123456789xy^*/+- \nz\u0663"


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.text(_LAURENT_ALPHABET, max_size=16),
    st.lists(st.sampled_from(["x", "y", "^", "*", "/", "+", "-", " ", "2", "0", "13"]), max_size=10).map("".join),
))
@example("x^\u0663 + y")
@example("1\u0663z")
def test_parse_matches_the_reference_parser(text):
    new = _parse_outcome(lambda t: parse_laurent(t).terms, text)
    if "\u0663" not in text:
        assert new == _parse_outcome(reference_parse, text)
    else:
        # the reference reads the digit as 3; an integer is ASCII digits, so
        # the first character outside the grammar is unexpected
        i = min(text.index(c) for c in "z\u0663" if c in text)
        assert new == (SyntaxError, f"unexpected character {text[i]!r} at position {i}")


def test_newton_polygon_reference_shapes():
    assert newton_polygon(parse_laurent("y^2 + x^5 + 1")) == hull([(0, 0), (5, 0), (0, 2)])
    assert newton_polygon(parse_laurent("x^-2*y^-2 + x^2 + y^2 + 1")) == upsilon(2)
    assert newton_polygon(parse_laurent("x^3")).vertices == ((3, 0),)
    with pytest.raises(ZeroPolynomialError):
        newton_polygon(LaurentPolynomial({}))


def test_analyze_reference_examples():
    res = analyze(parse_laurent("y^2 + x^7 + 1"))
    assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (3, 2, 5, (2, 4))
    res = analyze(parse_laurent("x^-2*y^-2 + x^2 + y^2 + 1"))
    assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (4, 3, 5, (3, 4))
    assert res.special.kind == "upsilon"
    res = analyze(parse_laurent("x^5 + y^5 + 1"))
    assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (6, 4, 5, (4, 4))


@pytest.mark.parametrize("g", range(2, 11))
def test_analyze_hyperelliptic_family(g):
    res = analyze(parse_laurent(f"y^2 + x^{2 * g + 1} + 1"))
    assert res.genus_bound == g
    assert res.gonality == 2
    assert res.s2_bound == g + 2
    assert res.s11_bound == (2, g + 1)


def test_analyze_rational_case_flags():
    res = analyze(parse_laurent("x + y + 1"))
    assert res.genus_bound == 0
    assert (res.gonality, res.s2_bound, res.s11_bound) == (1, 1, (1, 1))
    assert any("rational" in c for c in res.caveats)


@pytest.mark.parametrize("text", ["x^2147483648 + y + 1", "x^2147483648*y + y + 1"])
def test_analyze_of_a_rational_curve_at_the_guard_builds_no_interior_hull(text, monkeypatch):
    # the genus comes first, from Pick's formula, and genus 0 needs no interior
    hulls = []
    build = latsize.interior.interior_hull
    monkeypatch.setattr(latsize.interior, "interior_hull", lambda delta: hulls.append(delta) or build(delta))
    with alarm(1):
        res = analyze(parse_laurent(text))
    assert (res.genus_bound, res.gonality, res.s2_bound, res.s11_bound) == (0, 1, 1, (1, 1))
    assert res.interior.is_empty and not hulls


@pytest.mark.xfail(strict=True, raises=AlarmRang,
                   reason="ROADMAP item 14: analyze builds the interior hull of a genus >= 1 Newton polygon "
                          "by a column scan, which does not end at the guard")
@pytest.mark.parametrize("text, gonality", [
    ("y^2 + x^2147483648 + 1", 2),
    # the other genus >= 1 polynomials at the guard: only the genus, which Pick's formula gives
    ("x^2147483648*y^5 + x^7*y^2147483647 + x^3 + y^11 + 1", None),
    ("x^2147483648 + x^-2147483648*y + y^2", None),
])
def test_analyze_of_a_hyperelliptic_curve_at_the_guard_ends(text, gonality):
    f = parse_laurent(text)
    with alarm(1):
        res = analyze(f)
    assert res.genus_bound == measures(newton_polygon(f)).interior_count
    assert gonality is None or res.gonality == gonality


def test_analyze_rejects_low_dimensional_support():
    with pytest.raises(NotTwoDimensionalError):
        analyze(parse_laurent("x^2 + x + 1"))
    with pytest.raises(NotTwoDimensionalError):
        analyze(parse_laurent("x*y"))


def test_analysis_invariant_under_support_substitution():
    for text in ("y^2 + x^7 + 1", "x^-2*y^-2 + x^2 + y^2 + 1", "x^3*y + y^3 + x + x*y^2"):
        f = parse_laurent(text)
        base = analyze(f)
        for seed in range(50):
            phi = random_unimodular_map(seed * 3 + 17)
            moved = analyze(transform_support(f, phi))
            assert moved.genus_bound == base.genus_bound
            assert moved.gonality == base.gonality
            assert moved.s2_bound == base.s2_bound
            assert moved.s11_bound == base.s11_bound


def test_genus_matches_pick_count():
    f = parse_laurent("x^4*y + y^3 + x + x^2*y^2")
    res = analyze(f)
    want = column_interior_count(res.polygon)
    assert res.genus_bound == want
    # every interior lattice point of the Newton polygon lies in its interior hull
    assert measures(res.interior).total_count == want


def test_s11_bound_is_ordered():
    for text in ("y^2 + x^9 + 1", "x^5 + y^5 + 1", "x^-1 + y^-1 + x*y"):
        res = analyze(parse_laurent(text))
        assert res.s11_bound[0] <= res.s11_bound[1]
        assert res.s11_bound <= (res.s2_bound, res.s2_bound)


def test_genus_by_pick_matches_the_interior_count(box3_census):
    # analyze takes the genus from Pick's formula on the Newton polygon, in
    # measures; the column count of tests/columns.py is the independent oracle
    polygons = [delta for i, delta in enumerate(box3_census)
                for delta in (delta, apply_map(random_unimodular_map(i), delta))]
    polygons += [family(d) for d in range(1, 25) for family in (standard_triangle, upsilon)]
    polygons += [rectangle(a, b) for a in range(1, 9) for b in range(a, 12)]
    polygons += [lawrence_prism(a, b) for a in range(1, 12) for b in range(a + 1)]
    polygons += [apply_map(AffineUnimodularMap(1, 5, 0, 1, 3, -2), delta) for delta in polygons[-300:]]
    checked = 0
    for delta in polygons:
        if not delta.is_two_dim:
            continue
        inner = interior_hull(delta)
        want = column_interior_count(delta)
        assert measures(delta).interior_count == want, delta
        assert (0 if inner.is_empty else measures(inner).total_count) == want, delta
        f = LaurentPolynomial({v: Fraction(1) for v in delta.vertices})
        assert analyze(f).genus_bound == want, delta
        checked += 1
    assert checked > 5000


def _support(delta):
    return LaurentPolynomial({v: Fraction(1) for v in delta.vertices})


def _bounds_by_recursion(result):
    """(gonality, s2, s11) of an analysis as the chain of its interior gives them."""
    inner, special = result.interior, result.special
    ups = special.params[0] if special is not None and special.kind == "upsilon" else None
    # the empty interior: width -1 and the empty-hull conventions -2 and -1
    width = -1 if inner.is_empty else lattice_width_recursive(inner)[0]
    gonality = 3 if ups == 2 else width + 2
    s2 = 3 * ups - 1 if ups is not None and ups >= 2 else _size_value(inner, "sigma")[0] + 3
    s11 = (3, 4) if ups == 2 else (gonality, _size_value(inner, "square")[0] + 2)
    return gonality, s2, s11


def test_basis_bounds_agree_with_the_recursion(box3_census):
    # analyze reads the reduced basis of the interior; the recursions are a
    # second route to the same bounds (test_size compares minimal_box)
    polygons = box3_census + [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    polys = [_support(delta) for delta in polygons if delta.is_two_dim]
    polys += [parse_laurent(f"y^2 + x^{2 * g + 1} + 1") for g in range(1, 40)]
    polys += [parse_laurent(f"x^-{d}*y^-{d} + x^{d} + y^{d}") for d in range(1, 16)]
    empty = 0
    for f in polys:
        result = analyze(f)
        assert (result.gonality, result.s2_bound, result.s11_bound) == _bounds_by_recursion(result), f
        empty += result.interior.is_empty
    assert 0 < empty < len(polys) // 2


def test_analyze_and_minimal_box_walk_no_chain(box3_census, monkeypatch):
    # the one peel of analyze is the interior hull of the Newton polygon
    def no_chain(*args):
        raise AssertionError("the chain of a polygon was walked")

    monkeypatch.setattr("latsize.size._size_value", no_chain)
    monkeypatch.setattr("latsize.size.onion_skins", no_chain)
    for delta in box3_census:
        minimal_box(delta)
        if delta.is_two_dim:
            analyze(_support(delta))
    scanned = []
    column_hull = latsize.interior._column_hull
    monkeypatch.setattr(latsize.interior, "_column_hull", lambda delta: scanned.append(delta) or column_hull(delta))
    result = analyze(parse_laurent("x^2147483648 + y^2147483648 + 1"))
    assert result.s2_bound == 2**31 and len(scanned) <= 1


def test_analyze_reads_s2_through_the_checked_sigma_size(monkeypatch):
    # s2 comes from lattice_size_sigma of the interior, whose check stops a
    # reach of the basis one too large, as it stops the sigma command
    import latsize.size

    basis_map = latsize.size._basis_map
    f = parse_laurent("x^5 + y^5 + 1")
    assert analyze(f).s2_bound == 5

    def one_more(delta, shape):
        w, reach, phi = basis_map(delta, shape)
        return w, reach + (shape == "sigma"), phi

    monkeypatch.setattr(latsize.size, "_basis_map", one_more)
    with pytest.raises(InternalConsistencyError, match="witness reaches"):
        analyze(f)
