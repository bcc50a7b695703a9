"""Laurent polynomials, their Newton polygons and curve-invariant bounds."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from .errors import NotTwoDimensionalError, ZeroPolynomialError
from .polygon import (
    EMPTY,
    AffineUnimodularMap,
    LatticePolygon,
    SpecialShape,
    hull,
    measures,
    recognize_special,
)

if TYPE_CHECKING:
    from fractions import Fraction


class LaurentPolynomial(NamedTuple):
    """Finite exponent-to-coefficient mapping; zero coefficients are dropped."""

    terms: Mapping[tuple[int, int], Fraction]

    @property
    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.terms)


# An integer of ASCII digits or a one-character token (group 1), or any
# other character but whitespace (group 2), a non-ASCII digit among them;
# whitespace is skipped.
_TOKEN = re.compile(r"([0-9]+|[xy^*/+-])|(\S)")


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse an ASCII Laurent polynomial in x and y.

    Grammar: terms joined by '+'/'-'; a term is an optional rational
    coefficient followed by factors x or y, each with an optional integer
    (possibly negative) exponent after '^'; '*' between parts is optional.
    An integer is ASCII digits, as in the vertex syntax of the CLI, so a
    non-ASCII digit is an unexpected character. Raises SyntaxError with a
    position on malformed input and
    ZeroPolynomialError if everything cancels.

    That grammar is the contract, and one walk over the tokens implements
    it: each term takes an optional sign (required between terms, where
    the token after a term must be '+', '-' or the end), then parts, each
    a coefficient (first part only) or a factor, with a '*' after a part
    only if a variable follows. The token list ends in a sentinel "" at
    position len(text), which no rule accepts, so every error reads its
    position off the current token.
    """
    from fractions import Fraction  # here, so the other commands load neither fractions nor decimal

    toks: list[str] = []
    pos: list[int] = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 2:
            raise SyntaxError(f"unexpected character {m.group()!r} at position {m.start()}")
        toks.append(m.group())
        pos.append(m.start())
    if not toks:
        raise SyntaxError("empty polynomial at position 0")
    toks.append("")
    pos.append(len(text))
    i = 0

    def expected(what: str) -> SyntaxError:
        return SyntaxError(f"expected {what} at position {pos[i]}")

    def integer() -> int:
        nonlocal i
        neg = toks[i] == "-"
        if neg:
            i += 1
        if not toks[i].isdecimal():
            raise expected("an integer")
        i += 1
        return -int(toks[i - 1]) if neg else int(toks[i - 1])

    terms: dict[tuple[int, int], Fraction] = {}
    while True:
        sign = 1
        if toks[i] in ("+", "-"):
            sign = -1 if toks[i] == "-" else 1
            i += 1
        start, coeff, ex, ey = i, Fraction(1), 0, 0
        while True:
            if toks[i] in ("x", "y"):
                var = toks[i]
                i += 1
                e = 1
                if toks[i] == "^":
                    i += 1
                    e = integer()
                if var == "x":
                    ex += e
                else:
                    ey += e
            elif i == start and (toks[i].isdecimal() or toks[i] == "-" and toks[i + 1].isdecimal()):
                num, den = integer(), 1
                if toks[i] == "/":
                    i += 1
                    den_pos = pos[i]
                    den = integer()
                    if not den:
                        raise SyntaxError(f"zero denominator at position {den_pos}")
                coeff = Fraction(num, den)
            else:
                break
            if toks[i] == "*":
                i += 1
                if toks[i] not in ("x", "y"):
                    raise expected("a variable after '*'")
        if i == start:
            raise expected("a term")
        total = terms.get((ex, ey), 0) + sign * coeff
        if total:
            terms[ex, ey] = total
        else:
            terms.pop((ex, ey), None)
        if not toks[i]:
            break
        if toks[i] not in ("+", "-"):
            raise expected("'+' or '-'")
    if not terms:
        raise ZeroPolynomialError(f"all terms cancel in {text!r}")
    return LaurentPolynomial(terms)


def newton_polygon(f: LaurentPolynomial) -> LatticePolygon:
    """Convex hull of the exponent vectors of f."""
    if not f.terms:
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    return hull(list(f.terms))


def transform_support(f: LaurentPolynomial, phi: AffineUnimodularMap) -> LaurentPolynomial:
    """Push the exponents of f through a unimodular map (monomial substitution)."""
    return LaurentPolynomial({phi.apply(e): c for e, c in f.terms.items()})


class NewtonAnalysis(NamedTuple):
    """Curve invariants and model-degree bounds read off a Newton polygon."""

    polygon: LatticePolygon
    interior: LatticePolygon
    genus_bound: int
    gonality: int
    s2_bound: int
    s11_bound: tuple[int, int]
    special: Optional[SpecialShape]
    caveats: tuple[str, ...]


_CAVEAT_GENERIC = "bounds are attained only for sufficiently generic coefficients"
_CAVEAT_NONDEGENERATE = "genus and gonality formulas assume a nondegenerate polynomial"
_CAVEAT_RATIONAL = "empty interior: rational-curve conventions (gonality 1, bounds 1)"


def _curve_bounds(
    width: int, square: int, sigma: int, special: Optional[SpecialShape]
) -> tuple[int, int, tuple[int, int]]:
    """(gonality, s2, s11) of a polygon with a non-empty interior, from the interior's sizes.

    width, square and sigma are the lattice width, square size and Sigma
    size of the interior hull; special is the shape of the polygon. The
    gonality and s11 are the interior's minimal box (width, square) plus 2
    and (2, 2), and s2 its Sigma size plus three. Dilated upsilon triangles
    Upsilon_d get the sharper degree bounds: s2 = 3d - 1 for d >= 2, and
    gonality 3 and s11 = (3, 4) for d = 2.
    """
    ups = special.params[0] if special is not None and special.kind == "upsilon" else None
    s2 = 3 * ups - 1 if ups is not None and ups >= 2 else sigma + 3
    if ups == 2:
        return 3, s2, (3, 4)
    return width + 2, s2, (width + 2, square + 2)


def analyze(f: LaurentPolynomial) -> NewtonAnalysis:
    """Genus, gonality and minimal plane/biprojective degree bounds for f.

    The genus bound is the number of interior lattice points of the Newton
    polygon, which polygon.measures takes from Pick's formula in O(edges),
    and it is read first. Genus 0 is a rational curve: gonality 1, bounds
    1 and (1, 1), and the empty polygon as interior, with no interior hull
    built. Otherwise interior_hull builds the interior, and _curve_bounds
    reads the gonality, s2 and s11 off its minimal box and Sigma size, both
    from its reduced basis, the Sigma size through the checked certificate
    of lattice_size_sigma, which peels nothing.
    """
    from .interior import interior_hull
    from .size import lattice_size_sigma, minimal_box

    poly = newton_polygon(f)
    if not poly.is_two_dim:
        raise NotTwoDimensionalError("analysis needs a two-dimensional Newton polygon")
    genus = measures(poly).interior_count
    special = recognize_special(poly)
    caveats = (_CAVEAT_GENERIC, _CAVEAT_NONDEGENERATE)
    if not genus:
        return NewtonAnalysis(poly, EMPTY, 0, 1, 1, (1, 1), special, caveats + (_CAVEAT_RATIONAL,))
    inner = interior_hull(poly)
    box = minimal_box(inner)
    gonality, s2, s11 = _curve_bounds(box.a, box.b, lattice_size_sigma(inner).value, special)
    return NewtonAnalysis(poly, inner, genus, gonality, s2, s11, special, caveats)
