"""Laurent polynomials, their Newton polygons and curve-invariant bounds."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .errors import NotTwoDimensionalError, ZeroPolynomialError
from .interior import interior_hull
from .polygon import (
    AffineUnimodularMap,
    LatticePolygon,
    SpecialShape,
    hull,
    integral_length,
    recognize_special,
)
from .size import SIGMA, _basis_map, minimal_box


class LaurentPolynomial(NamedTuple):
    """Finite exponent-to-coefficient mapping; zero coefficients are dropped."""

    terms: Mapping[tuple[int, int], Fraction]

    @property
    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.terms)


_TOKEN = re.compile(r"(\d+)|([xy])|(\^)|(\*)|(/)|(\+)|(-)|(\s+)|(.)")

_INT, _VAR, _CARET, _STAR, _SLASH, _PLUS, _MINUS = range(7)


def _tokenize(text: str) -> list[tuple[int, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex - 1
        if kind == 7:  # whitespace
            continue
        if kind == 8:
            raise SyntaxError(f"unexpected character {m.group()!r} at position {m.start()}")
        tokens.append((kind, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> Optional[int]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _take(self) -> tuple[int, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _fail(self, what: str) -> None:
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        raise SyntaxError(f"expected {what} at position {pos}")

    def parse(self) -> dict[tuple[int, int], Fraction]:
        terms: dict[tuple[int, int], Fraction] = {}
        if not self.tokens:
            raise SyntaxError("empty polynomial at position 0")
        sign = 1
        if self._peek() in (_PLUS, _MINUS):
            sign = -1 if self._take()[0] == _MINUS else 1
        while True:
            coeff, expo = self._term()
            key = expo
            total = terms.get(key, Fraction(0)) + sign * coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
            nxt = self._peek()
            if nxt is None:
                break
            if nxt in (_PLUS, _MINUS):
                sign = -1 if self._take()[0] == _MINUS else 1
                continue
            self._fail("'+' or '-'")
        return terms

    def _integer(self) -> int:
        neg = False
        if self._peek() == _MINUS:
            self._take()
            neg = True
        if self._peek() != _INT:
            self._fail("an integer")
        value = int(self._take()[1])
        return -value if neg else value

    def _term(self) -> tuple[Fraction, tuple[int, int]]:
        coeff = Fraction(1)
        saw_anything = False
        if self._peek() == _INT or (
            self._peek() == _MINUS
            and self.i + 1 < len(self.tokens)
            and self.tokens[self.i + 1][0] == _INT
        ):
            num = self._integer()
            if self._peek() == _SLASH:
                self._take()
                den_pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
                den = self._integer()
                if den == 0:
                    raise SyntaxError(f"zero denominator at position {den_pos}")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            saw_anything = True
            if self._peek() == _STAR:
                self._take()
                if self._peek() != _VAR:
                    self._fail("a variable after '*'")
        ex = ey = 0
        while self._peek() == _VAR:
            name = self._take()[1]
            e = 1
            if self._peek() == _CARET:
                self._take()
                e = self._integer()
            if name == "x":
                ex += e
            else:
                ey += e
            saw_anything = True
            if self._peek() == _STAR:
                self._take()
                if self._peek() != _VAR:
                    self._fail("a variable after '*'")
        if not saw_anything:
            self._fail("a term")
        return coeff, (ex, ey)


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse an ASCII Laurent polynomial in x and y.

    Grammar: terms joined by '+'/'-'; a term is an optional rational
    coefficient followed by factors x or y, each with an optional integer
    (possibly negative) exponent after '^'; '*' between parts is optional.
    Raises SyntaxError with a position on malformed input and
    ZeroPolynomialError if everything cancels.
    """
    terms = _Parser(text).parse()
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
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in f.terms.items():
        out[phi.apply((i, j))] = c
    return LaurentPolynomial(out)


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


def analyze(f: LaurentPolynomial) -> NewtonAnalysis:
    """Genus, gonality and minimal plane/biprojective degree bounds for f.

    The genus bound counts interior lattice points, by Pick's formula on
    the Newton polygon, (area2 - boundary + 2) / 2, in O(edges). An empty
    interior gives gonality 1 and bounds 1, (1, 1); otherwise the gonality
    and s11 are the interior's minimal box plus 2 and (2, 2), and s2 its
    Sigma reach plus three, all off its reduced basis. Dilated upsilon
    triangles get the sharper degree bounds 3d - 1 and, for d = 2, (3, 4).
    """
    poly = newton_polygon(f)
    if not poly.is_two_dim:
        raise NotTwoDimensionalError("analysis needs a two-dimensional Newton polygon")
    inner = interior_hull(poly)
    genus = (poly.area2 - sum(integral_length(p, q) for p, q in poly.edges()) + 2) // 2
    special = recognize_special(poly)
    ups = special.params[0] if special is not None and special.kind == "upsilon" else None
    caveats = (_CAVEAT_GENERIC, _CAVEAT_NONDEGENERATE)
    if inner.is_empty:
        return NewtonAnalysis(poly, inner, genus, 1, 1, (1, 1), special, caveats + (_CAVEAT_RATIONAL,))
    box = minimal_box(inner)
    gonality = 3 if ups == 2 else box.a + 2
    s2 = 3 * ups - 1 if ups is not None and ups >= 2 else _basis_map(inner, SIGMA)[0] + 3
    s11 = (3, 4) if ups == 2 else (gonality, box.b + 2)
    return NewtonAnalysis(poly, inner, genus, gonality, s2, s11, special, caveats)
