"""The Laurent parser of an earlier release: the reference that parse_laurent is compared against.

_tokenize and _Parser are kept verbatim as they were before parse_laurent
became one walk over a token list: a tokenizer with a group per token kind
and a recursive-descent parser with a method per rule, a route to the same
grammar that shares no code with the walk. reference_parse applies them as
parse_laurent did, so a test can compare the two on the same text, terms in
insertion order or the exception type and message.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from latsize import ZeroPolynomialError


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


def reference_parse(text: str) -> dict[tuple[int, int], Fraction]:
    """The terms of text by the reference parser, raising as parse_laurent does."""
    terms = _Parser(text).parse()
    if not terms:
        raise ZeroPolynomialError(f"all terms cancel in {text!r}")
    return terms
