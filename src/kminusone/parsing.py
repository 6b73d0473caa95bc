"""Recursive-descent parser and renderer for germ expressions in z, w.

Grammar:
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := 'z' | 'w' | rational | '(' expr ')'

Rational literals are integers or 'p/q'; there is no division operator.
Errors carry 1-based line and column positions.  Parentheses nest at most
MAX_NESTING deep; deeper input is a syntax error, not a stack overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PolySyntaxError
from .exact import BiPoly

# Stated resource limit on parenthesis depth.  Each level costs four
# frames of the recursive descent, so this stays well inside Python's
# default recursion limit wherever the parser is called from.
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str   # one of: z w number + - * ^ ( ) end
    value: object
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "zw":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            num = int(text[start:i])
            den = 1
            if i < n and text[i] == "/":
                i += 1
                col += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                    col += 1
                if dstart == i:
                    raise PolySyntaxError("expected digits after '/'", line, col)
                den = int(text[dstart:i])
                if den == 0:
                    raise PolySyntaxError("zero denominator", line, startcol)
            tokens.append(_Token("number", Fraction(num, den), line, startcol))
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise PolySyntaxError(
                f"expected {kind!r}, found {self.cur.kind!r}",
                self.cur.line, self.cur.column)
        return self.advance()

    def parse_expr(self) -> BiPoly:
        sign = 1
        if self.cur.kind in "+-":
            if self.advance().kind == "-":
                sign = -1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while self.cur.kind in "+-":
            op = self.advance().kind
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> BiPoly:
        result = self.parse_factor()
        while self.cur.kind == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> BiPoly:
        base = self.parse_base()
        if self.cur.kind == "^":
            self.advance()
            tok = self.cur
            if tok.kind != "number":
                raise PolySyntaxError("expected a natural number exponent",
                                      tok.line, tok.column)
            if tok.value.denominator != 1 or tok.value < 0:
                raise PolySyntaxError("exponent must be a natural number",
                                      tok.line, tok.column)
            self.advance()
            return base ** int(tok.value)
        return base

    def parse_base(self) -> BiPoly:
        tok = self.cur
        if tok.kind == "z":
            self.advance()
            return BiPoly.var_z()
        if tok.kind == "w":
            self.advance()
            return BiPoly.var_w()
        if tok.kind == "number":
            self.advance()
            return BiPoly.constant(tok.value)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}",
                    tok.line, tok.column)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise PolySyntaxError(
            f"expected 'z', 'w', a number or '(', found {tok.kind!r}",
            tok.line, tok.column)


def parse_polynomial(text: str) -> BiPoly:
    """Parse a germ expression into a canonical BiPoly (like terms
    collected, zero coefficients dropped)."""
    parser = _Parser(_tokenize(text))
    result = parser.parse_expr()
    end = parser.cur
    if end.kind != "end":
        raise PolySyntaxError(f"unexpected {end.kind!r} after expression",
                              end.line, end.column)
    return result


def _monomial_str(a: int, b: int, coeff: Fraction) -> str:
    parts = []
    c = abs(coeff)
    if c != 1 or (a == 0 and b == 0):
        parts.append(str(c))
    if a > 0:
        parts.append("z" if a == 1 else f"z^{a}")
    if b > 0:
        parts.append("w" if b == 1 else f"w^{b}")
    return "*".join(parts)


def render_polynomial(p: BiPoly) -> str:
    """Deterministic rendering with terms sorted by total degree, then
    z-exponent, both descending; parse_polynomial inverts it."""
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
    out = []
    for idx, key in enumerate(keys):
        c = p.terms[key]
        mono = _monomial_str(key[0], key[1], c)
        if idx == 0:
            out.append(mono if c > 0 else "-" + mono)
        else:
            out.append((" + " if c > 0 else " - ") + mono)
    return "".join(out)
