"""Recursive-descent parser and renderer for germ expressions in z, w.

Grammar:
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := 'z' | 'w' | rational | '(' expr ')'

Rational literals are integers or 'p/q' in ASCII digits, each number no
longer than Python converts to an int (sys.get_int_max_str_digits());
there is no division operator, and an exponent (nat) has no '/': 'z^4/2'
is an error.  Errors carry 1-based line and column positions.
Parentheses nest at most MAX_NESTING deep, and no sum, product or power
may reach an exponent above MAX_EXPONENT or more than MAX_TERMS terms, nor
any of them a coefficient above 2^MAX_COEFFICIENT_BITS: beyond a limit the
input is a syntax error at the operator, raised before a product, power or
sum is computed, except for the term count of a sum, which is checked on
its result.  Each check is exact: it takes the exact sizes of its operands.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, lcm

from .errors import PolySyntaxError
from .exact import BiPoly

# Stated resource limit on parenthesis depth.  Each level costs four
# frames of the recursive descent, so this stays well inside Python's
# default recursion limit wherever the parser is called from.
MAX_NESTING = 100
# Stated limits on germ size, checked at each operator.
# `branches` on z^n - w^n builds a degree-n polynomial (n = 400,000: 4.9 s,
# 88 MB; germ-scan's largest exponent is 300,001); a product of t-term
# polynomials costs ~t^2 coefficient products ((1+z)^499: 0.6 s), more with
# long coefficients ((2^31*(1+z))^499, near the bit limit: 3 s; unchecked,
# (2^8000)^8000 took 0.5 s and 54 MB).  The bit limit admits any literal
# Python reads: 4,300 digits by default, 14,284 bits.
MAX_EXPONENT = 400_000
MAX_TERMS = 500
MAX_COEFFICIENT_BITS = 16_384


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value, line: int, column: int):
        # kind: one of z w number + - * ^ ( ) end; value: an int if written without '/'
        self.kind, self.value, self.line, self.column = kind, value, line, column


# a number p or p/q, an operator or variable, a newline, blanks, or any other character
_TOKEN = re.compile(r"([0-9]+)(/([0-9]*))?|([zw+*^()-])|(\n)|[ \t\r]+|(.)", re.S)


def _tokenize(text: str):
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        col = m.start() - line_start + 1
        num, slash, den, op, newline, other = m.groups()
        if op:
            tokens.append(_Token(op, op, line, col))
        elif newline:
            line, line_start = line + 1, m.end()
        elif other:
            raise PolySyntaxError(f"unexpected character {other!r}", line, col)
        elif num:
            if slash and not den:
                raise PolySyntaxError("expected digits after '/'", line, m.end() - line_start + 1)
            try:
                p, q = int(num), int(den or 1)
            except ValueError:  # past Python's limit on digits converted to int
                limit = sys.get_int_max_str_digits()
                raise PolySyntaxError(f"number with more than {limit} digits",
                                      line, col) from None
            if not q:
                raise PolySyntaxError("zero denominator", line, col)
            tokens.append(_Token("number", Fraction(p, q) if slash else p, line, col))
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = iter(tokens)  # ends with an 'end' token, never advanced past
        self.cur = next(self.tokens)
        self.depth = 0

    def advance(self) -> _Token:
        tok = self.cur
        self.cur = next(self.tokens)
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
        weight = None  # a bound on the sum's _weight, kept term by term
        while self.cur.kind in "+-":
            op = self.advance()
            term = self.parse_term()
            weight = _weight(term, *(weight or _weight(result)))
            _check_bits(op, *map(_bits, weight[:2]))
            result = result + term if op.kind == "+" else result - term
            if len(result.terms) > MAX_TERMS:  # checked after: a sum costs no more
                raise PolySyntaxError(f"more than {MAX_TERMS} terms", op.line, op.column)
        return result

    def parse_term(self) -> BiPoly:
        result = self.parse_factor()
        while self.cur.kind == "*":
            op = self.advance()
            factor = self.parse_factor()
            _check_size(op, len(result.terms) * len(factor.terms),
                        *map(sum, zip(_size(result), _size(factor))))
            result = result * factor
        return result

    def parse_factor(self) -> BiPoly:
        base = self.parse_base()
        if self.cur.kind == "^":
            op = self.advance()
            tok = self.cur
            if tok.kind != "number":
                raise PolySyntaxError("expected a natural number exponent",
                                      tok.line, tok.column)
            if not isinstance(tok.value, int):  # written with '/'
                raise PolySyntaxError("exponent must be a natural number",
                                      tok.line, tok.column)
            self.advance()
            n, k = tok.value, len(base.terms)
            if n > MAX_EXPONENT:
                raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", op.line, op.column)
            # the n-th power of k terms has at most comb(n + k - 1, k - 1) terms
            _check_size(op, comb(n + k - 1, k - 1) if k else 1,
                        *(n * d for d in _size(base)))
            return base ** n
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


def _weight(p: BiPoly, num: int = 0, den: int = 1, z_degree: int = 0, w_degree: int = 0):
    """(the sum of the |D * c|, D) for the least common denominator D of the
    coefficients c of p, and the largest exponents of z and w in p, each
    continued from the same four of other terms; one pass over the terms."""
    for (a, b), c in p.terms.items():
        if a > z_degree:
            z_degree = a
        if b > w_degree:
            w_degree = b
        d = c.denominator
        if d != den:
            common = lcm(den, d)
            num, den = num * (common // den), common
        num += abs(c.numerator) * (den // d)
    return num, den, z_degree, w_degree


def _bits(x: int) -> int:
    """ceil(log2(x)) for x >= 1, and 0 for x = 0."""
    return max(x - 1, 0).bit_length()


def _size(p: BiPoly) -> tuple:
    """Bounds that add under products and scale by n under n-th powers: the
    largest exponents of z and w in p, and the _bits of both parts of its
    _weight."""
    num, den, z_degree, w_degree = _weight(p)
    return z_degree, w_degree, _bits(num), _bits(den)


def _check_size(op: _Token, terms: int, z_degree: int, w_degree: int, *bits) -> None:
    """Raise at op when its result, with at most terms terms and these
    degrees and bits (see _size), could pass a size limit."""
    if max(z_degree, w_degree) > MAX_EXPONENT:
        raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", op.line, op.column)
    if min(terms, (z_degree + 1) * (w_degree + 1)) > MAX_TERMS:
        raise PolySyntaxError(f"more than {MAX_TERMS} terms", op.line, op.column)
    _check_bits(op, *bits)


def _check_bits(op: _Token, *bits) -> None:
    if max(bits) > MAX_COEFFICIENT_BITS:
        raise PolySyntaxError(f"a coefficient above 2^{MAX_COEFFICIENT_BITS}",
                              op.line, op.column)


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
