"""Parser and renderer for germ expressions in z, w.

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

One regex scan reads the text into (kind, value, offset) tokens for one
recursive descent; an error's line and column are computed from its offset
when it is raised.  A factor of one term is a (coefficient, z-exponent,
w-exponent) triple, multiplied and raised as a triple under the same exact
checks (with coefficient 0 it is the zero polynomial, of size 0); a BiPoly
is built only for a sum or a product with a factor of two or more terms.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, lcm

from .errors import PolySyntaxError
from .exact import BiPoly

# Stated resource limit on parenthesis depth.  Each level costs two
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


class _Failure(Exception):
    """A syntax error at a character offset of the text: (message, offset)."""


# blanks, then a variable or operator, a number p or p/q, or any other
# character: only trailing blanks are in no match, so the offsets add up
_TOKEN = re.compile(r"([ \t\r\n]*)(?:([zw+*^()-])|([0-9]+)(/([0-9]*))?|([^ \t\r\n]))")


def _tokenize(text: str) -> list:
    """(kind, value, offset) tokens, the last ('end', None, len(text)); kind
    is one of z w number + - * ^ ( ), and a number's value is an int if
    written without '/'."""
    tokens, offset = [], 0
    for blanks, op, num, slash, den, other in _TOKEN.findall(text):
        offset += len(blanks)
        if op:
            tokens.append((op, None, offset))
            offset += 1
            continue
        if other:
            raise _Failure(f"unexpected character {other!r}", offset)
        if slash and not den:
            raise _Failure("expected digits after '/'", offset + len(num) + 1)
        try:
            p, q = int(num), int(den or 1)
        except ValueError:  # past Python's limit on digits converted to int
            limit = sys.get_int_max_str_digits()
            raise _Failure(f"number with more than {limit} digits", offset) from None
        if not q:
            raise _Failure("zero denominator", offset)
        tokens.append(("number", Fraction(p, q) if slash else p, offset))
        offset += len(num) + len(slash)
    tokens.append(("end", None, len(text)))
    return tokens


def _expr(tokens: list, i: int, depth: int):
    """The value of the expr at tokens[i], a BiPoly or a triple, and the
    index of the token after it."""
    sign = tokens[i][0]
    if sign in "+-":
        i += 1
    result, i = _term(tokens, i, depth)
    if sign == "-":
        result = (-result[0], result[1], result[2]) if type(result) is tuple else -result
    if tokens[i][0] not in "+-":
        return result, i
    result = _poly(result)
    num, den = _weight(result.terms.items())  # a bound on the sum's, kept term by term
    while tokens[i][0] in "+-":
        op, _, offset = tokens[i]
        term, i = _term(tokens, i + 1, depth)
        num, den = _weight(_items(term), num, den)
        if (max(num, den) - 1).bit_length() > MAX_COEFFICIENT_BITS:  # den >= 1
            raise _Failure(f"a coefficient above 2^{MAX_COEFFICIENT_BITS}", offset)
        result = result + _poly(term) if op == "+" else result - _poly(term)
        if len(result.terms) > MAX_TERMS:  # checked after: a sum costs no more
            raise _Failure(f"more than {MAX_TERMS} terms", offset)
    return result, i


def _term(tokens: list, i: int, depth: int):
    """The value of the term at tokens[i] (see _expr), and the index after it."""
    result = star = None
    while True:
        kind, value, offset = tokens[i]
        if kind == "z":
            value = (1, 1, 0)
        elif kind == "w":
            value = (1, 0, 1)
        elif kind == "number":
            value = (value, 0, 0)
        elif kind == "(":
            if depth == MAX_NESTING:
                raise _Failure(f"parentheses nested deeper than {MAX_NESTING}", offset)
            value, i = _expr(tokens, i + 1, depth + 1)
            kind, _, offset = tokens[i]
            if kind != ")":
                raise _Failure(f"expected ')', found {kind!r}", offset)
        else:
            raise _Failure(f"expected 'z', 'w', a number or '(', found {kind!r}", offset)
        i += 1
        if tokens[i][0] == "^":
            value = _power(value, tokens[i][2], tokens[i + 1])
            i += 2
        result = value if star is None else _product(result, value, star)
        if tokens[i][0] != "*":
            return result, i
        star = tokens[i][2]
        i += 1


def _power(base, offset: int, exponent: tuple):
    """base ^ n for the '^' at offset and the exponent token (kind, n, offset)."""
    kind, n, at = exponent
    if kind != "number":
        raise _Failure("expected a natural number exponent", at)
    if type(n) is not int:  # written with '/'
        raise _Failure("exponent must be a natural number", at)
    if n > MAX_EXPONENT:
        raise _Failure(f"exponent above {MAX_EXPONENT}", offset)
    k, z, w, p, q = _size(base)
    # the n-th power of k terms has at most comb(n + k - 1, k - 1) terms
    _check_size(offset, comb(n + k - 1, k - 1) if k else 1, n * z, n * w, n * p, n * q)
    if type(base) is not tuple:
        return base ** n
    return _times((1, 0, 0), base, n) if n else (1, 0, 0)


def _product(x, y, offset: int):
    """x * y for the '*' at offset."""
    xt, xz, xw, xp, xq = _size(x)
    yt, yz, yw, yp, yq = _size(y)
    _check_size(offset, xt * yt, xz + yz, xw + yw, xp + yp, xq + yq)
    if type(x) is tuple and type(y) is tuple:
        return _times(x, y)
    return _poly(x) * _poly(y)


def _times(x: tuple, y: tuple, n: int = 1) -> tuple:
    """The triple x * y^n (n >= 1): every product and power of triples."""
    c, a, b = y
    if n != 1:
        c, a, b = c ** n, a * n, b * n
    return x[0] * c, x[1] + a, x[2] + b


def _poly(value) -> BiPoly:
    if type(value) is not tuple:
        return value
    return BiPoly._of(dict(_items(value)))


def _items(value):
    """The ((z-exponent, w-exponent), coefficient) terms of a value."""
    if type(value) is tuple:
        c, a, b = value
        return (((a, b), c),) if c else ()
    return value.terms.items()


def _weight(items, num: int = 0, den: int = 1):
    """(the sum of the |D * c|, D) for the least common denominator D of the
    coefficients c of the terms, continued from the same two of other terms."""
    for _, c in items:
        d = c.denominator
        if d != den:
            common = lcm(den, d)
            num, den = num * (common // den), common
        num += abs(c.numerator) * (den // d)
    return num, den


def _size(value) -> tuple:
    """The number of terms of a value, and bounds that add under products and
    scale by n under n-th powers: the largest exponents of z and w in it, and
    ceil(log2) of both parts of its _weight; all 0 for the zero polynomial."""
    if type(value) is tuple:
        c, z_degree, w_degree = value
        terms, num, den = 1, abs(c.numerator), c.denominator
    else:
        z_degree = w_degree = 0
        for a, b in value.terms:
            if a > z_degree:
                z_degree = a
            if b > w_degree:
                w_degree = b
        terms, (num, den) = len(value.terms), _weight(value.terms.items())
    if not num:
        return 0, 0, 0, 0, 0
    return terms, z_degree, w_degree, (num - 1).bit_length(), (den - 1).bit_length()


def _check_size(offset: int, terms: int, z: int, w: int, num_bits: int, den_bits: int) -> None:
    """Fail at offset when a result with at most terms terms and these
    degrees and bits (see _size) could pass a size limit."""
    if z > MAX_EXPONENT or w > MAX_EXPONENT:
        raise _Failure(f"exponent above {MAX_EXPONENT}", offset)
    if terms > MAX_TERMS and (z + 1) * (w + 1) > MAX_TERMS:
        raise _Failure(f"more than {MAX_TERMS} terms", offset)
    if num_bits > MAX_COEFFICIENT_BITS or den_bits > MAX_COEFFICIENT_BITS:
        raise _Failure(f"a coefficient above 2^{MAX_COEFFICIENT_BITS}", offset)


def parse_polynomial(text: str) -> BiPoly:
    """Parse a germ expression into a canonical BiPoly (like terms
    collected, zero coefficients dropped)."""
    try:
        tokens = _tokenize(text)
        result, i = _expr(tokens, 0, 0)
        kind, _, offset = tokens[i]
        if kind != "end":
            raise _Failure(f"unexpected {kind!r} after expression", offset)
    except _Failure as failure:
        message, offset = failure.args
        line = text.count("\n", 0, offset) + 1
        raise PolySyntaxError(message, line, offset - text.rfind("\n", 0, offset)) from None
    return _poly(result)


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
