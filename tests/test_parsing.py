"""Expression parsing and rendering round-trips."""

import json
import random
import re
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest

from kminusone import parsing
from kminusone.errors import PolySyntaxError
from kminusone.exact import BiPoly
from kminusone.parsing import MAX_COEFFICIENT_BITS, MAX_EXPONENT, MAX_NESTING, MAX_TERMS, \
    parse_polynomial, render_polynomial

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# The previous reader, with a token object per token and a method per grammar
# rule, kept verbatim (only parse_polynomial is renamed) as the reference that
# TestSameReadingAsTheReference and _ReferenceParser compare against.
# ---------------------------------------------------------------------------

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


def parent_parse_polynomial(text: str) -> BiPoly:
    """Parse a germ expression into a canonical BiPoly (like terms
    collected, zero coefficients dropped)."""
    parser = _Parser(_tokenize(text))
    result = parser.parse_expr()
    end = parser.cur
    if end.kind != "end":
        raise PolySyntaxError(f"unexpected {end.kind!r} after expression",
                              end.line, end.column)
    return result


class TestParse:
    def test_term_collection(self):
        p = parse_polynomial("z^2*w + w^3")
        assert p.terms == {(2, 1): Fraction(1), (0, 3): Fraction(1)}

    def test_hand_expanded_product(self):
        # (z - w^2)(z - w^2 - w^3) = z^2 - 2 z w^2 - z w^3 + w^4 + w^5
        p = parse_polynomial("(z - w^2)*(z - w^2 - w^3)")
        assert p.terms == {
            (2, 0): Fraction(1),
            (1, 2): Fraction(-2),
            (1, 3): Fraction(-1),
            (0, 4): Fraction(1),
            (0, 5): Fraction(1),
        }

    def test_rational_literals(self):
        p = parse_polynomial("3/2*z - 1/3")
        assert p.terms == {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 3)}

    def test_leading_sign(self):
        assert parse_polynomial("-z + w") == parse_polynomial("w - z")

    def test_powers_bind_tighter_than_product(self):
        assert parse_polynomial("2*z^3") == BiPoly({(3, 0): Fraction(2)})

    def test_cancellation_gives_canonical_form(self):
        assert parse_polynomial("z - z").is_zero()
        assert parse_polynomial("(z + w)*(z - w) - z^2") == \
            BiPoly({(0, 2): Fraction(-1)})


class TestSyntaxErrors:
    def test_trailing_operator(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_polynomial("z^2 +")
        assert info.value.line == 1 and info.value.column == 6

    def test_unexpected_character(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_polynomial("z + x")
        assert info.value.column == 5

    def test_unbalanced_parens(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("(z + w")

    def test_bad_exponent(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("z^w")
        with pytest.raises(PolySyntaxError):
            parse_polynomial("z^1/2")

    def test_exponent_written_as_a_fraction(self):
        # 4/2 and 1/1 are whole numbers, but the grammar's exponent is nat
        for text, column in (("z^4/2 - w^3", 3), ("z^1/1", 3), ("w + (z)^\n 9/3", 2)):
            with pytest.raises(PolySyntaxError, match="exponent must be a natural number") \
                    as info:
                parse_polynomial(text)
            assert (info.value.line, info.value.column) == (text.count("\n") + 1, column)

    def test_zero_denominator(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("1/0")

    def test_junk_after_expression(self):
        with pytest.raises(PolySyntaxError):
            parse_polynomial("z w")

    def test_position_tracks_lines(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_polynomial("z +\n w +")
        assert info.value.line == 2

    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert parse_polynomial("(" * depth + "z" + ")" * depth) == BiPoly.var_z()
        with pytest.raises(PolySyntaxError) as info:
            parse_polynomial("(" * (depth + 1) + "z" + ")" * (depth + 1))
        assert info.value.column == depth + 1
        with pytest.raises(PolySyntaxError):
            parse_polynomial("(" * 3000 + "z" + ")" * 3000)


    def test_only_ascii_digits(self):
        # str.isdigit() holds for all of these; int() cannot read '²'
        for text, column in (("z²", 2), ("z*w + w¹", 8), ("٣*z*w", 1)):
            with pytest.raises(PolySyntaxError, match="unexpected character") as info:
                parse_polynomial(text)
            assert (info.value.line, info.value.column) == (1, column)

    def test_number_past_int_digit_limit(self):
        # int() refuses more digits than this; the error sits at the number
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int-from-text limit in this interpreter")
        long = "1" * (limit + 1)
        for text, position in ((long + "*z*w", (1, 1)), ("z*w + 3/" + long, (1, 7)),
                               ("z*w +\n  " + long + "/2", (2, 3))):
            with pytest.raises(PolySyntaxError, match=f"more than {limit} digits") as info:
                parse_polynomial(text)
            assert (info.value.line, info.value.column) == position
        assert parse_polynomial(long[1:] + "*z*w").terms[(1, 1)] == int(long[1:])


def _rejected_at(text, op):
    """The limit error of text, which must sit at the operator that ends
    the first occurrence of op."""
    with pytest.raises(PolySyntaxError) as info:
        parse_polynomial(text)
    assert (info.value.line, info.value.column) == (1, text.index(op) + len(op))
    return str(info.value)


class TestSizeLimits:
    def test_exponent_limit(self):
        assert parse_polynomial(f"z^{MAX_EXPONENT} - w^2").terms == {
            (MAX_EXPONENT, 0): 1, (0, 2): -1}
        for text, op in ((f"z^{MAX_EXPONENT + 1}", "^"), (f"2^{MAX_EXPONENT + 1}", "^"),
                         (f"w*w^{MAX_EXPONENT}", "*"),
                         (f"(z^1000)^{MAX_EXPONENT // 1000 + 1}", ")^")):
            assert f"exponent above {MAX_EXPONENT}" in _rejected_at(text, op)

    def test_term_limit_on_sums(self):
        text = " + ".join(f"z^{i}" for i in range(MAX_TERMS))
        assert len(parse_polynomial(text).terms) == MAX_TERMS
        assert f"more than {MAX_TERMS} terms" in _rejected_at(text + " - w", "-")

    def test_term_limit_on_products_and_powers(self):
        # (1 + z + w)^n may have (n + 1)(n + 2)/2 terms
        assert len(parse_polynomial("(1 + z + w)^30").terms) == 496
        _rejected_at("(1+z+w)^31", "^")
        _rejected_at("(1+z)^300*(1+w)", "*")
        # the bound uses the degrees too: this product has 302 terms
        assert len(parse_polynomial("(1+z)^300*(1+z)").terms) == 302

    def test_coefficient_limit(self):
        # numerators and denominators may reach 2^MAX_COEFFICIENT_BITS
        bits = MAX_COEFFICIENT_BITS
        assert parse_polynomial(f"2^{bits}*z*w").terms == {(1, 1): 2 ** bits}
        assert parse_polynomial(f"(1/2)^{bits}*z").terms == {(1, 0): Fraction(1, 2 ** bits)}
        # the bound counts the binomial coefficients: 2^16376 * 70 < 2^16384
        assert len(parse_polynomial("(2^2047*(z + w))^8").terms) == 9
        assert parse_polynomial(f"(z - z)^{bits + 1}*z").is_zero()
        message = f"a coefficient above 2^{bits}"
        for text, op in ((f"2^{bits + 1}", "^"), (f"2^{bits}*2*z", "*"),
                         (f"(1/2)^{bits}*(1/2)", "*"), ("(2^2048*(z + w))^8", ")^"),
                         ("(2^32*(1+z))^499", ")^"), ("(2^8000)^8000*z*w", ")^"),
                         ("(2^16000)^16000*z*w", ")^"), ("(2^400000)^400000", "^")):
            assert message in _rejected_at(text, op)

    def test_coefficient_limit_on_sums(self, monkeypatch):
        # a running bound: the lcm of the denominators and the sum of the
        # numerators over it, as for products and powers
        bits = MAX_COEFFICIENT_BITS
        assert parse_polynomial(f"(1/2)^{bits}*z + (1/2)^{bits}*w").terms == {
            (1, 0): Fraction(1, 2 ** bits), (0, 1): Fraction(1, 2 ** bits)}
        assert parse_polynomial(f"2^{bits - 1}*z - 2^{bits - 1}*w").terms == {
            (1, 0): 2 ** (bits - 1), (0, 1): -2 ** (bits - 1)}
        message = f"a coefficient above 2^{bits}"
        for text, op in ((f"(1/2)^{bits}*z + 1/3*w", "+"), (f"2^{bits}*z - w", "-"),
                         (f"2^{bits - 1}*z + 2^{bits - 1}*w + 1", "w +")):
            assert message in _rejected_at(text, op)
        # 60 terms 1/d with distinct 4,000-digit d: the lcm of the first
        # two already passes the limit, and the sum is never computed
        text = " + ".join(f"1/{10 ** 3999 + k}" for k in range(60)) + " + z*w"

        def refuse(*args):
            raise AssertionError("computed past a limit")
        monkeypatch.setattr(BiPoly, "__add__", refuse)
        assert message in _rejected_at(text, "+")

    def test_limits_reject_before_computing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed past a limit")
        # one-term operands multiply as (coefficient, a, b) triples in
        # parsing._times: refuse what the reference checks refuse there
        one_term = ("(2^16000)^16000*z*w", ")^"), ("2^100*2^16285*z", "*"), ("(1/2)^16385*w", ")^")
        expected = {text: _outcome(parent_parse_polynomial, text) for text, _ in one_term}
        times, calls = parsing._times, []

        def guarded(x, y, n=1):
            z, w, *bits = map(sum, zip(_size(BiPoly.monomial(x[1], x[2], x[0])),
                                       (n * d for d in _size(BiPoly.monomial(y[1], y[2], y[0])))))
            if max(z, w) > MAX_EXPONENT or max(bits) > MAX_COEFFICIENT_BITS:
                refuse()
            calls.append((x, y, n))
            return times(x, y, n)
        monkeypatch.setattr(parsing, "_times", guarded)
        monkeypatch.setattr(BiPoly, "__pow__", refuse)
        monkeypatch.setattr(BiPoly, "__mul__", refuse)
        _rejected_at("(1+z+w)^150*z", "^")
        _rejected_at(f"(z + z)^{MAX_COEFFICIENT_BITS + 1}", ")^")
        _rejected_at(f"1/{'9' * 4000}*1/{'9' * 4000}*z", "*")
        for text, op in one_term:
            _rejected_at(text, op)
            assert _outcome(parse_polynomial, text) == expected[text]
        # up to the limit, the triples are computed through the guard
        calls.clear()
        assert parse_polynomial(f"2^100*2^{MAX_COEFFICIENT_BITS - 100}*z").terms == {
            (1, 0): 2 ** MAX_COEFFICIENT_BITS}
        assert len(calls) == 4  # two powers, two products


class _ReferenceParser:
    """The size checks as first written, kept as the reference for the
    parser's: the exact _size of both operands at every '*' and of the base
    at every '^', and the running weight of every sum at its '+' or '-'."""

    def __init__(self, text):
        self.tokens, self.pos = _tokenize(text), 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self):
        sign = self.take().kind if self.peek().kind in "+-" else "+"
        result = self.term()
        result = -result if sign == "-" else result
        weight = None
        while self.peek().kind in "+-":
            op = self.take()
            term = self.term()
            weight = _ref_weight(term, *(weight or _ref_weight(result)))
            _ref_check(op, 1, 0, 0, _ref_bits(max(weight)))
            result = result + term if op.kind == "+" else result - term
            if len(result.terms) > MAX_TERMS:
                raise PolySyntaxError(f"more than {MAX_TERMS} terms", op.line, op.column)
        return result

    def term(self):
        result = self.factor()
        while self.peek().kind == "*":
            op = self.take()
            factor = self.factor()
            _ref_check(op, len(result.terms) * len(factor.terms),
                       *map(sum, zip(_ref_size(result), _ref_size(factor))))
            result = result * factor
        return result

    def factor(self):
        base = self.base()
        if self.peek().kind != "^":
            return base
        op = self.take()
        n, k = self.take().value, len(base.terms)
        if n > MAX_EXPONENT:
            raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", op.line, op.column)
        _ref_check(op, comb(n + k - 1, k - 1) if k else 1, *(n * d for d in _ref_size(base)))
        return base ** n

    def base(self):
        tok = self.take()
        if tok.kind == "(":
            inner = self.expr()
            assert self.take().kind == ")"
            return inner
        return {"z": BiPoly.var_z, "w": BiPoly.var_w}.get(
            tok.kind, lambda: BiPoly.constant(Fraction(tok.value)))()


def _ref_weight(p, num=0, den=1):
    for c in p.terms.values():
        d = c.denominator
        common = lcm(den, d)
        num, den = num * (common // den) + abs(c.numerator) * (common // d), common
    return num, den


def _ref_bits(x):
    return max(x - 1, 0).bit_length()


def _ref_size(p):
    return (*map(max, zip(*p.terms, (0, 0))), *map(_ref_bits, _ref_weight(p)))


def _ref_check(op, terms, z_degree, w_degree, *bits):
    if max(z_degree, w_degree) > MAX_EXPONENT:
        raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", op.line, op.column)
    if min(terms, (z_degree + 1) * (w_degree + 1)) > MAX_TERMS:
        raise PolySyntaxError(f"more than {MAX_TERMS} terms", op.line, op.column)
    if max(bits) > MAX_COEFFICIENT_BITS:
        raise PolySyntaxError(f"a coefficient above 2^{MAX_COEFFICIENT_BITS}",
                              op.line, op.column)


def _outcome(parse, text):
    try:
        return "accepted", parse(text).terms
    except PolySyntaxError as e:
        return str(e), e.line, e.column


def _straddling_texts(rng):
    """(family, text) pairs whose size lands just under or just over a limit."""
    e, t, b = MAX_EXPONENT, MAX_TERMS, MAX_COEFFICIENT_BITS
    d = rng.randint(-2, 2)
    a, k = rng.randint(1, 1000), rng.randint(2, 1000)
    m = rng.randint(9, 40)
    big = rng.randint(1000, 4000)
    sums = [f"z^{i}" for i in range(t + d)]
    sums[rng.randrange(len(sums))] += f" - z^{rng.randrange(t)}"
    return [
        ("exponent", f"z^{e + d} - w"),
        ("exponent", f"z*z^{e - 1 + d}"),
        ("exponent", f"w^{a}*w^{e - a + d}"),
        ("exponent", f"(z^{k})^{e // k + d}*w"),
        ("exponent", f"(z + w^{a})^2*w^{e - 2 * a + d}"),
        ("product terms", f"(1+z)^{m}*(1+w)^{t // (m + 1) - 1 + d}"),
        ("power terms", f"((1+z^2)*(1+w^2))^{12 + (d > 0)}"),
        ("power terms", f"((1+z)*(1+w))^{21 + (d > 0)}*z"),
        ("sum terms", " + ".join(sums)),
        ("product bits", f"2^{a}*2^{b - a + d}*z"),
        ("product bits", f"(1/2)^{b - 2 * a + d}*(1/3)^{a}*w"),
        ("product bits", f"(1/6*z + 1/2*w)*2^{b - 2 + d}"),
        ("product bits", f"(1/2*z + 1/3*w + 1/6)*2^{b - 3 + d}"),
        ("power bits", f"(2^{k})^{b // k + d}"),
        ("power bits", f"(2^{big}*(z + w))^{b // (big + 1) + (d > 0)}"),
        ("sum bits", f"2^{b - 1 + d}*z + 2^{b - 1}*w"),
        ("sum bits", f"(1/2)^{b - 2 * a + d}*z - (1/3)^{a}*w + (1/5)^{a}"),
    ]


class TestLimitDecisions:
    def test_same_decisions_as_the_reference_checks(self):
        # accept or reject, message, line and column, on seeded texts on
        # both sides of every limit
        rng = random.Random(1717)
        seen = {}
        for _ in range(12):
            for family, text in _straddling_texts(rng):
                ours = _outcome(parse_polynomial, text)
                assert ours == _outcome(lambda s: _ReferenceParser(s).expr(), text), text
                seen.setdefault(family, set()).add(ours[0] == "accepted")
        assert all(sides == {True, False} for sides in seen.values()), seen


def _read(parse, text):
    """What parse makes of text: its terms in order with each coefficient's
    type, or the error's message, line and column."""
    try:
        return [(k, c, type(c)) for k, c in parse(text).terms.items()]
    except PolySyntaxError as e:
        return str(e), e.line, e.column


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, (list, dict)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from _strings(item)


def _corpus_texts() -> list:
    """Every string of the golden corpus's command lines, standard inputs and
    files and of the demo documents, and each comma-separated part (a
    --factors list): every germ text they hold, and others both readers
    refuse."""
    texts = []
    for case in json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text()):
        contents = list(case["files"].values()) + [case["stdin"] or ""]
        for text in case["argv"] + contents:
            texts += [text, *text.split(",")]
        for content in contents:
            try:
                texts += _strings(json.loads(content))
            except ValueError:
                pass
    for path in sorted((ROOT / "demos" / "data").glob("*.json")):
        texts += _strings(json.loads(path.read_text()))
    return list(dict.fromkeys(texts))


def _binomial(a, b, c):
    q = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return f"z^{a} - {q}*w^{b}"


def _workload_texts() -> list:
    """The germ texts of the germ-scan and spec-batch benchmark workloads,
    each family in full rather than one seed's draw: binomial products in
    the draw order of seed 606, the fixed ladders, every ADE germ, the
    clustered products, the local defects and every binomial of the factor
    lists and threefold singularities."""
    rng, texts = random.Random(606), []
    for _ in range(150):
        factors = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            factors.append((a, b, Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))))
        texts.append("*".join(f"({_binomial(*f)})" for f in factors))
    texts += [f"(z+w)^{n} + z^{n + 1}" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14)]
    texts += [f"z^2 - w^{n}" for n in (11, 100, 1001, 3000, 10000, 30001, 300001)]
    texts += [f"z^2 + w^{n + 1}" for n in range(1, 31)]
    texts += [f"z^2*w + w^{n - 1}" for n in range(4, 31)]
    texts += ["z^3 + w^4", "z^3 + z*w^3", "z^3 + w^5", "z*w", "z*w*(z-1)^2",
              "z*w*(1+z+w)^2", "(z^2-w^3)*(w-1)^2", "z^7 - 2*w^7 + w^8", "z^7 - 2*w^7 + 2*w^8"]
    for a, b, c in ((2, 2, 3), (3, 3, 2), (4, 4, 3), (5, 5, 2), (6, 6, 5), (4, 6, 3),
                    (6, 4, 2), (7, 7, 2)):
        texts.append(f"(z^{a} - {c}*w^{b} + w^{b + 1})*(z^{a} - {c}*w^{b} + 2*w^{b + 1})")
    coefficients = [Fraction(p, q) for p in (1, 2, 3, 5) for q in (1, 2)]
    texts += [_binomial(a, b, c) for a in range(1, 7) for b in range(1, 7) for c in coefficients]
    return texts


# zero coefficients with large exponents: a zero triple has size 0
_ZERO_TERMS = ("0*z^300000*z^300000", "(0*w^300000)^2", "0/7*w^400000*w^400000*z",
               "(0*z^300000)^400000", "(z - z)*w^300000*w^300000", "0^0", "(0*z)^0")
_ATOMS = ("z", "w", "z", "w", "0", "1", "2", "3", "7", "2/1", "1/2", "3/4", "12/8",
          "1/2*2", "-1", "0/5", "2^100", f"2^{MAX_COEFFICIENT_BITS - 100}",
          f"(1/2)^{MAX_COEFFICIENT_BITS // 2}", "z^300000", "w^200000")
# products and powers of sums on both sides of the term limit
_MANY_TERMS = ("(1+z)^30*(1+w)^15", "(1+z)^30*(1+w)^16", "(1+z+w)^12", "(1+z+w)^31",
               "(z - 1/2*w)^7", "(2*z + w)^3*(z - w)^2")
_EXPONENTS = (0, 1, 1, 2, 2, 3, 3, 5, 7, 31, 300000, MAX_EXPONENT + 1)
_BLANKS = ("", "", " ", " ", "\n", "\t", "\r\n", " \n\t", "\r")
_MISTAKES = ("x", ")", "(", "^", "*", "/", "+", "-", "²", "\f", "1/0", "5/", "/2", "^1/2",
             "^-1", " w ", "^z", "()", "9" * 4400)


def _random_text(rng) -> str:
    """A seeded text that mixes one-term products, zero coefficients with
    large exponents, unary minus on monomials, literals such as 2/1 and
    1/2*2, powers of sums, nesting to MAX_NESTING and blanks across lines,
    three in ten of them with a mistake."""
    def factor(depth):
        r = rng.random()
        if r < 0.06:
            base = "(" + rng.choice(_ZERO_TERMS) + ")"
        elif r < 0.09:
            base = "(" + rng.choice(_MANY_TERMS) + ")"
        elif depth and r < 0.3:
            base = "(" + expr(depth - 1) + ")"
        else:
            base = rng.choice(_ATOMS)
            base = f"({base})" if "*" in base or base.startswith("-") else base
        if rng.random() < 0.3:
            base = f"({base})" if "^" in base and base[-1] != ")" else base
            n = rng.choice(_EXPONENTS) if len(base) < 12 else rng.randint(0, 4)
            base += f"^{n}"
        return base

    def term(depth):
        return "*".join(factor(depth) for _ in range(rng.choice((1, 1, 2, 3, 4))))

    def expr(depth):
        text = rng.choice(("", "", "-", "+")) + term(depth)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            text += rng.choice(("+", "-")) + term(depth)
        return text

    text = expr(2)
    if rng.random() < 0.1:
        k = MAX_NESTING + rng.randint(-2, 1)
        text = "(" * k + text + ")" * k + rng.choice(("", "^2", "*z", "^0"))
    text = re.sub(r"(?<=[-+*(zw)0-9])(?=[-+*(zw])", lambda _: rng.choice(_BLANKS), text)
    if rng.random() < 0.3:
        at = rng.randrange(len(text) + 1)
        text = rng.choice((text[:at] + rng.choice(_MISTAKES) + text[at:],
                           text[:at] + text[at + 1:], text[:at]))
    return text


class TestSameReadingAsTheReference:
    """The reader against the verbatim reference above: the same terms in the
    same order with the same coefficient types, or the same message, line
    and column."""

    def test_corpus_and_workload_texts(self):
        texts = _corpus_texts() + _workload_texts() + list(_ZERO_TERMS)
        assert len(texts) > 600
        for text in texts:
            assert _read(parse_polynomial, text) == _read(parent_parse_polynomial, text), text

    def test_seeded_texts(self):
        rng = random.Random(1414)
        accepted = later_line = 0
        for _ in range(3200):
            text = _random_text(rng)
            ours = _read(parse_polynomial, text)
            assert ours == _read(parent_parse_polynomial, text), text
            accepted += isinstance(ours, list)
            later_line += isinstance(ours, tuple) and ours[1] > 1
        assert 800 < accepted < 2400 and later_line > 1000, (accepted, later_line)


class TestRoundTrip:
    def test_examples(self):
        for text in ("z^2 + w^2", "z*w", "3/2*z^2*w - w^7", "0",
                     "(z - w^2)*(z - w^2 - w^3)"):
            p = parse_polynomial(text)
            assert parse_polynomial(render_polynomial(p)) == p

    def test_random_polynomials(self):
        rng = random.Random(321)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 7)):
                coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                terms[(rng.randint(0, 6), rng.randint(0, 6))] = coeff
            p = BiPoly(terms)
            assert parse_polynomial(render_polynomial(p)) == p

    def test_render_is_deterministic(self):
        p = parse_polynomial("w^3 + z^2*w + z^4")
        assert render_polynomial(p) == render_polynomial(parse_polynomial(
            "z^4 + w^3 + z^2*w"))
