"""Expression parsing and rendering round-trips."""

import random
import sys
from fractions import Fraction

import pytest

from kminusone.errors import PolySyntaxError
from kminusone.exact import BiPoly
from kminusone.parsing import MAX_COEFFICIENT_BITS, MAX_EXPONENT, MAX_NESTING, MAX_TERMS, \
    parse_polynomial, render_polynomial


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
        monkeypatch.setattr(BiPoly, "__pow__", refuse)
        monkeypatch.setattr(BiPoly, "__mul__", refuse)
        _rejected_at("(1+z+w)^150*z", "^")
        _rejected_at(f"(z + z)^{MAX_COEFFICIENT_BITS + 1}", ")^")
        _rejected_at(f"1/{'9' * 4000}*1/{'9' * 4000}*z", "*")


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
