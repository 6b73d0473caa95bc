"""Number fields and exact factorization over Q."""

from fractions import Fraction

import pytest

from alarm_budget import budget
from kminusone.errors import ExtensionUnsupported
from kminusone.exact import UniPoly
from kminusone.fields import (
    NumberField,
    _divisors,
    irreducible_factors,
    rational_roots,
    to_integer_poly,
)


def U(*coeffs):
    return UniPoly.from_int_coeffs(coeffs)


class TestNumberField:
    def test_sqrt2_arithmetic(self):
        k = NumberField(U(-2, 0, 1))  # t^2 - 2
        r = k.generator
        assert r * r == k.from_rational(2)
        assert (r + 1) * (r - 1) == k.from_rational(1)
        inv = 1 / r
        assert inv * r == k.one
        # 1/sqrt(2) = sqrt(2)/2
        assert inv == r * Fraction(1, 2)

    def test_cubic_field_inverse(self):
        k = NumberField(U(-2, 0, 0, 1))  # t^3 - 2
        x = k.generator + 1
        assert x * x.inverse() == k.one

    def test_pow(self):
        k = NumberField(U(-2, 0, 1))
        assert k.generator ** 4 == k.from_rational(4)

    def test_is_rational(self):
        k = NumberField(U(-2, 0, 1))
        assert k.from_rational(Fraction(3, 2)).is_rational()
        assert not k.generator.is_rational()


class TestRationalRoots:
    def test_integer_poly(self):
        assert to_integer_poly(UniPoly((Fraction(1, 2), Fraction(1, 3)))) == [3, 2]

    def test_finds_all_roots(self):
        # (t - 2)(t + 1/3)(t^2 + 1), squarefree
        p = U(-2, 1) * UniPoly((Fraction(1, 3), Fraction(1))) * U(1, 0, 1)
        roots = set(rational_roots(p))
        assert roots == {Fraction(2), Fraction(-1, 3)}

    def test_no_roots(self):
        assert rational_roots(U(1, 0, 1)) == []

    def test_linear_root_is_read_off(self):
        # large prime coefficients: no divisor enumeration is needed
        p, q = 2**61 - 1, 2**89 - 1
        assert rational_roots(U(p, q)) == [Fraction(-p, q)]
        assert rational_roots(U(0, p, q)) == [Fraction(0), Fraction(-p, q)]


class TestIrreducibleFactors:
    def test_linear_factors(self):
        p = U(-1, 1) * U(2, 1)
        facs = irreducible_factors(p)
        assert sorted(d for _, d in facs) == [1, 1]

    def test_quadratic_certified_by_root_test(self):
        facs = irreducible_factors(U(-2, 0, 1))
        assert facs == [(U(-2, 0, 1), 2)]

    def test_kronecker_splits_product_of_quadratics(self):
        p = U(-2, 0, 1) * U(-3, 0, 1)  # (t^2-2)(t^2-3)
        facs = irreducible_factors(p)
        assert sorted(f.coeffs for f, _ in facs) == sorted(
            [U(-2, 0, 1).coeffs, U(-3, 0, 1).coeffs])

    def test_kronecker_certifies_irreducible_quartic(self):
        facs = irreducible_factors(U(-2, 0, 0, 0, 1))  # t^4 - 2
        assert facs == [(U(-2, 0, 0, 0, 1), 4)]

    def test_degree_seven_unsupported(self):
        with pytest.raises(ExtensionUnsupported):
            irreducible_factors(U(-2, 0, 0, 0, 0, 0, 0, 1))  # t^7 - 2

    def test_trial_division_refused_past_budget_squared(self):
        # a constant of 10^30 (rational root test) or a value p(1) above
        # 4*10^12 (Kronecker) is refused at once; trial division of 10^30
        # would count to 10^15.  SIGALRM fails the test instead of hanging.
        with budget(2.0, AssertionError, "trial division ran past its 2 s budget"):
            for p in (U(10**30, 0, 0, 1), U(1, 0, 4 * 10**12, 0, 1)):
                with pytest.raises(ExtensionUnsupported, match="--factors"):
                    irreducible_factors(p)
        assert len(_divisors(4 * 10**12)) == 15 * 13  # 2^14 * 5^12, the largest allowed
        with pytest.raises(ExtensionUnsupported):
            _divisors(4 * 10**12 + 1)

    def test_sextic_with_cubic_factors(self):
        p = U(-2, 0, 0, 1) * U(-3, 0, 0, 1)  # (t^3-2)(t^3-3)
        facs = irreducible_factors(p)
        assert sorted(d for _, d in facs) == [3, 3]
