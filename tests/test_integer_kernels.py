"""The integer kernels under the rational germ recursion, against oracles.

Yun's algorithm over Z[t] and int_gcd against sympy's sqf_list and gcd,
the rational root test against sympy's roots, the integer chart of
_recursion_germ against the substitution it stands for, and branch
counts whose multiple edge roots are rational (so the chart shifts by
r/s with s > 1) against closed forms: 2 * gcd(a, b) for the clustered
products and the number of factors for products of smooth branches.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, Poly, symbols  # noqa: E402

from kminusone import exact, germs  # noqa: E402
from kminusone.errors import NotIsolated  # noqa: E402
from kminusone.exact import UniPoly, int_gcd, squarefree_decomposition  # noqa: E402
from kminusone.fields import rational_roots  # noqa: E402
from kminusone.parsing import parse_polynomial as poly  # noqa: E402

T, U_, V_ = symbols("t u v")


def primitive_integer(a: UniPoly) -> bool:
    """Int coefficients of gcd 1 and a positive leading one: the form of a
    factor Yun's algorithm hands back over Q."""
    return all(type(c) is int for c in a.coeffs) and gcd(*a.coeffs) == 1 and a.leading > 0


def to_sympy(p: UniPoly) -> Poly:
    return Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                T, domain=QQ)


def rational(rng, top=9, dens=(1, 2, 3, 4, 7)):
    return Fraction(rng.randint(-top, top), rng.choice(dens))


def random_factor(rng, degree):
    coeffs = [rational(rng) for _ in range(degree)] + [rational(rng)]
    while not coeffs[-1]:
        coeffs[-1] = rational(rng)
    return UniPoly(coeffs)


def test_yun_over_z_matches_sympy_sqf_list():
    # Fraction coefficients, multiplicities 1-4, degree <= 16; every third
    # leading coefficient is a multiple of 2^61 - 1, which the modular
    # certificate cannot use, so Yun decides those even when squarefree
    rng, repeated, divisible = random.Random(2161), 0, 0
    for i in range(300):
        p = UniPoly.const(Fraction(exact._PRIME * rng.randint(1, 5), rng.choice((1, 3)))
                          if i % 3 == 0 else rational(rng, dens=(1, 2, 5)) or 1)
        for _ in range(rng.randint(1, 4)):
            factor, k = random_factor(rng, rng.randint(1, 3)), rng.randint(1, 4)
            if p.degree + factor.degree * k <= 16:
                p = p * factor ** k
        if p.degree < 1:
            continue
        ours = squarefree_decomposition(p)
        _, factors = sympy.sqf_list(to_sympy(p))
        theirs = {k: tuple(Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs()))
                  for f, k in factors}
        assert ours == [(p, 1)] or all(primitive_integer(a) for a, _ in ours), p
        assert {k: a.monic().coeffs for a, k in ours} == theirs, p
        assert all(type(c) in (int, Fraction) for a, _ in ours for c in a.coeffs)
        repeated += max(theirs) > 1
        divisible += p.leading.numerator % exact._PRIME == 0
    assert repeated > 150 and divisible > 90


def test_int_gcd_matches_sympy_gcd():
    rng = random.Random(61)
    for _ in range(200):
        common = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)]
        a, b = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
                for _ in range(2))
        f = (UniPoly(common) * UniPoly(a)).scale(rng.randint(1, 6))
        g = UniPoly(common) * UniPoly(b) if rng.random() < 0.8 else UniPoly()
        h = int_gcd(f, g)
        theirs = to_sympy(f).gcd(to_sympy(g)).monic()
        assert to_sympy(h).monic() == theirs, (f, g)
        assert all(type(c) is int for c in h.coeffs) and gcd(*h.coeffs) == 1


def test_rational_roots_match_sympy():
    rng = random.Random(1861)
    for _ in range(100):
        p = UniPoly.const(rational(rng) or 1)
        for _ in range(rng.randint(1, 4)):
            p = p * random_factor(rng, rng.choice((1, 1, 2, 3)))
        ours = rational_roots(p)
        theirs = {Fraction(int(r.p), int(r.q)) for r in sympy.roots(to_sympy(p), filter="Q")}
        assert len(ours) == len(set(ours)) and set(ours) == theirs, p
        assert all(type(r) is int if r.denominator == 1 else type(r) is Fraction for r in ours)


def test_integer_chart_is_the_scaled_substitution():
    # s^D * G(u, (v + r)/s) over its content, for G the strict transform of
    # g in the chart of its first edge and gamma = r/s the double root of the
    # edge polynomial (1 - c*t^g)^2, g = gcd(a, b)
    rng = random.Random(2121)
    for _ in range(30):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        gamma = rational(rng, top=5, dens=(1, 2, 3)) or Fraction(1, 2)
        coeff = 1 / gamma ** gcd(a, b)
        edge_factor = f"z^{a}{plus(-coeff, f'w^{b}')}"
        g = poly(f"({edge_factor})*({edge_factor} + {rng.randint(1, 3)}*w^{b + 1})"
                 + plus(rational(rng), f"z^{a}*w^{b + 2}"))
        edge = germs.newton_polygon(g)[0]
        chart = germs._recursion_germ(g.terms, edge, gamma)
        assert all(type(c) is int for c in chart.values()) and gcd(*chart.values()) == 1
        assert (0, 0) not in chart  # the exceptional point is the new origin
        # the oracle: G by the same monomial map, shifted by sympy
        q, p = edge.direction
        alpha, beta = germs._bezout_chart(q, p)
        n_min = p * edge.start[0] + q * edge.start[1]
        G = sum(sympy.Rational(c.numerator, c.denominator) * U_ ** (p * x + q * y - n_min)
                * V_ ** (alpha * x + beta * y) for (x, y), c in g.terms.items())
        G = sympy.cancel(G / V_ ** min(alpha * x + beta * y for x, y in g.terms))
        shifted = Poly(sympy.expand(G.subs(V_, (V_ + gamma.numerator) / gamma.denominator)),
                       V_, U_)
        ours = Poly(sum(c * V_ ** i * U_ ** j for (i, j), c in chart.items()), V_, U_)
        ratio = {sympy.nsimplify(x / y) for x, y in zip(shifted.coeffs(), ours.coeffs())}
        assert shifted.monoms() == ours.monoms() and len(ratio) == 1, g


def plus(c, monomial):
    """' + c*monomial' or ' - |c|*monomial', as the germ grammar reads it."""
    return f" + {c}*{monomial}" if c >= 0 else f" - {-c}*{monomial}"


def branches(text):
    germs._LAST_GERM.clear()
    germs._reduced_at_origin.cache_clear()
    return germs.branch_count(poly(text)).branch_count


@pytest.mark.parametrize("step", [True, False], ids=["with-step", "without-step"])
def test_clustered_products_with_a_rational_multiple_root(step, monkeypatch):
    # (z^a - c*w^b + w^(b+1))*(z^a - c*w^b + 2*w^(b+1)) with c = (n/d)^gcd(a, b):
    # the edge polynomial is (t^g - c)^2, with the rational double root n/d
    if not step:
        monkeypatch.setattr(germs, "_whole_root_shift", lambda terms, edges: None)
    rng, cases = random.Random(9421), [(2, 2, Fraction(9, 4))]
    for _ in range(24):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        root = Fraction(rng.choice((1, 2, 3, 5, 7)), rng.choice((2, 3, 4, 5)))
        cases.append((a, b, root ** gcd(a, b)))
    for a, b, c in cases:
        text = f"(z^{a} - {c}*w^{b} + w^{b + 1})*(z^{a} - {c}*w^{b} + 2*w^{b + 1})"
        assert branches(text) == 2 * gcd(a, b), text


@pytest.mark.parametrize("step", [True, False], ids=["with-step", "without-step"])
def test_smooth_branches_with_a_rational_common_tangent(step, monkeypatch):
    # prod (z - (p/q)*w - d_i*w^2) over distinct d_i has one branch per
    # factor; its twin with one factor squared is not reduced at the origin
    if not step:
        monkeypatch.setattr(germs, "_whole_root_shift", lambda terms, edges: None)
    rng = random.Random(4242)
    for _ in range(20):
        slope = Fraction(rng.choice((1, 2, 3, 5, -7)), rng.choice((2, 3, 4, 9)))
        ds = rng.sample(sorted({Fraction(n, rng.choice((1, 2, 5))) for n in range(-6, 7)}),
                        rng.randint(2, 4))
        factors = [f"(z{plus(-slope, 'w')}{plus(-d, 'w^2')})" for d in ds]
        assert branches("*".join(factors)) == len(factors), factors
        with pytest.raises(NotIsolated):
            branches("*".join(factors + factors[:1]))
