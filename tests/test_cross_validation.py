"""Optional cross-validation against sympy (skipped when unavailable).

sympy is not a dependency of the package; when it happens to be
installed, these tests compare the exact core against an independent
implementation: Smith invariant factors, bivariate gcds, squarefree
detection, local reducedness at the origin, and branch counts on
binomial products with known answers.
"""

import random
from fractions import Fraction
from math import gcd as igcd

import pytest

sympy = pytest.importorskip("sympy")

from sympy import ZZ, Matrix, Poly, symbols  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from kminusone.exact import BiPoly, FinAbGroup, IntMatrix, cokernel, \
    invariant_factors, smith_normal_form  # noqa: E402
from kminusone.germs import bipoly_gcd, branch_count, is_isolated, \
    is_squarefree  # noqa: E402

Z, W = symbols("z w")


def to_sympy(g):
    return sum(sympy.Rational(c.numerator, c.denominator) * Z**a * W**b
               for (a, b), c in g.terms.items())


def rand_bipoly(rng, nterms, deg):
    t = {}
    for _ in range(nterms):
        t[(rng.randint(0, deg), rng.randint(0, deg))] = Fraction(rng.randint(-4, 4))
    return BiPoly(t)


def test_snf_invariant_factors_match_sympy():
    rng = random.Random(9001)
    for _ in range(100):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        entries = [rng.randint(-9, 9) for _ in range(r * c)]
        d, _, _ = smith_normal_form(IntMatrix(r, c, tuple(entries)))
        ours = [abs(x) for x in d.diagonal_entries() if x]
        sm = sympy_snf(Matrix(r, c, entries), domain=ZZ)
        theirs = [abs(sm[j, j]) for j in range(min(r, c)) if sm[j, j] != 0]
        assert ours == theirs


def test_transform_free_invariant_factors_match_sympy():
    # rank and invariant factors without U and V, against sympy's Smith
    # form, on full-rank, rank-deficient and zero matrices with negative
    # entries and entries near 2^60
    rng = random.Random(9002)
    big = 2 ** 60
    for i in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if i % 3 == 0:
            entries = [rng.choice((0, rng.randint(-9, 9), big, -big + 1)) for _ in range(r * c)]
        else:
            k = rng.randint(0, min(r, c))
            left = Matrix(r, k, [rng.randint(-3, 3) for _ in range(r * k)])
            right = Matrix(k, c, [rng.randint(-3, 3) * rng.choice((1, 2, 6))
                                  for _ in range(k * c)])
            entries = list(left * right) if k else [0] * (r * c)
        m = IntMatrix(r, c, tuple(int(x) for x in entries))
        sm = sympy_snf(Matrix(r, c, entries), domain=ZZ)
        theirs = tuple(abs(sm[j, j]) for j in range(min(r, c)) if sm[j, j] != 0)
        assert invariant_factors(m) == theirs
        assert m.rank() == Matrix(r, c, entries).rank()


def test_nonsingular_torsion_heavy_matrices_match_sympy():
    # square U*D*V up to 12 x 12, where the modulus of the elimination is
    # a multiple of the largest invariant factor; the top factor repeats
    # in half of them and stands alone (by an extra 2 or 3) in the rest
    rng = random.Random(9003)

    def unitriangular(n, lower):
        return Matrix([[1 if i == j else rng.randint(-2, 2) * ((j < i) if lower else (j > i))
                        for j in range(n)] for i in range(n)])

    for i in range(120):
        n = rng.randint(1, 12)
        chain, d = [], 1
        for _ in range(n):
            d *= rng.choice((1, 1, 2, 3, 4, 5, 6))
            chain.append(d)
        if i % 2 and n > 1:
            chain[-1] = chain[-2]
        elif i % 2 == 0:
            chain[-1] *= rng.choice((2, 3))
        m = (unitriangular(n, True) * unitriangular(n, False) * Matrix.diag(*chain)
             * unitriangular(n, False) * unitriangular(n, True))
        entries = [int(x) for x in m]
        sm = sympy_snf(m, domain=ZZ)
        theirs = tuple(abs(int(sm[j, j])) for j in range(n))
        assert theirs == tuple(chain)
        ours = IntMatrix(n, n, tuple(entries))
        assert invariant_factors(ours) == theirs
        assert cokernel(ours) == FinAbGroup(0, tuple(x for x in theirs if x > 1))


def test_bivariate_gcd_matches_sympy():
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        mult = rand_bipoly(rng, rng.randint(1, 3), 2)
        g1 = rand_bipoly(rng, rng.randint(1, 4), 3) * mult
        g2 = rand_bipoly(rng, rng.randint(1, 4), 3) * mult
        if g1.is_zero() or g2.is_zero():
            continue
        ours = Poly(to_sympy(bipoly_gcd(g1, g2)), Z, W)
        theirs = Poly(sympy.gcd(to_sympy(g1), to_sympy(g2), Z, W), Z, W)
        assert ours.total_degree() == theirs.total_degree()
        diff = ours.as_expr() * theirs.LC() - theirs.as_expr() * ours.LC()
        assert sympy.simplify(diff) == 0
        checked += 1


def test_squarefree_matches_sympy_factorization():
    rng = random.Random(515)
    checked = 0
    while checked < 80:
        g = rand_bipoly(rng, rng.randint(1, 5), 4)
        if rng.random() < 0.4:
            square = rand_bipoly(rng, 2, 2)
            if not square.is_zero():
                g = g * square * square
        if g.is_zero() or g.total_degree() < 1:
            continue
        _, factors = sympy.factor_list(Poly(to_sympy(g), Z, W).as_expr())
        assert is_squarefree(g) == all(e == 1 for _, e in factors)
        checked += 1


LOW_MONOMIALS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def rand_low_factor(rng, through_origin):
    """A random factor of total degree <= 2, through the origin or not."""
    terms = {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
             for m in rng.sample(LOW_MONOMIALS, rng.randint(1, 3))}
    if not through_origin:
        terms[(0, 0)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return BiPoly(terms)


def test_local_reducedness_matches_sympy_factorization():
    # is_isolated is local: every factor through the origin is simple;
    # repeated factors elsewhere do not matter.  Factors of degree <= 2
    # keep every edge polynomial within the supported extensions, so no
    # germ may raise ExtensionUnsupported.
    rng = random.Random(2718)
    isolated = 0
    for _ in range(300):
        g = BiPoly.constant(Fraction(1))
        for k in range(rng.randint(1, 3)):
            f = rand_low_factor(rng, k == 0 or rng.random() < 0.5)
            g = g * f * f if rng.random() < 0.25 else g * f
        _, factors = Poly(to_sympy(g), Z, W).factor_list()
        locally_reduced = all(e == 1 for f, e in factors if f.eval({Z: 0, W: 0}) == 0)
        assert is_isolated(g) == locally_reduced, g.terms
        isolated += locally_reduced
    assert 100 < isolated < 200  # both answers are well represented


def test_branch_counts_on_binomial_products():
    rng = random.Random(606)
    checked = 0
    while checked < 80:
        g = BiPoly.constant(Fraction(1))
        expected = 0
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            c = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
            g = g * BiPoly({(a, 0): Fraction(1), (0, b): -c})
            expected += igcd(a, b)
        if not is_isolated(g):
            continue
        assert branch_count(g).branch_count == expected
        checked += 1
