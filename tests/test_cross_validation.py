"""Optional cross-validation against sympy (skipped when unavailable).

sympy is not a dependency of the package; when it happens to be
installed, these tests compare the exact core against an independent
implementation: Smith invariant factors, bivariate gcds, squarefree
detection and decomposition, local reducedness at the origin, branch
counts on binomial products with known answers, parsed germ texts, and
the specialisation certificate that stands in front of the bivariate gcd.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd as igcd, prod

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, ZZ, Matrix, Poly, symbols  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from kminusone import exact, germs  # noqa: E402
from kminusone.errors import InputError, KMinusOneError, NotIsolated  # noqa: E402
from kminusone.exact import BiPoly, FinAbGroup, IntMatrix, UniPoly, cokernel, \
    invariant_factors, smith_normal_form, squarefree_decomposition  # noqa: E402
from kminusone.germs import BranchReport, bipoly_gcd, branch_count, \
    branch_count_factored, is_isolated  # noqa: E402
from kminusone.parsing import parse_polynomial  # noqa: E402

Z, W, T = symbols("z w t")


def is_squarefree(g):
    """Squarefree over Q: gcd(g, g_z, g_w) is constant (characteristic 0)."""
    return bipoly_gcd(bipoly_gcd(g, g.derivative_z()), g.derivative_w()).total_degree() == 0


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
    # the elimination takes two columns a step while the 2 x 2 pivot block is
    # nonsingular.  Row k agrees with a combination of the rows above it on
    # columns 0..k, so the leading (k+1)-minor vanishes after k // 2 double
    # steps: at even k the pivot a[k][k] is 0 and a row below is swapped in,
    # at odd k the block at k - 1 is singular, so one step runs and row k is
    # swapped.  Double steps then resume, on rows of odd or even length.
    for _ in range(40):
        n = rng.randint(5, 9)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        k = rng.randint(2, n - 3)
        coef = [rng.randint(-2, 2) for _ in range(k)]
        rows[k][:k + 1] = [sum(x * rows[t][j] for t, x in enumerate(coef)) for j in range(k + 1)]
        m = IntMatrix.from_rows(rows)
        assert m.det() == Matrix(rows).det()
        sm = sympy_snf(Matrix(rows), domain=ZZ)
        assert invariant_factors(m) == tuple(abs(sm[j, j]) for j in range(n) if sm[j, j] != 0)
    # wide and tall products of odd and even rank k whose column col repeats
    # column col - 1 twice over, so the pass skips a column between pivots
    for i in range(40):
        k = 1 + i % 5
        r, c = (k + rng.randint(0, 3), k + 2) if i % 2 else (k + 1, k + rng.randint(2, 5))
        left = Matrix(r, k, [rng.randint(-3, 3) for _ in range(r * k)])
        right = Matrix(k, c, [rng.randint(-3, 3) for _ in range(k * c)])
        col = rng.randint(1, c - 1)
        right[:, col] = 2 * right[:, col - 1]
        entries = [int(x) for x in left * right]
        m = IntMatrix(r, c, tuple(entries))
        sm = sympy_snf(Matrix(r, c, entries), domain=ZZ)
        assert invariant_factors(m) == tuple(abs(sm[j, j]) for j in range(min(r, c)) if sm[j, j] != 0)
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
    # sizes 13-20, odd and even, past the Hadamard bound 2^128 at which the
    # elimination carries probe columns; the constructed chain is the oracle
    for n in range(13, 21):
        chain, d = [], 1
        for _ in range(n):
            d *= rng.choice((1, 1, 1, 2, 3))
            chain.append(d)
        m = (unitriangular(n, True) * unitriangular(n, False) * Matrix.diag(*chain)
             * unitriangular(n, False) * unitriangular(n, True))
        rows = [[int(x) for x in m.row(i)] for i in range(n)]
        assert prod(sum(x * x for x in row) for row in rows) >> 128
        ours = IntMatrix.from_rows(rows)
        assert invariant_factors(ours) == tuple(chain)
        assert abs(ours.det()) == prod(chain)


def rand_rational_bipoly(rng, nterms, deg_z, deg_w):
    """Up to nterms terms z^a w^b, a <= deg_z and b <= deg_w, with
    coefficients n/d, n in -4..4 and d in 1..7 (2..7 for half of them)."""
    t = {}
    for _ in range(nterms):
        den = rng.choice((1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7))
        t[(rng.randint(0, deg_z), rng.randint(0, deg_w))] = Fraction(rng.randint(-4, 4), den)
    return BiPoly(t)


def test_cokernels_modulo_the_smaller_cofactor_match_sympy(monkeypatch):
    # seeded n x n matrices with entries -9..9, as for an n-node threefold,
    # whose columns are scaled to plant Z/p + Z/p or Z/4 + Z/2 in the
    # cokernel: then 1 < s = |D| / C < C, and the first elimination runs
    # modulo s.  A plain one with a cyclic cokernel has s = 1 and runs none.
    moduli = []
    pivot_gcds = exact._pivot_gcds
    monkeypatch.setattr(exact, "_pivot_gcds", lambda a, R: moduli.append(R) or pivot_gcds(a, R))
    rng = random.Random(9004)
    cyclic = 0
    for n in (16, 18, 20, 22, 24):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for planted in ((), (2, 2), (3, 3), (5, 5), (7, 7), (4, 2)):
            scaled = [[x * d for x, d in zip(row, planted + (1,) * n)] for row in rows]
            sm = sympy_snf(Matrix(scaled), domain=ZZ)
            theirs = tuple(abs(int(sm[j, j])) for j in range(n))
            moduli.clear()
            assert invariant_factors(IntMatrix.from_rows(scaled)) == theirs
            if planted:
                assert moduli and moduli[0] ** 2 < prod(theirs)  # moduli[0] = s < C
            elif prod(theirs[:-1]) == 1:
                assert moduli == []
                cyclic += 1
    assert cyclic >= 2


def test_bivariate_gcd_matches_sympy():
    # the PRS runs over Z[w] in z or, when g1 has the higher degree in z, in
    # w; either way the gcd is normalized in the orientation of the input.
    # The planted common factor is bivariate, in Q[z] only or in Q[w] only:
    # the last two are a content over Z[w] or Z[z] in one orientation and
    # meet the PRS in the other.  Coefficients have denominators 2-7,
    # leading coefficients either sign, and one argument in ten is zero.
    rng = random.Random(4242)
    seen, dens, negative, zero = Counter(), set(), 0, 0
    while sum(seen.values()) < 120:
        kind = ("zw", "z", "w")[sum(seen.values()) % 3]
        mult = BiPoly.zero()
        while mult.total_degree() < 1:
            mult = rand_rational_bipoly(rng, rng.randint(1, 3), 2 * ("z" in kind), 2 * ("w" in kind))
        shape = rng.choice(((3, 3), (5, 1), (1, 5)))  # cofactor degrees in z and w
        g1 = rand_rational_bipoly(rng, rng.randint(1, 4), *shape) * mult
        g2 = rand_rational_bipoly(rng, rng.randint(1, 4), 3, 3) * mult
        if g1.is_zero() or g2.is_zero():
            continue
        if sum(seen.values()) % 10 == 9:
            g1, g2 = (BiPoly.zero(), g2) if zero % 2 else (g1, BiPoly.zero())
            zero += 1
        d = bipoly_gcd(g1, g2)
        assert d.columns()[-1].leading == 1
        seen[kind, g1.degree_z() > max((b for _, b in g1.terms), default=-1)] += 1
        dens |= {c.denominator for g in (g1, g2) for c in g.terms.values()}
        negative += any(g and g.columns()[-1].leading < 0 for g in (g1, g2))
        ours = Poly(to_sympy(d), Z, W)
        theirs = Poly(sympy.gcd(to_sympy(g1), to_sympy(g2), Z, W), Z, W)
        assert ours.total_degree() == theirs.total_degree()
        diff = ours.as_expr() * theirs.LC() - theirs.as_expr() * ours.LC()
        assert sympy.simplify(diff) == 0
    assert all(seen[kind, swapped] >= 5 for kind in ("zw", "z", "w") for swapped in (False, True))
    assert set(range(2, 8)) <= dens and negative >= 30 and zero == 12


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


def rand_uni(rng):
    return UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(rng.randint(2, 4))])


def test_squarefree_decomposition_matches_sympy_sqf_list():
    # the modular certificate answers the squarefree products, Yun the rest
    rng = random.Random(6161)
    repeated = 0
    for _ in range(300):
        p = UniPoly.const(Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 7])))
        for _ in range(rng.randint(1, 3)):
            p = p * rand_uni(rng) ** rng.randint(1, 3)
        if p.degree < 1:
            continue
        ours = {k: a.coeffs for a, k in squarefree_decomposition(p)}
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        _, factors = sympy.sqf_list(Poly(coeffs, T, domain=QQ))
        theirs = {k: tuple(Fraction(int(c.p), int(c.q))
                           for c in reversed(f.monic().all_coeffs()))
                  for f, k in factors}
        assert ours == theirs, p
        repeated += max(ours) > 1
    assert 100 < repeated < 250  # both answers are well represented


def test_modular_coprime_certificate_matches_sympy_gcd():
    # never True on a common factor; also pairs with lc(D*f) = 0 mod P (never
    # certified) and with g = 0 mod P (certified only for a constant f)
    def uni(p):
        return Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                    T, domain=QQ)

    rng, P, certified, refused = random.Random(2061), exact._PRIME, [0] * 4, 0
    for i in range(400):
        kind, f, g = i % 4, rand_uni(rng), rand_uni(rng)
        if kind == 0:
            h = rand_uni(rng)
            f, g = f * h, g * h
        elif kind == 1:
            f = UniPoly(f.coeffs[:-1] + (f.coeffs[-1] * P,)) if f else f
        elif kind == 2:
            g = g.scale(Fraction(P, rng.choice([1, 2, 7])))
        if f.is_zero():
            continue
        cert = exact.coprime_mod_prime(f, g)
        coprime = uni(f).gcd(uni(g)).degree() == 0
        assert coprime or not cert, (f, g)
        assert cert == (coprime and kind != 1 and (kind != 2 or f.degree == 0)), (f, g)
        certified[kind] += cert
        refused += coprime and not cert
    assert certified[3] > 90 and refused > 150


def rand_germ_text(rng, depth):
    """A germ text over the parser's and BiPoly's short paths: powers of
    monomials and constants (^0 included), products with a one-term side,
    differences that cancel, and parenthesised sums raised to powers."""
    def literal():
        p, q = rng.randint(0, 9), rng.choice([1, 1, 2, 3, 7])
        return str(p) if q == 1 else f"{p}/{q}"

    def monomial():
        parts = [literal()] if rng.random() < 0.6 else []
        parts += [f"{v}^{rng.randint(0, 5)}" if rng.random() < 0.5 else v
                  for v in rng.sample("zw", rng.randint(0, 2))]
        return "*".join(parts) or "1"

    if depth == 0:
        return monomial()
    x, y = rand_germ_text(rng, depth - 1), rand_germ_text(rng, depth - 1)
    return rng.choice([
        f"({monomial()})^{rng.randint(0, 6)}",
        f"{monomial()}*({x})",
        f"({x})*{monomial()}",
        f"{y} + ({x}) - ({x})",
        f"-({x}) + ({x})",
        f"({x}) - ({x})",
        f"({x} + ({y}))^{rng.randint(0, 3)}",
        f"({x})*({y}) - {monomial()}",
    ])


def test_parsed_germs_match_sympy_expand():
    rng = random.Random(3131)
    zero = 0
    for _ in range(300):
        text = rand_germ_text(rng, rng.randint(1, 3))
        ours = {k: sympy.Rational(c.numerator, c.denominator)
                for k, c in parse_polynomial(text).terms.items()}
        expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"z": Z, "w": W}))
        assert ours == Poly(expr, Z, W).as_dict(), text
        zero += not ours
    assert 10 < zero < 150  # cancellation to zero is well represented


# ---------------------------------------------------------------------------
# specialisation certificate in front of the bivariate gcd
# ---------------------------------------------------------------------------

# factors of w-degree 0, one of them through the origin (z)
Z_FACTORS = ("z", "z - 1", "z + 2", "z^2 + 1", "2*z - 1")
# vanish at the first 1, 2, 3, 4 and all 5 points the certificate tries
UNLUCKY = ("z - 1", "(z - 1)*(z + 1)", "(z - 1)*(z + 1)*(z - 2)",
           "(z - 1)*(z + 1)*(z - 2)*(z + 2)", "z*(z - 1)*(z + 1)*(z - 2)*(z + 2)")


def rand_w_factor(rng, through_origin):
    """rand_low_factor of positive w-degree."""
    while True:
        h = rand_low_factor(rng, through_origin)
        if any(b for _, b in h.terms):
            return h


def certificate_pair(rng, kind):
    """(f, g) sharing a factor through the origin (kind 0), one only away
    from it (1), one of w-degree 0 (2), or (3) with a factor that makes
    lc_w(f), f(a, w) or g(a, w) vanish at the first points tried, shared
    through the origin, away from it, or not at all."""
    u, v = rand_low_factor(rng, True), rand_low_factor(rng, True)
    if kind == 0:
        h = rand_w_factor(rng, True)
    elif kind == 1:
        h = rand_w_factor(rng, False)
    elif kind == 2:
        h = parse_polynomial(rng.choice(Z_FACTORS))
    else:
        bad, w = parse_polynomial(rng.choice(UNLUCKY)), BiPoly.var_w()
        h = rng.choice([BiPoly.constant(1), bad * w + BiPoly.var_z(), bad * w + BiPoly.constant(1)])
        u = u * bad if rng.random() < 0.3 else u
        v = v * bad if rng.random() < 0.3 else v
    return h * u, h * v


def gcd_only_branch_count_factored(factors):
    """branch_count_factored with the pairwise check it had before the
    certificate: an exact bivariate gcd for every pair."""
    reports = []
    for i, f in enumerate(factors):
        if f.is_zero():
            raise InputError(f"factor {i + 1} is zero")
        if not is_isolated(f):
            raise NotIsolated(f"factor {i + 1} is not an isolated germ")
        reports.append(branch_count(f))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if bipoly_gcd(factors[i], factors[j]).vanishes_at_origin():
                raise InputError(f"factors {i + 1} and {j + 1} share a common "
                                 "factor through the origin")
    return BranchReport(sum(rep.order for rep in reports),
                        sum(rep.branch_count for rep in reports))


def locally_reduced(g):
    """No factor of g through the origin is repeated, by sympy's factor_list."""
    _, factors = Poly(to_sympy(g), Z, W).factor_list()
    return all(e == 1 for f, e in factors if f.eval({Z: 0, W: 0}) == 0)


def outcome(count, factors):
    try:
        return count(factors)
    except KMinusOneError as exc:
        return type(exc).__name__, str(exc)


def test_coprime_certificate_matches_sympy_gcd():
    rng = random.Random(1789)
    certified = [0] * 4
    late = raised = 0
    for i in range(240):
        kind = i % 4
        f, g = certificate_pair(rng, kind)
        if f.is_zero() or g.is_zero() or not any(b for _, b in f.terms):
            continue
        common = sympy.gcd(to_sympy(f), to_sympy(g))
        cert = exact.coprime_certified(f, g)
        if cert:  # never True for a common factor of positive w-degree
            assert Poly(common, Z, W).degree(W) == 0, (f.terms, g.terms)
        certified[kind] += cert
        # lc_w(f) or g(a, w) vanishes at the first point, so a later one decided
        first = f.at_z(1)
        late += cert and (first.degree < max(b for _, b in f.terms)
                          or g.at_z(1).is_zero())
        through_origin = common.subs({Z: 0, W: 0}) == 0
        assert germs._share_factor_at_origin(f, g) == through_origin, (f.terms, g.terms)
        ours = outcome(branch_count_factored, [f, g])
        assert ours == outcome(gcd_only_branch_count_factored, [f, g]), (f.terms, g.terms)
        raised += isinstance(ours, tuple) and "share a common factor" in ours[1]
    assert certified[0] == certified[1] == 0
    assert certified[2] > 25 and 8 < certified[3] < 50 and late > 4
    assert raised > 40


def test_reduced_at_origin_matches_sympy_factorization():
    # squares through the origin, of z, away from it, and of factors whose
    # leading w-coefficient vanishes at the first points tried
    rng = random.Random(1848)
    reduced = 0
    for i in range(200):
        kind = i % 5
        g = rand_low_factor(rng, True)
        if kind == 0:
            h = rand_w_factor(rng, True)
        elif kind == 1:
            h = parse_polynomial(rng.choice(Z_FACTORS))
        elif kind == 2:
            h = rand_w_factor(rng, False)
        elif kind == 3:
            h = parse_polynomial(rng.choice(UNLUCKY[:3])) * BiPoly.monomial(0, 1) \
                + rand_low_factor(rng, rng.random() < 0.5)
        else:
            h = BiPoly.constant(1)
        g = g * h * h
        expect = locally_reduced(g)
        assert germs._reduced_at_origin.__wrapped__(g) == expect, g.terms
        reduced += expect
    assert 60 < reduced < 160


def test_depth_two_fallback_matches_sympy_local_reducedness(monkeypatch):
    # germs the recursion follows two shifts deep, times a square: the
    # certificate cannot prove them reduced, so the exact gcd decides
    real, gcds = germs.bipoly_gcd, []
    monkeypatch.setattr(germs, "bipoly_gcd", lambda f, g: gcds.append(1) or real(f, g))
    rng = random.Random(1917)
    base = parse_polynomial("(w - z - z^2)^2 - z^5")
    isolated = 0
    for _ in range(20):
        through_origin = rng.random() < 0.3
        h = rand_w_factor(rng, through_origin)
        g = base * h * h
        expect = locally_reduced(g)
        del gcds[:]
        germs._LAST_GERM.clear()
        germs._reduced_at_origin.cache_clear()
        assert is_isolated(g) == expect, g.terms
        if not through_origin:  # the recursion reaches depth 2
            assert gcds, g.terms
        isolated += expect
    assert 8 < isolated < 20
