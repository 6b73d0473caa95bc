"""Exact core: polynomials, Smith normal form, cokernels, groups."""

import random
from fractions import Fraction

import pytest

import kminusone.exact as exact
from kminusone.errors import InputError
from kminusone.fields import NumberField
from kminusone.exact import (
    BiPoly,
    FinAbGroup,
    IntMatrix,
    UniPoly,
    cokernel,
    invariant_factors,
    smith_normal_form,
    squarefree_decomposition,
    uni_gcd,
)


def U(*coeffs):
    return UniPoly.from_int_coeffs(coeffs)


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), monic: the product of the factors of Yun's
    decomposition."""
    out = U(1)
    for a, _ in squarefree_decomposition(p):
        out = out * a
    return out


class TestUniPoly:
    def test_normalization_drops_leading_zeros(self):
        assert U(1, 2, 0, 0) == U(1, 2)
        assert U(0).is_zero()
        assert U().degree == -1

    def test_arithmetic(self):
        p, q = U(1, 1), U(-1, 1)          # t + 1, t - 1
        assert p * q == U(-1, 0, 1)        # t^2 - 1
        assert p + q == U(0, 2)
        assert (p * q) % p == U()
        quo, rem = U(-1, 0, 1).divmod(U(-1, 1))
        assert quo == U(1, 1) and rem.is_zero()

    def test_evaluate(self):
        assert U(1, 2, 3)(Fraction(2)) == 1 + 4 + 12

    def test_gcd(self):
        # (t-1)^2 (t+2) vs (t-1)(t+2)^2
        a = U(-1, 1) * U(-1, 1) * U(2, 1)
        b = U(-1, 1) * U(2, 1) * U(2, 1)
        assert uni_gcd(a, b) == (U(-1, 1) * U(2, 1)).monic()


class TestSquarefreePart:
    def test_already_squarefree(self):
        assert squarefree_part(U(1, 0, 1)) == U(1, 0, 1)  # t^2 + 1

    def test_double_root(self):
        # (t-1)^2 -> t - 1
        assert squarefree_part(U(1, -2, 1)) == U(-1, 1)

    def test_hand_factored_oracle(self):
        # t^3 - t^2 = t^2 (t - 1) -> t (t - 1) = t^2 - t
        assert squarefree_part(U(0, 0, -1, 1)) == U(0, -1, 1)

    def test_zero_rejected(self):
        with pytest.raises(InputError, match="squarefree decomposition of the zero"):
            squarefree_part(U())

    def test_square_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            p = UniPoly.from_int_coeffs([rng.randint(-4, 4) for _ in range(4)] + [1])
            assert squarefree_part(p * p) == squarefree_part(p)

    def test_yun_decomposition(self):
        p = U(-1, 1) ** 1 * U(1, 1) ** 3
        decomp = squarefree_decomposition(p)
        assert decomp == [(U(-1, 1), 1), (U(1, 1), 3)]


class TestSquarefreeCertificate:
    def test_squarefree_over_q_but_not_modulo_the_prime(self):
        f = U(0, -exact._PRIME, 1)  # t * (t - P)
        assert not exact.coprime_mod_prime(f, f.derivative())
        assert squarefree_decomposition(f) == [(f, 1)]

    def test_leading_coefficient_divisible_by_the_prime(self):
        # monic, these have the denominator P, which f = D * p keeps as lc(f)
        f = U(-1, 0, exact._PRIME)
        assert not exact.coprime_mod_prime(f.monic(), f.monic().derivative())
        # Yun's factors come back primitive in Z[t], as f is
        assert squarefree_decomposition(f) == [(f, 1)]
        assert squarefree_decomposition(f * f) == [(f, 2)]

    def test_certified_polynomials_skip_yun(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Yun's algorithm ran")
        monkeypatch.setattr(exact, "int_gcd", refuse)
        # the edge polynomial of (z^2 - 5/2*w^3)*(z^2 - w^3)
        edge = UniPoly((Fraction(5, 2), 0, Fraction(-7, 2), 0, Fraction(1)))
        assert squarefree_decomposition(edge) == [(edge, 1)]
        assert squarefree_decomposition(U(7)) == []
        with pytest.raises(AssertionError, match="Yun"):
            squarefree_decomposition(U(-1, 1) ** 2 * U(2, 1))


class TestSmithNormalForm:
    def test_invariant_factors_of_z2_plus_z3(self):
        # oracle: Z/2 + Z/3 = Z/6, so diag(2, 3) has invariant factors (1, 6)
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        d, u, v = smith_normal_form(m)
        assert d.to_rows() == [[1, 0], [0, 6]]
        assert (u @ m @ v).entries == d.entries

    def test_identity_case(self):
        m = IntMatrix.from_rows([[1]])
        d, u, v = smith_normal_form(m)
        assert d.to_rows() == [[1]]
        assert u.to_rows() == [[1]] and v.to_rows() == [[1]]

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 2)
        d, _, _ = smith_normal_form(m)
        assert d.to_rows() == [[0, 0], [0, 0]]

    def test_empty_matrices(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            m = IntMatrix.zeros(rows, cols)
            d, u, v = smith_normal_form(m)
            assert (d.rows, d.cols) == (rows, cols)
            assert (u @ m @ v).entries == d.entries

    def test_random_property_suite(self):
        rng = random.Random(2024)
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntMatrix(rows, cols,
                          tuple(rng.randint(-9, 9) for _ in range(rows * cols)))
            d, u, v = smith_normal_form(m)
            assert (u @ m @ v).entries == d.entries
            assert d.is_diagonal()
            diag = [x for x in d.diagonal_entries() if x]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert abs(u.det()) == 1
            assert abs(v.det()) == 1
            if rows == cols and m.det() != 0:
                prod = 1
                for x in diag:
                    prod *= x
                assert prod == abs(m.det())


class TestCokernel:
    def test_spec_examples(self):
        assert cokernel(IntMatrix.from_rows([[1]])).is_trivial()
        assert cokernel(IntMatrix.from_rows([[0]])) == FinAbGroup.free(1)
        assert cokernel(IntMatrix.from_rows([[2]])) == FinAbGroup(0, (2,))

    def test_rank_formula(self):
        rng = random.Random(5)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = IntMatrix(rows, cols,
                          tuple(rng.randint(-5, 5) for _ in range(rows * cols)))
            d, _, _ = smith_normal_form(m)
            r = sum(1 for x in d.diagonal_entries() if x)
            assert cokernel(m).free_rank == rows - r

    def test_zero_columns_give_free_group(self):
        assert cokernel(IntMatrix.zeros(3, 0)) == FinAbGroup.free(3)


def snf_factors(m):
    """The oracle: the nonzero diagonal of the Smith form with U and V."""
    d, u, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    return tuple(abs(x) for x in d.diagonal_entries() if x)


def random_matrix(rng, rows, cols, entry):
    """Entries in [-entry, entry], a third of them zero."""
    return IntMatrix(rows, cols, tuple(rng.randint(-entry, entry) * (rng.random() < 2 / 3)
                                       for _ in range(rows * cols)))


def low_rank_matrix(rng, rows, cols, rank, entry):
    """A product rows x rank times rank x cols: rank at most rank."""
    left = random_matrix(rng, rows, rank, entry)
    right = random_matrix(rng, rank, cols, entry)
    return left @ right


class TestTransformFreeRoute:
    """rank, det, invariant_factors and cokernel against the Smith form
    with U and V (sympy in tests/test_cross_validation.py)."""

    def check(self, m):
        factors = snf_factors(m)
        assert invariant_factors(m) == factors
        assert m.rank() == len(factors)
        assert cokernel(m) == FinAbGroup(m.rows - len(factors),
                                         tuple(x for x in factors if x > 1))
        if m.rows == m.cols:
            det = 1
            for x in factors:
                det *= x
            assert abs(m.det()) == (det if len(factors) == m.rows else 0)

    def test_seeded_random_matrices(self):
        rng = random.Random(4044)
        for _ in range(400):
            self.check(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 12))

    def test_empty_and_zero_shapes(self):
        for rows, cols in [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (2, 5), (5, 2)]:
            m = IntMatrix.zeros(rows, cols)
            self.check(m)
            assert invariant_factors(m) == ()
            assert cokernel(m) == FinAbGroup.free(rows)
        assert IntMatrix.zeros(0, 0).det() == 1

    def test_rank_deficient_rectangular(self):
        rng = random.Random(4045)
        for _ in range(300):
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)
            rank = rng.randint(1, min(rows, cols) - 1)
            m = low_rank_matrix(rng, rows, cols, rank, 4)
            assert m.rank() <= rank
            self.check(m)

    def test_torsion_and_negative_entries(self):
        rng = random.Random(4046)
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix(rows, cols, tuple(rng.choice((0, 0, 2, -4, 6, -6, 12, 9, -18))
                                            for _ in range(rows * cols)))
            self.check(m)
        m = IntMatrix.from_rows([[-4, 0, 0], [2, 6, 3], [2, 0, 3]])
        assert invariant_factors(m) == (1, 6, 12)
        assert m.det() == -72

    def test_entries_near_two_to_the_sixty(self):
        rng = random.Random(4047)
        big = 2 ** 60
        for _ in range(150):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check(IntMatrix(rows, cols, tuple(
                rng.choice((big, -big, 3 * big, big + 1, rng.randint(-big, big), 0))
                for _ in range(rows * cols))))
        # two columns that agree except in one entry of size 2^60
        m = IntMatrix.from_rows([[big, big], [1, 1], [0, 2 * big]])
        assert invariant_factors(m) == (1, 2 * big)

    def test_known_cokernel(self):
        # diag(2, 3, 0) hides Z/6 + Z behind an unimodular change of basis
        m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
        u = IntMatrix.from_rows([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        v = IntMatrix.from_rows([[1, 0, 0], [5, 1, 0], [-2, 7, 1]])
        assert cokernel(u @ m @ v) == FinAbGroup(1, (6,))
        assert (u @ m @ v).rank() == 2

    def test_cokernel_builds_no_transforms(self, monkeypatch):
        def refuse(m):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert cokernel(m) == FinAbGroup(0, (2, 6, 12))
        assert m.rank() == 3 and m.det() == -144


def unimodular(rng, n, entry=1):
    """Lower times upper unitriangular, entries in [-entry, entry], rows
    permuted and signed: det = +-1."""
    lower = IntMatrix.from_rows([[1 if i == j else rng.randint(-entry, entry) * (j < i)
                                  for j in range(n)] for i in range(n)])
    upper = IntMatrix.from_rows([[1 if i == j else rng.randint(-entry, entry) * (j > i)
                                  for j in range(n)] for i in range(n)])
    rows = (lower @ upper).to_rows()
    rng.shuffle(rows)
    return IntMatrix.from_rows([[-x for x in row] if rng.random() < 0.5 else row
                                for row in rows])


def with_smith_diagonal(rng, chain, entry=1):
    """U * diag(chain) * V for random unimodular U and V."""
    n = len(chain)
    return unimodular(rng, n, entry) @ IntMatrix.diagonal(chain) @ unimodular(rng, n, entry)


class TestCertifiedModulus:
    """A square nonsingular matrix whose Hadamard bound on |det| passes
    2^64 eliminates modulo a multiple of its largest invariant factor dn,
    found by solving against probe columns, and a second run corrects a
    candidate the probes got wrong.  Below that bound it eliminates once
    modulo |det|, without probes."""

    @pytest.fixture
    def moduli(self, monkeypatch):
        seen = []
        pivot_gcds = exact._pivot_gcds

        def record(a, R):
            seen.append(R)
            return pivot_gcds(a, R)

        monkeypatch.setattr(exact, "_pivot_gcds", record)
        return seen

    def test_zero_probes_fall_back_to_the_determinant(self, monkeypatch, moduli):
        # the candidate is then 1, and the correction runs modulo |D|
        monkeypatch.setattr(exact, "_probe_columns", lambda n: [[0, 0]] * n)
        rng = random.Random(4049)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            m = random_matrix(rng, n, n, 2**80)  # two nonzero rows pass the bound
            det = m.det()
            if abs(det) < 2:  # unimodular: the candidate 1 is already exact
                continue
            moduli.clear()
            assert invariant_factors(m) == snf_factors(m)
            assert moduli == [1, abs(det)]
            checked += 1

    def test_repeated_top_factor_runs_once_modulo_it(self, moduli):
        rng = random.Random(4050)
        chain, d = [], 1
        for _ in range(63):
            d *= rng.choice((1, 1, 1, 2, 3))
            chain.append(d)
        chain.append(d)  # d63 = d64
        m = with_smith_diagonal(rng, chain)
        assert invariant_factors(m) == tuple(chain)
        assert moduli == [d]
        assert abs(m.det()).bit_length() > 10 * d.bit_length()

    def test_unlucky_probes_are_corrected(self, moduli):
        # the top power of 2 occurs once, so each probe misses it with
        # probability 1/2, both with 1/4, and the candidate then lacks a 2
        rng = random.Random(4051)
        corrected = 0
        for _ in range(40):
            chain, d = [], 1
            for _ in range(rng.randint(2, 6)):
                d *= rng.choice((1, 3, 5))
                chain.append(d)
            chain[-1] *= 2 ** rng.randint(1, 3)
            m = with_smith_diagonal(rng, chain, 2**64)  # past the bound from n = 2
            moduli.clear()
            assert invariant_factors(m) == snf_factors(m) == tuple(chain)
            # a right candidate C = dn needs one run, modulo C or modulo s = |D| / C;
            # a wrong one a run modulo C and a correction, after one modulo s if s < C
            if len(moduli) > 1:
                assert chain[-1] % moduli[-2] == 0  # the candidate divides dn
                assert moduli[-1] % chain[-1] == 0
                assert len(moduli) == 2 or moduli[0] * moduli[1] == abs(m.det())
                corrected += 1
        assert corrected >= 1

    def test_a_wrong_candidate_under_the_smaller_cofactor_falls_back(self, monkeypatch, moduli):
        # doubled probes halve C to dn / 2, as dn holds the chain's one 2; then
        # s = |D| / C = 6 < C, but d1 ... dn-1 = 3 is not s, so the run modulo
        # 6 is followed by the run modulo C and the correction modulo dn
        probe_columns = exact._probe_columns
        monkeypatch.setattr(exact, "_probe_columns",
                            lambda n: [[2 * x, 2 * y] for x, y in probe_columns(n)])
        chain = [1] * 6 + [3, 3 * 2 * 5 ** 20]
        m = with_smith_diagonal(random.Random(4053), chain, 2**64)
        assert invariant_factors(m) == snf_factors(m) == tuple(chain)
        assert moduli == [6, chain[-1] // 2, chain[-1]]

    def test_small_determinants_skip_the_probes(self, monkeypatch, moduli):
        def refuse(n):
            raise AssertionError("probe columns for a determinant under 2^64")

        monkeypatch.setattr(exact, "_probe_columns", refuse)
        rng = random.Random(4052)
        for n in range(1, 9):  # |row|^2 <= 8 * 12^2 < 2^11: the bound is under 2^44
            m = random_matrix(rng, n, n, 12)
            while not m.det():
                m = random_matrix(rng, n, n, 12)
            moduli.clear()
            assert invariant_factors(m) == snf_factors(m)
            assert moduli == [abs(m.det())]


class TestInjectivity:
    """The injectivity check keeps firing now that it reads the rank
    off the one cokernel computation."""

    def test_rank_deficient_threefold_matrix(self):
        from kminusone.localsing import from_branch_number
        from kminusone.varieties import VarietySpec, threefold_invariants

        # 3 x 2 of rank 1 whose cokernel also has torsion: Z^2 + Z/2
        spec = VarietySpec((from_branch_number(4),), pic_rank=1, cl_rank=3,
                           restriction_matrix=IntMatrix.from_rows(
                               [[2, 4], [4, 8], [-2, -4]]))
        with pytest.raises(InputError, match="does not have full column rank delta"):
            threefold_invariants(spec)
        full = VarietySpec((from_branch_number(4),), pic_rank=1, cl_rank=3,
                           restriction_matrix=IntMatrix.from_rows(
                               [[2, 4], [4, 2], [-2, -4]]))
        assert threefold_invariants(full).k_minus_one == FinAbGroup(1, (2, 6))

    def test_surface_rank_disagreeing_with_resolution_data(self):
        from kminusone.varieties import SurfaceResolutionSpec, surface_k_minus_one

        # the rank data give rk K_-1 = 0, but the 2 x 3 matrix has rank 1
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=3, exceptional_components=2,
            restriction_matrix=IntMatrix.from_rows([[3, 6, 0], [-1, -2, 0]]))
        with pytest.raises(InputError, match="matrix cokernel rank disagrees"):
            surface_k_minus_one(spec)


class TestFinAbGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 2))  # chain violated
        with pytest.raises(ValueError):
            FinAbGroup(-1)

    def test_direct_sum_renormalizes(self):
        a = FinAbGroup(0, (2,))
        b = FinAbGroup(0, (3,))
        assert a.direct_sum(b) == FinAbGroup(0, (6,))
        assert a.direct_sum(a) == FinAbGroup(0, (2, 2))
        assert FinAbGroup.free(2).direct_sum(a) == FinAbGroup(2, (2,))

    def test_repeated(self):
        assert FinAbGroup.cyclic(2).repeated(3) == FinAbGroup(0, (2, 2, 2))
        assert FinAbGroup.free(1).repeated(0).is_trivial()

    def test_repeated_in_closed_form(self, monkeypatch):
        g = FinAbGroup(2, (2, 6))
        sums = g.direct_sum(g).direct_sum(g)

        def refuse(*args):
            raise AssertionError("repeated builds the sum one copy at a time")

        monkeypatch.setattr(FinAbGroup, "direct_sum", refuse)
        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        assert FinAbGroup.cyclic(2).repeated(10 ** 6) == FinAbGroup(0, (2,) * 10 ** 6)
        assert g.repeated(3) == FinAbGroup(6, (2, 2, 2, 6, 6, 6)) == sums

    def test_direct_sum_against_the_cokernel_route(self):
        # the sum of two groups is the cokernel of the block-diagonal
        # matrix of their relations; commutative and associative
        rng = random.Random(4048)

        def group():
            chain, d = [], 1
            for _ in range(rng.randint(0, 4)):
                d *= rng.choice((1, 2, 3, 5, 4))
                chain.append(d)
            return FinAbGroup(rng.randint(0, 2), tuple(x for x in chain if x > 1))

        def relations(*groups):
            diag = [f for g in groups for f in (0,) * g.free_rank + g.invariant_factors]
            n = len(diag)
            return IntMatrix(n, n, tuple(diag[i] if i == j else 0
                                         for i in range(n) for j in range(n)))

        for _ in range(200):
            a, b, c = group(), group(), group()
            assert a.direct_sum(b) == cokernel(relations(a, b))
            assert a.direct_sum(b) == b.direct_sum(a)
            assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))

    def test_str(self):
        assert str(FinAbGroup.trivial()) == "0"
        assert str(FinAbGroup.free(1)) == "Z"
        assert str(FinAbGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


class TestBiPoly:
    def test_arithmetic_and_order(self):
        z, w = BiPoly.var_z(), BiPoly.var_w()
        g = z * z + w * w * w
        assert g.order() == 2
        assert (g - g).is_zero()
        assert (z + w) ** 2 == z * z + z * w * BiPoly.constant(Fraction(2)) + w * w

    def test_zero_order_rejected(self):
        with pytest.raises(InputError, match="order of the zero polynomial"):
            BiPoly.zero().order()

    def test_one_term_products_and_powers_over_a_number_field(self):
        k = NumberField(U(-2, 0, 1))  # Q(sqrt 2)
        r = k.generator
        m = BiPoly({(1, 2): r + 1})
        p = BiPoly({(0, 0): k.one, (2, 1): r, (3, 0): r * Fraction(-1, 3)})

        def naive_product(x, y):
            out = BiPoly()
            for (a1, b1), c1 in x.terms.items():
                for (a2, b2), c2 in y.terms.items():
                    out = out + BiPoly({(a1 + a2, b1 + b2): c1 * c2})
            return out

        for n in range(6):
            assert m ** n == exact.power(m, n, BiPoly.constant(k.one))
        assert m ** 3 == BiPoly({(3, 6): (r + 1) * (r + 1) * (r + 1)})
        assert m * p == p * m == naive_product(m, p)
        assert m * m == naive_product(m, m)
        assert (m * BiPoly()).is_zero() and (p - p).is_zero()
