"""Newton polygon and branch counting oracles.

The independent oracles used here:
  * binomial rule: z^a - c w^b has gcd(a, b) branches (count the
    parametrizations of the quasi-homogeneous germ);
  * additivity over coprime products;
  * hand-computed Newton polygons and recursions frozen as constants.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from alarm_budget import budget
from kminusone import germs
from kminusone.errors import ExtensionUnsupported, InputError, NotIsolated
from kminusone.exact import BiPoly, UniPoly
from kminusone.fields import NumberField
from kminusone.germs import (
    _roots_of_multiple_factor,
    bipoly_gcd,
    branch_count,
    branch_count_factored,
    is_isolated,
    newton_polygon,
)
from kminusone.parsing import parse_polynomial as poly


def is_squarefree(g):
    """Squarefree over Q: gcd(g, g_z, g_w) is constant (characteristic 0)."""
    return bipoly_gcd(bipoly_gcd(g, g.derivative_z()), g.derivative_w()).total_degree() == 0


class TestOrder:
    def test_ade_rows(self):
        assert poly("z^2 + w^3").order() == 2
        assert poly("z*w").order() == 2
        assert poly("z^3 + z*w^3").order() == 3

    def test_zero_rejected(self):
        with pytest.raises(InputError, match="order of the zero polynomial"):
            BiPoly.zero().order()


# germs that are not squarefree globally but reduced at the origin, with
# their branch numbers there
LOCAL_GERMS = {
    "z*w*(z-1)^2": 2,
    "z*w*(1+z+w)^2": 2,
    "(z^2-w^3)*(w-1)^2": 1,
}


class TestIsIsolated:
    def test_basic(self):
        assert is_isolated(poly("z^2 + w^2"))
        assert not is_isolated(poly("z^2"))          # repeated factor
        assert not is_isolated(poly("z + 1"))        # does not vanish
        assert not is_isolated(BiPoly.zero())

    def test_squarefree_with_axis_factor(self):
        assert is_isolated(poly("z*w"))
        assert is_isolated(poly("w*(z^2 + w^2)"))
        assert not is_isolated(poly("w^2*(z + w)"))

    def test_local_not_global(self):
        # repeated factors that miss the origin are units there
        for text in LOCAL_GERMS:
            assert is_isolated(poly(text)), text
            assert not is_squarefree(poly(text)), text
        # a repeated factor through the origin still fails
        assert not is_isolated(poly("z^2*(w - 1)"))
        assert not is_isolated(poly("(z - w^2)^2*(z + w)"))

    def test_repeated_factor_with_infinite_expansion(self):
        # w = z^2 - z^4 + ... never becomes a chart axis, so the recursion
        # alone would follow it forever; the exact check at depth 2 stops it
        assert not is_isolated(poly("(w + w^2 - z^2)^2"))
        assert not is_isolated(poly("z*(w + w^2 - z^2)^2*(w - 1)^2"))
        g = poly("(w + w^2 - z^2)*(w + w^2 - z^2 - z^5)")
        assert is_isolated(g)
        assert branch_count(g).branch_count == 2

    def test_undecidable_germ_propagates(self):
        with pytest.raises(ExtensionUnsupported):
            is_isolated(poly("(z^7 - 2*w^7)^2 + z^3*w^12"))

    def test_is_squarefree_catches_mixed_squares(self):
        assert not is_squarefree(poly("(z - w)^2 * (z + w)"))
        assert is_squarefree(poly("(z - w) * (z + w)"))


def gift_wrapped_hull(terms):
    """Vertices of the lower-left Newton boundary by decreasing z-exponent, by
    gift-wrapping: the reference for the monotone chain of _compact_edges."""
    pts = list(terms)
    bmin = min(b for _, b in pts)
    start = (min(a for a, b in pts if b == bmin), bmin)
    amin = min(a for a, _ in pts)
    end = (amin, min(b for a, b in pts if a == amin))
    chain = [start]
    cur = start
    while cur != end:
        best = None
        for pnt in pts:
            if pnt[0] >= cur[0]:
                continue
            if best is None:
                best = pnt
                continue
            lhs = (pnt[1] - cur[1]) * (cur[0] - best[0])
            rhs = (best[1] - cur[1]) * (cur[0] - pnt[0])
            if lhs < rhs or (lhs == rhs and pnt[0] < best[0]):
                best = pnt
        chain.append(best)
        cur = best
    return chain


def random_support(rng):
    """A stripped support (min a = min b = 0) without the origin, with points
    sharing a z-exponent.  Half are sums S + S of such a set: their hull is
    twice that of S, and a lattice point between each pair of adjacent doubled
    vertices makes a collinear run on every compact edge."""
    n = rng.randint(2, 9)  # points near a convex curve, and scattered ones
    pts = {(i, (n - i) ** 2 // n + rng.randint(0, 1)) for i in range(n)}
    pts |= {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 3))}
    pts |= {(0, rng.randint(n, 12)), (rng.randint(n, 12), 0)}
    pts |= {(a, rng.randint(0, 8)) for a, _ in rng.sample(sorted(pts), 2)}
    pts.discard((0, 0))
    if rng.random() < 0.5:
        pts = {(a + c, b + d) for a, b in pts for c, d in pts}
    return dict.fromkeys(pts, 1)


class TestNewtonPolygon:
    def test_monotone_chain_matches_gift_wrapping(self):
        rng, bent, collinear = random.Random(1998), 0, 0
        for _ in range(500):
            terms = random_support(rng)
            edges = germs._compact_edges(terms)
            assert [e.start for e in edges] + [edges[-1].end] == gift_wrapped_hull(terms)
            bent += len(edges) > 1
            collinear += any(sum(map(bool, e.edge_polynomial.coeffs)) > 2 for e in edges)
            for e in edges:
                (q, p), (a0, b0) = e.direction, e.start
                assert all(p * a + q * b >= p * a0 + q * b0 for a, b in terms), (terms, e)
            for e, f in zip(edges, edges[1:]):
                assert e.direction[1] * f.direction[0] < f.direction[1] * e.direction[0]
        assert bent > 250 and collinear > 250

    def test_single_edge_of_a1(self):
        edges = newton_polygon(poly("z^2 + w^2"))
        assert len(edges) == 1
        e = edges[0]
        assert (e.start, e.end) == ((2, 0), (0, 2))
        assert e.direction == (1, 1)
        assert e.lattice_length == 2
        assert e.edge_polynomial == UniPoly.from_int_coeffs([1, 0, 1])  # t^2 + 1

    def test_content_stripped_d4(self):
        # z^2 w + w^3 = w (z^2 + w^2): hull of the stripped part
        edges = newton_polygon(poly("z^2*w + w^3"))
        assert len(edges) == 1
        assert edges[0].edge_polynomial == UniPoly.from_int_coeffs([1, 0, 1])

    def test_coprime_exponents_have_lattice_length_one(self):
        edges = newton_polygon(poly("z^3 + w^5"))
        assert len(edges) == 1
        e = edges[0]
        assert e.lattice_length == 1
        assert e.direction == (3, 5)
        assert e.edge_polynomial == UniPoly.from_int_coeffs([1, 1])

    def test_two_edges(self):
        edges = newton_polygon(poly("(z^2 + w^2)*(z^2 + w^3)"))
        assert [e.lattice_length for e in edges] == [2, 1]

    def test_monomial_rejected(self):
        with pytest.raises(InputError, match="a pure monomial has no compact"):
            newton_polygon(poly("z^2*w"))

    def test_edge_degree_equals_lattice_length(self):
        rng = random.Random(11)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(2, 6)):
                terms[(rng.randint(0, 6), rng.randint(0, 6))] = Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]))
            g = BiPoly(terms)
            if g.is_zero() or not g.vanishes_at_origin() or len(g.terms) < 2:
                continue
            for e in newton_polygon(g):
                assert e.edge_polynomial.degree == e.lattice_length


class TestBranchCount:
    def test_ade_table_branches(self):
        for k in (1, 2, 3):
            assert branch_count(poly(f"z^2 + w^{2 * k}")).branch_count == 2
            assert branch_count(poly(f"z^2 + w^{2 * k + 1}")).branch_count == 1
        for k in (2, 3):
            assert branch_count(poly(f"z^2*w + w^{2 * k - 1}")).branch_count == 3
            assert branch_count(poly(f"z^2*w + w^{2 * k}")).branch_count == 2
        assert branch_count(poly("z^3 + z*w^3")).branch_count == 2
        assert branch_count(poly("z^3 + w^4")).branch_count == 1
        assert branch_count(poly("z^3 + w^5")).branch_count == 1

    def test_node(self):
        rep = branch_count(poly("z*w"))
        assert (rep.order, rep.cAn_index, rep.branch_count) == (2, 1, 2)

    def test_rational_double_root_recursion(self):
        # (z - w^2)(z - w^2 - w^3): double root shifts to z (z - w^3)
        rep = branch_count(poly("(z - w^2)*(z - w^2 - w^3)"))
        assert rep.branch_count == 2

    def test_binomial_gcd_oracle(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for c in (1, 2, Fraction(3, 2)):
                    g = poly(f"z^{a}") - BiPoly.monomial(0, b, Fraction(c))
                    if not is_isolated(g):
                        assert gcd(a, b) > 1  # only squares fail squarefreeness
                        continue
                    assert branch_count(g).branch_count == gcd(a, b), (a, b, c)

    def test_tangent_lines_on_one_edge(self):
        assert branch_count(poly("(z - w)*(z + w)*(z - 2*w)")).branch_count == 3

    def test_tacnode_and_ramphoid_cusp(self):
        assert branch_count(poly("w^2 - z^4")).branch_count == 2
        # (w - z^2)^2 - z^5 is irreducible with one branch
        assert branch_count(poly("(w - z^2)^2 - z^5")).branch_count == 1

    def test_irrational_double_root_single_extension(self):
        # (z^2 - 2w^2)^2 + z w^4: one branch along each of z = +-sqrt(2) w
        assert branch_count(poly("(z^2 - 2*w^2)^2 + z*w^4")).branch_count == 2

    def test_mixed_multiplicities_on_one_edge(self):
        # (z-w)^2 (z-2w) + w^4: the simple root is one smooth branch, the
        # double root recurses to a single ramified branch
        assert branch_count(poly("(z - w)^2*(z - 2*w) + w^4")).branch_count == 2

    def test_extension_recursion_splits_conjugate_tangents(self):
        # both factors are tangent to z = +-sqrt(2) w; the recursion over
        # Q(sqrt 2) must separate their strict transforms
        g = poly("(z^2 - 2*w^2)*(z^2 - 2*w^2 - w^3)")
        assert branch_count(g).branch_count == 4
        # and with matching first corrections it goes one level deeper
        g = poly("(z^2 - 2*w^2 - w^3)*(z^2 - 2*w^2 - w^3 - w^4)")
        assert branch_count(g).branch_count == 4

    def test_deep_rational_recursion(self):
        # z = w^2 + w^3 +- w^(7/2): ramified, one branch
        assert branch_count(poly("(z - w^2 - w^3)^2 - w^7")).branch_count == 1
        # z = w^2 + w^3 +- w^4: two branches
        assert branch_count(poly("(z - w^2 - w^3)^2 - w^8")).branch_count == 2

    def test_quartic_extension(self):
        # hand recursion: two smooth branches above each of the four
        # tangent directions z = 2^(1/4) i^k w
        assert branch_count(poly("(z^4 - 2*w^4)^2 + z*w^11")).branch_count == 8

    def test_unsupported_degree_seven_extension(self):
        with pytest.raises(ExtensionUnsupported):
            branch_count(poly("(z^7 - 2*w^7)^2 + z^3*w^12"))

    def test_error_message_mentions_factors_flag(self):
        with pytest.raises(ExtensionUnsupported, match="--factors"):
            branch_count(poly("(z^7 - 2*w^7)^2 + z^3*w^12"))

    def test_not_isolated_rejected(self):
        with pytest.raises(NotIsolated):
            branch_count(poly("z^2"))
        with pytest.raises(NotIsolated):
            branch_count(poly("z + 1"))

    def test_local_answers(self):
        for text, branches in LOCAL_GERMS.items():
            assert branch_count(poly(text)).branch_count == branches, text

    def test_one_recursion_per_call(self, monkeypatch):
        calls = []
        recurse = germs._branch_total

        def counting(terms, field, depth, germ):
            if depth == 0:
                calls.append(terms)
            return recurse(terms, field, depth, germ)

        monkeypatch.setattr(germs, "_branch_total", counting)
        germs._LAST_GERM.clear()
        for text in ("z^2*w + w^3", "(z - w^2)*(z - w^2 - w^3)", "z*w*(z-1)^2"):
            calls.clear()
            branch_count(poly(text))
            assert len(calls) == 1, text
        # the memo holds the last germ only
        calls.clear()
        branch_count(poly("z^2*w + w^3"))
        assert len(calls) == 1
        # the factored path counts each factor once too
        calls.clear()
        branch_count_factored([poly("z - w"), poly("z + w"), poly("w")])
        assert len(calls) == 3

    def test_cAn_index_is_order_minus_one(self):
        for text in ("z*w", "z^2 + w^5", "z^2*w + w^3", "z^3 + z*w^3"):
            rep = branch_count(poly(text))
            assert rep.cAn_index == rep.order - 1

    def test_branch_bound_by_lattice_length(self):
        # branch count <= total lattice length + stripped content exponents
        germs = ["z^2 + w^2", "z^2*w + w^3", "(z - w)*(z + w)*(z - 2*w)",
                 "z*w", "(z - w^2)*(z - w^2 - w^3)", "z^3 + z*w^3"]
        for text in germs:
            g = poly(text)
            alpha = min(a for a, _ in g.terms)
            beta = min(b for _, b in g.terms)
            stripped = BiPoly({(a - alpha, b - beta): c
                               for (a, b), c in g.terms.items()})
            total = alpha + beta
            if (0, 0) not in stripped.terms:
                total += sum(e.lattice_length for e in newton_polygon(stripped))
            assert branch_count(g).branch_count <= total


CATALOG_GERMS = [
    "z^2 + w^2", "z^2 + w^3", "z^2 + w^4", "z^2 + w^5", "z^2 + w^6",
    "z^2 + w^7", "z^2*w + w^3", "z^2*w + w^4", "z^2*w + w^5",
    "z^3 + w^4", "z^3 + z*w^3", "z^3 + w^5",
    "z", "w", "z - w", "z + w", "z - 2*w", "z - w^2",
]


class TestAdditivity:
    def test_random_coprime_products(self):
        rng = random.Random(99)
        done = 0
        while done < 60:
            f = poly(rng.choice(CATALOG_GERMS))
            g = poly(rng.choice(CATALOG_GERMS))
            if bipoly_gcd(f, g).total_degree() > 0:
                continue
            prod = f * g
            assert is_isolated(prod)
            assert branch_count(prod).branch_count == \
                branch_count(f).branch_count + branch_count(g).branch_count
            done += 1

    def test_random_linear_form_products(self):
        rng = random.Random(123)
        for _ in range(30):
            slopes = rng.sample(range(-6, 7), rng.randint(2, 4))
            g = BiPoly.constant(Fraction(1))
            for s in slopes:
                g = g * (poly("z") - BiPoly.monomial(0, 1, Fraction(s)))
            assert branch_count(g).branch_count == len(slopes)


class TestFactoredInput:
    def test_d4_as_product(self):
        rep = branch_count_factored([poly("w"), poly("z^2 + w^2")])
        assert rep.branch_count == 3
        assert rep.order == 3

    def test_single_smooth_branch(self):
        assert branch_count_factored([poly("z")]).branch_count == 1

    def test_three_lines(self):
        rep = branch_count_factored([poly("z - w"), poly("z + w"), poly("z - 2*w")])
        assert rep.branch_count == 3

    def test_common_factor_rejected(self):
        with pytest.raises(InputError, match="factors 1 and 2 share a common factor"):
            branch_count_factored([poly("z*w"), poly("w*(z + w)")])

    def test_common_factor_away_from_origin_allowed(self):
        rep = branch_count_factored([poly("z*(w - 1)"), poly("w*(w - 1)")])
        assert rep.branch_count == 2

    def test_non_isolated_factor_rejected(self):
        with pytest.raises(NotIsolated):
            branch_count_factored([poly("z^2")])

    def test_unsupported_germ_recovered_by_factoring(self):
        f1 = poly("z^7 - 2*w^7")
        rep = branch_count_factored([f1, poly("w")])
        assert rep.branch_count == 7 + 1


class TestExtensionTower:
    def test_second_extension_rejected(self):
        k = NumberField(UniPoly.from_int_coeffs([-2, 0, 1]))  # Q(sqrt 2)
        # t^2 - theta: a multiple-root factor with irrational coefficients
        fac = UniPoly((-k.generator, k.zero, k.one))
        with pytest.raises(ExtensionUnsupported):
            _roots_of_multiple_factor(fac, k)

    def test_rational_factor_over_extension_needs_no_new_field(self):
        k = NumberField(UniPoly.from_int_coeffs([-2, 0, 1]))
        fac = UniPoly((k.from_rational(-1), k.one))  # t - 1
        roots = _roots_of_multiple_factor(fac, k)
        assert len(roots) == 1
        gamma, copies, field = roots[0]
        assert copies == 1 and field is k and gamma == k.one

    def test_linear_factor_with_irrational_root_stays_in_field(self):
        k = NumberField(UniPoly.from_int_coeffs([-2, 0, 1]))
        fac = UniPoly((-k.generator, k.one))  # t - sqrt(2)
        ((gamma, copies, field),) = _roots_of_multiple_factor(fac, k)
        assert copies == 1 and field is k and gamma == k.generator


class TestBivariateGcd:
    def test_detects_shared_irreducible_factor(self):
        f = poly("(z + w)*(z^2 + w^3)")
        g = poly("(z + w)*w")
        d = bipoly_gcd(f, g)
        assert d.total_degree() == 1
        assert d == poly("z + w")

    def test_coprime_inputs(self):
        assert bipoly_gcd(poly("z^2 + w^3"), poly("z^2 + w^2")).total_degree() == 0

    def test_pure_w_content_factor(self):
        d = bipoly_gcd(poly("w^2*(z + 1)"), poly("w*(z - 1)"))
        assert d == poly("w")

    def test_gcd_with_zero(self):
        f = poly("z + w")
        assert bipoly_gcd(f, BiPoly.zero()) == f


def deep_shift(k, n):
    """(w - z - z^2 - ... - z^k)^2 - z^n: u = w - s_k(z) turns it into
    u^2 - z^n, so it has gcd(2, n) branches.  For n > 2k the chart-and-shift
    path would shift k times, one root of s_k per level; the whole-root step
    makes the substitution u = w - s_k(z) at once, before any chart."""
    return poly("(w" + "".join(f" - z^{i}" for i in range(1, k + 1)) + f")^2 - z^{n}")


def shift_family():
    """(germ, branches): the deep-shift ladder; the sheared A_(N-1)
    (z+w)^2 - w^N, which z -> z - w turns into z^2 - w^N; and
    (z+w)^n + z^(n+1), which w -> w - z turns into w^n + z^(n+1)."""
    family = [(deep_shift(k, n), gcd(2, n)) for k in range(1, 17) for n in (2 * k, 2 * k + 1)]
    family += [(poly(f"(z+w)^2 - w^{n}"), gcd(2, n)) for n in (11, 1000, 10000, 300001)]
    return family + [(poly(f"(z+w)^{n} + z^{n + 1}"), 1) for n in range(1, 15)]


class TestDeepShift:
    # Stated time budget for the whole family: 3 s, enforced by SIGALRM so
    # that a slow path fails the test instead of hanging the suite.  Without
    # the whole-root step the chart-and-shift path takes 20 s on deep-shift
    # at k = 9 and more than 5 s on the sheared germ at N = 10000.
    BUDGET_S = 3.0

    def test_branch_counts_within_budget(self, monkeypatch):
        def no_gcd(f, g):  # reduced germs are certified without it
            raise AssertionError("bipoly_gcd ran on a reduced germ")

        confirmed = []
        real = germs._reduced_at_origin.__wrapped__
        monkeypatch.setattr(germs, "bipoly_gcd", no_gcd)
        monkeypatch.setattr(germs, "_reduced_at_origin",
                            lambda g: confirmed.append(g) or real(g))
        with budget(self.BUDGET_S, AssertionError,
                    f"the shift family overran its {self.BUDGET_S} s budget"):
            for g, branches in shift_family():
                germs._LAST_GERM.clear()
                assert branch_count(g).branch_count == branches, g
        # the whole-root step takes each germ whose edge has a multiple root
        # onto its binomial form at depth 0 ((w - z)^2 - z^2 has none), so
        # none reaches the depth where reducedness is proved
        assert confirmed == []

    def test_whole_root_step_over_a_number_field(self):
        # (w - sqrt(2) z)^2 - z^3 over Q(sqrt 2) becomes w^2 - z^3 in one step
        k = NumberField(UniPoly.from_int_coeffs([-2, 0, 1]))
        r = k.generator
        f = {(0, 2): k.one, (1, 1): -2 * r, (2, 0): r * r, (3, 0): -k.one}
        assert germs._whole_root_shift(f, germs._compact_edges(f)) == {(0, 2): 1, (3, 0): -1}
        assert germs._branch_total(f, k, 1, None) == 1
