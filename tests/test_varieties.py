"""Threefold invariants, the del Pezzo catalog, and the surface formula."""

import random
from math import comb

import pytest

from kminusone.errors import InputError
from kminusone.exact import FinAbGroup, IntMatrix
from kminusone.localsing import from_branch_number, ordinary_double_point
from kminusone.varieties import (
    EnoughWeil,
    SurfaceResolutionSpec,
    VarietySpec,
    contracted_curves,
    del_pezzo_spec,
    kawamata_p2p2_spec,
    nodal_quadric_spec,
    surface_k_minus_one,
    surface_rank,
    threefold_invariants,
)
from kminusone.verdicts import decide


def nodes(r):
    return (ordinary_double_point(),) * r


class TestThreefoldInvariants:
    def test_nodal_quadric(self):
        spec = nodal_quadric_spec()
        rep = threefold_invariants(spec)
        assert (rep.L, rep.delta) == (1, 1)
        assert rep.k_minus_one.is_trivial()
        assert rep.enough_weil is EnoughWeil.YES
        assert rep.exact and spec.is_nodal

    def test_factorial_one_node_cubic_blowup(self):
        # one node left after blowing up the other; Pic = Cl, so delta = 0
        spec = VarietySpec(singularities=nodes(1),
                           pic_rank=2, cl_rank=2)
        rep = threefold_invariants(spec)
        assert rep.k_minus_one == FinAbGroup.free(1)
        assert rep.exact  # delta = 0 pins K_-1 = Z^L integrally
        assert rep.enough_weil is EnoughWeil.NO

    def test_nodal_hypersurface_with_defect(self):
        # r nodes, delta < r gives rank r - delta > 0
        for r, delta in [(2, 1), (5, 3), (10, 0)]:
            spec = VarietySpec(singularities=nodes(r),
                               pic_rank=1, cl_rank=1 + delta)
            rep = threefold_invariants(spec)
            assert rep.k_minus_one.free_rank == r - delta
            assert rep.enough_weil is EnoughWeil.NO

    def test_rank_zero_without_matrix_is_unverified(self):
        spec = VarietySpec(singularities=nodes(2),
                           pic_rank=1, cl_rank=3)
        rep = threefold_invariants(spec)
        assert rep.k_minus_one.is_trivial()
        assert rep.enough_weil is EnoughWeil.RANK_ZERO_UNVERIFIED
        assert not rep.exact

    def test_L_zero_is_factorial_and_enough(self):
        # branch number one everywhere: L = 0 forces both at once
        spec = VarietySpec(singularities=(from_branch_number(1),) * 3,
                           pic_rank=1, cl_rank=1)
        rep = threefold_invariants(spec)
        assert rep.L == 0 and rep.delta == 0
        assert rep.enough_weil is EnoughWeil.YES and rep.exact

    def test_matrix_decides_integrally(self):
        # L = 2, delta = 1, map (1, 2): cokernel Z (rank 1), not enough
        spec = VarietySpec(singularities=nodes(2), pic_rank=1,
                           cl_rank=2,
                           restriction_matrix=IntMatrix.from_rows([[1], [2]]))
        rep = threefold_invariants(spec)
        assert rep.k_minus_one == FinAbGroup.free(1)
        assert rep.enough_weil is EnoughWeil.NO
        # map (2, 2): cokernel Z + Z/2
        spec2 = VarietySpec(singularities=nodes(2), pic_rank=1,
                            cl_rank=2,
                            restriction_matrix=IntMatrix.from_rows([[2], [2]]))
        rep2 = threefold_invariants(spec2)
        assert rep2.k_minus_one == FinAbGroup(1, (2,))

    def test_matrix_can_certify_torsion_obstruction(self):
        # delta = L = 1 but the map is multiplication by 2: K_-1 = Z/2
        spec = VarietySpec(singularities=nodes(1), pic_rank=1,
                           cl_rank=2,
                           restriction_matrix=IntMatrix.from_rows([[2]]))
        rep = threefold_invariants(spec)
        assert rep.k_minus_one == FinAbGroup(0, (2,))
        assert rep.enough_weil is EnoughWeil.NO

    def test_defect_exceeds_L_rejected(self):
        spec = VarietySpec(singularities=nodes(1),
                           pic_rank=1, cl_rank=3)
        with pytest.raises(InputError, match="defect 2 exceeds L = 1"):
            threefold_invariants(spec)

    def test_matrix_shape_mismatch(self):
        spec = VarietySpec(singularities=nodes(2), pic_rank=1,
                           cl_rank=2,
                           restriction_matrix=IntMatrix.from_rows([[1, 0]]))
        with pytest.raises(InputError, match="must be 2 x 1, got 1 x 2"):
            threefold_invariants(spec)

    def test_matrix_must_be_injective(self):
        spec = VarietySpec(singularities=nodes(2), pic_rank=1,
                           cl_rank=3,
                           restriction_matrix=IntMatrix.from_rows(
                               [[1, 1], [1, 1]]))
        with pytest.raises(InputError, match="does not have full column rank delta"):
            threefold_invariants(spec)

    def test_report_invariant_randomized(self):
        rng = random.Random(55)
        for _ in range(100):
            r = rng.randint(0, 6)
            delta = rng.randint(0, r) if r else 0
            spec = VarietySpec(singularities=nodes(r),
                               pic_rank=1, cl_rank=1 + delta)
            rep = threefold_invariants(spec)
            assert 0 <= rep.delta <= rep.L
            assert rep.k_minus_one.free_rank == rep.L - rep.delta


class TestSmallResolution:
    """X~ = Bl_mu P^3, mu = 8 - d, resolves the del Pezzo threefold of
    degree d; its restriction matrix gives K_-1 as a cokernel."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_contracted_curves_meet_pic_trivially(self, d):
        # the full table, E_mu included: -K/2 = 2H - sum E_i has degree 0
        # on every contracted curve, so Pic(X) restricts to zero
        mu = 8 - d
        table = contracted_curves(mu)
        assert all(2 * h - sum(e) == 0 for h, *e in table)
        assert del_pezzo_spec(d).restriction_matrix \
            == IntMatrix.from_rows([row[:mu] for row in table])

    @pytest.mark.parametrize("d", range(1, 6))
    def test_rank_is_nodes_minus_points(self, d):
        # the small-resolution rank r - mu + rho_X - rho_Y with
        # rho_X = rho_Y = 1, as an oracle
        mu = 8 - d
        rep = threefold_invariants(del_pezzo_spec(d))
        assert rep.exact and rep.delta == mu
        assert rep.k_minus_one.free_rank == comb(mu, 2) + comb(mu, 6) - mu

    @pytest.mark.parametrize("d", range(1, 6))
    def test_cokernel_matches_sympy(self, d):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        m = del_pezzo_spec(d).restriction_matrix
        snf = smith_normal_form(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
        diagonal = [abs(snf[j, j]) for j in range(min(m.rows, m.cols))]
        nonzero = [x for x in diagonal if x]
        expected = FinAbGroup(m.rows - len(nonzero), tuple(x for x in nonzero if x > 1))
        assert threefold_invariants(del_pezzo_spec(d)).k_minus_one == expected

    def test_del_pezzo_degree_four(self):
        rep = threefold_invariants(del_pezzo_spec(4))
        assert rep.k_minus_one == FinAbGroup.free(2) and rep.delta == 4

    def test_del_pezzo_degree_one(self):
        assert decide(del_pezzo_spec(1)).k_minus_one == FinAbGroup.free(21)

    def test_balanced_case(self):
        # d = 5: as many nodes as points, and the 3 x 3 matrix is
        # unimodular, so K_-1 = 0 exactly rather than rank 0 unverified
        rep = threefold_invariants(del_pezzo_spec(5))
        assert rep.L == rep.delta == 3
        assert rep.enough_weil is EnoughWeil.YES
        assert decide(del_pezzo_spec(5)).k_minus_one == FinAbGroup.trivial()


class TestDelPezzo:
    def test_node_counts_from_blowup_description(self):
        # lines through pairs plus twisted cubics through six-tuples
        assert [len(del_pezzo_spec(d).singularities) for d in range(1, 6)] == \
            [28, 16, 10, 6, 3]

    @staticmethod
    def row(d):
        # degree 6 is the P^2 x P^2 section; every row's rank and verdict
        # come from decide on the spec, as in `table delpezzo`
        spec = kawamata_p2p2_spec() if d == 6 else del_pezzo_spec(d)
        verdict = decide(spec)
        return (len(spec.singularities), spec.pic_rank, spec.cl_rank,
                verdict.k_minus_one.free_rank, verdict.decision.value)

    def test_spec_example_rows(self):
        assert self.row(3) == (10, 1, 6, 5, "No")
        assert self.row(5) == (3, 1, 4, 0, "Unknown")
        assert self.row(6) == (1, 2, 3, 0, "Yes")

    def test_full_table(self):
        assert [(d, *self.row(d)) for d in range(1, 7)] == [
            (1, 28, 1, 8, 21, "No"),
            (2, 16, 1, 7, 10, "No"),
            (3, 10, 1, 6, 5, "No"),
            (4, 6, 1, 5, 2, "No"),
            (5, 3, 1, 4, 0, "Unknown"),
            (6, 1, 2, 3, 0, "Yes"),
        ]

    def test_every_builtin_spec_carries_a_matrix(self):
        specs = [del_pezzo_spec(d) for d in range(1, 6)]
        specs += [nodal_quadric_spec(), kawamata_p2p2_spec()]
        assert all(s.restriction_matrix is not None for s in specs)

    def test_out_of_range(self):
        for d in (0, 6):
            with pytest.raises(InputError, match="covers 1 <= d <= 5"):
                del_pezzo_spec(d)


class TestSurfaces:
    def test_smooth(self):
        assert surface_rank(3, 3, 0) == 0

    def test_a1_cone(self):
        # resolution adds one (-2)-curve and one to the Picard rank
        assert surface_rank(1, 2, 1) == 0

    def test_two_points_three_curves(self):
        assert surface_rank(1, 3, 3) == 1

    def test_negative_rejected(self):
        with pytest.raises(InputError, match="rank -2 < 0: inconsistent"):
            surface_rank(1, 4, 1)
        with pytest.raises(InputError, match="Picard rank cannot drop"):
            surface_rank(3, 1, 0)

    def test_matrix_gives_exact_group(self):
        # Pic(X~) = Z^2 -> Pic(E) = Z, restriction (2, 0): K_-1 = Z/2
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=2, exceptional_components=1,
            restriction_matrix=IntMatrix.from_rows([[2, 0]]))
        k, exact = surface_k_minus_one(spec)
        assert exact and k == FinAbGroup(0, (2,))

    def test_matrix_rank_consistency_enforced(self):
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=2, exceptional_components=1,
            restriction_matrix=IntMatrix.from_rows([[0, 0]]))
        with pytest.raises(InputError, match="matrix cokernel rank disagrees"):
            surface_k_minus_one(spec)


class TestSpecValidation:
    def test_cl_at_least_pic(self):
        with pytest.raises(ValueError):
            VarietySpec(singularities=(), pic_rank=2, cl_rank=1)

    def test_kawamata_catalog_specs(self):
        for spec in (nodal_quadric_spec(), kawamata_p2p2_spec()):
            rep = threefold_invariants(spec)
            assert rep.k_minus_one.is_trivial()
            assert rep.enough_weil is EnoughWeil.YES
