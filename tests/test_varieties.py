"""Threefold invariants, the del Pezzo catalog, and the surface formula."""

import random

import pytest

from kminusone.errors import InputError
from kminusone.exact import FinAbGroup, IntMatrix
from kminusone.localsing import from_branch_number, ordinary_double_point
from kminusone.varieties import (
    EnoughWeil,
    SurfaceResolutionSpec,
    VarietySpec,
    del_pezzo_case,
    del_pezzo_node_count,
    del_pezzo_table,
    kawamata_p2p2_spec,
    nodal_quadric_spec,
    small_resolution_rank,
    surface_k_minus_one,
    surface_rank,
    threefold_invariants,
)


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
    def test_del_pezzo_degree_four(self):
        res = small_resolution_rank(6, 4, 1, 1)
        assert res.rank_k_minus_one == 2 and res.defect == 4

    def test_del_pezzo_degree_one(self):
        assert small_resolution_rank(28, 7, 1, 1).rank_k_minus_one == 21

    def test_balanced_case(self):
        assert small_resolution_rank(3, 3, 2, 2).rank_k_minus_one == 0

    def test_negative_rejected(self):
        with pytest.raises(InputError, match="rank -4, defect 5: inconsistent"):
            small_resolution_rank(1, 5, 1, 1)
        with pytest.raises(InputError, match="rank 3, defect -2: inconsistent"):
            small_resolution_rank(1, 0, 3, 1)  # defect would be negative


class TestDelPezzo:
    def test_node_counts_from_blowup_description(self):
        # lines through pairs plus twisted cubics through six-tuples
        assert [del_pezzo_node_count(8 - d) for d in range(1, 6)] == \
            [28, 16, 10, 6, 3]

    def test_spec_example_rows(self):
        r3 = del_pezzo_case(3)
        assert (r3.singular_points, r3.pic_rank, r3.cl_rank, r3.k_rank,
                r3.verdict) == (10, 1, 6, 5, "No")
        r5 = del_pezzo_case(5)
        assert (r5.singular_points, r5.pic_rank, r5.cl_rank, r5.k_rank,
                r5.verdict) == (3, 1, 4, 0, "Unknown")
        r6 = del_pezzo_case(6)
        assert (r6.singular_points, r6.pic_rank, r6.cl_rank, r6.k_rank,
                r6.verdict) == (1, 2, 3, 0, "Yes")

    def test_full_table(self):
        rows = [(r.d, r.singular_points, r.pic_rank, r.cl_rank, r.k_rank,
                 r.verdict) for r in del_pezzo_table()]
        assert rows == [
            (1, 28, 1, 8, 21, "No"),
            (2, 16, 1, 7, 10, "No"),
            (3, 10, 1, 6, 5, "No"),
            (4, 6, 1, 5, 2, "No"),
            (5, 3, 1, 4, 0, "Unknown"),
            (6, 1, 2, 3, 0, "Yes"),
        ]

    def test_out_of_range(self):
        for d in (0, 7):
            with pytest.raises(InputError, match="covers 1 <= d <= 6"):
                del_pezzo_case(d)


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
