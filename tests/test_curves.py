"""Dual graphs, Betti numbers, and the curve K_-1 rank formula."""

import random

import pytest

from kminusone.curves import (
    CurveSpec,
    DualGraph,
    GeneralCurvePiece,
    betti1,
    curve_k_minus_one,
    is_forest_of_lines,
    is_tree_of_lines,
)
from kminusone.errors import InputError
from kminusone.exact import FinAbGroup


def random_multigraph(rng):
    v = rng.randint(1, 8)
    e = rng.randint(0, 12)
    edges = tuple((rng.randrange(v), rng.randrange(v)) for _ in range(e))
    return DualGraph(v, edges)


class TestDualGraph:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            DualGraph(2, ((0, 2),))

    def test_flags_default_and_validation(self):
        g = DualGraph(2, ((0, 0), (0, 1)))
        assert g.rational == (True, True)
        assert g.smooth_p1 == (False, True)  # the loop vertex is not smooth
        with pytest.raises(ValueError):
            DualGraph(1, ((0, 0),), smooth_p1=(True,))
        with pytest.raises(ValueError):
            DualGraph(1, (), rational=(False,), smooth_p1=(True,))

    @pytest.mark.parametrize("flag", ["rational", "smooth_p1"])
    def test_a_given_flag_list_covers_every_vertex(self, flag):
        # an empty list is given, not absent: it does not fall back to the default
        with pytest.raises(ValueError, match="cover every vertex"):
            DualGraph(2, ((0, 1),), **{flag: ()})
        assert DualGraph(0, **{flag: ()}) == DualGraph(0)

    def test_connected_components(self):
        g = DualGraph(5, ((0, 1), (3, 4)))
        assert g.connected_components() == [[0, 1], [2], [3, 4]]


class TestBetti1:
    def test_chain_is_a_tree(self):
        assert betti1(DualGraph(2, ((0, 1),))) == 0

    def test_loop(self):
        assert betti1(DualGraph(1, ((0, 0),))) == 1

    def test_cycles(self):
        for n in range(2, 7):
            edges = tuple((i, (i + 1) % n) for i in range(n))
            assert betti1(DualGraph(n, edges)) == 1

    def test_disjoint_union_adds(self):
        g = DualGraph(3, ((0, 0), (1, 2), (1, 2)))
        assert betti1(g) == 1 + 1


class TestCurveKMinusOne:
    def test_lines_through_one_point(self):
        for n in range(2, 7):
            spec = CurveSpec(pieces=(GeneralCurvePiece(n, (n,)),))
            assert curve_k_minus_one(spec).is_trivial()

    def test_cuspidal_component(self):
        spec = CurveSpec(pieces=(GeneralCurvePiece(1, (1,)),))
        assert curve_k_minus_one(spec).is_trivial()

    def test_irreducible_with_s_nodes(self):
        for s in range(0, 5):
            spec = CurveSpec(pieces=(GeneralCurvePiece(1, (2,) * s),))
            assert curve_k_minus_one(spec) == FinAbGroup.free(s)

    def test_rank_matches_betti1_on_random_multigraphs(self):
        rng = random.Random(31337)
        for _ in range(400):
            g = random_multigraph(rng)
            assert curve_k_minus_one(g).free_rank == betti1(g)

    def test_additive_over_disjoint_unions(self):
        rng = random.Random(17)
        for _ in range(50):
            g1 = random_multigraph(rng)
            g2 = random_multigraph(rng)
            shifted = tuple((u + g1.vertex_count, v + g1.vertex_count)
                            for u, v in g2.edges)
            union = DualGraph(g1.vertex_count + g2.vertex_count,
                              g1.edges + shifted)
            assert curve_k_minus_one(union).free_rank == \
                curve_k_minus_one(g1).free_rank + curve_k_minus_one(g2).free_rank

    def test_torsion_free(self):
        g = DualGraph(3, ((0, 1), (1, 2), (0, 2)))
        assert curve_k_minus_one(g).invariant_factors == ()

    def test_negative_rank_rejected(self):
        # two components, no singular points, claimed connected: impossible
        with pytest.raises(InputError, match="rank formula gives -1 < 0"):
            curve_k_minus_one(CurveSpec(pieces=(GeneralCurvePiece(2, ()),)))


class TestTreeOfLines:
    def test_a2_chain(self):
        assert is_tree_of_lines(DualGraph(2, ((0, 1),)))

    def test_nodal_cubic_is_not(self):
        assert not is_tree_of_lines(DualGraph(1, ((0, 0),)))

    def test_cycle_is_not(self):
        g = DualGraph(3, ((0, 1), (1, 2), (0, 2)))
        assert not is_tree_of_lines(g)

    def test_disconnected_is_not_a_tree_but_is_a_forest(self):
        g = DualGraph(4, ((0, 1), (2, 3)))
        assert not is_tree_of_lines(g)
        assert is_forest_of_lines(g)

    def test_non_rational_component_fails(self):
        g = DualGraph(2, ((0, 1),), rational=(True, False))
        assert not is_tree_of_lines(g)

    def test_random_trees_have_rank_zero(self):
        rng = random.Random(4)
        for _ in range(100):
            v = rng.randint(1, 10)
            edges = tuple((rng.randrange(i), i) for i in range(1, v))
            g = DualGraph(v, edges)
            assert is_tree_of_lines(g)
            assert curve_k_minus_one(g).is_trivial()


class TestCurveSpecValidation:
    def test_exactly_one_input_mode(self):
        with pytest.raises(ValueError):
            CurveSpec()
        with pytest.raises(ValueError):
            CurveSpec(graph=DualGraph(1), pieces=(GeneralCurvePiece(1),))
