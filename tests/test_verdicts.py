"""Decision engine: soundness of No, replayability of Yes, Unknown gap."""

import random

import pytest

from kminusone.blowup import BlowupPipeline, BlowupStep
from kminusone.curves import CurveSpec, DualGraph, GeneralCurvePiece
from kminusone.errors import InputError, SpecValidationError
from kminusone.exact import FinAbGroup, IntMatrix
from kminusone.localsing import ordinary_double_point
from kminusone.quiver import algebra_basis
from kminusone.varieties import (
    SurfaceResolutionSpec,
    VarietySpec,
    del_pezzo_spec,
    kawamata_p2p2_spec,
    nodal_quadric_spec,
)
from kminusone.verdicts import (
    CHELTSOV_NOTE,
    Certificate,
    CertificateKind,
    Decision,
    Verdict,
    decide,
)


def nodes(r):
    return (ordinary_double_point(),) * r


class TestCurveDecisions:
    def test_a2_chain_yes_with_quiver(self):
        v = decide(DualGraph(2, ((0, 1),)))
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.BURBAN_TREE
        q = v.certificate.quiver
        assert {a.name for a in q.arrows} == {"a", "a*"}
        # certificate replays through basis enumeration
        assert algebra_basis(q).dimension == 4

    def test_nodal_cubic_no(self):
        v = decide(DualGraph(1, ((0, 0),)))
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(1)

    def test_cycle_no(self):
        v = decide(DualGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
        assert v.decision is Decision.NO

    def test_smooth_curve_yes(self):
        v = decide(DualGraph(3))
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.SMOOTH_TRIVIAL

    def test_elliptic_tree_unknown(self):
        # two elliptic curves meeting at a node: K_-1 = 0 but no certificate
        g = DualGraph(2, ((0, 1),), rational=(False, False))
        v = decide(g)
        assert v.decision is Decision.UNKNOWN

    def test_cuspidal_curve_unknown(self):
        spec = CurveSpec(pieces=(GeneralCurvePiece(1, (1,)),))
        v = decide(spec)
        assert v.decision is Decision.UNKNOWN

    def test_forest_of_trees_yes(self):
        v = decide(DualGraph(5, ((0, 1), (1, 2), (3, 4))))
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.BURBAN_TREE

    def test_general_branch_data_no(self):
        spec = CurveSpec(pieces=(GeneralCurvePiece(1, (2, 2)),))
        v = decide(spec)
        assert v.decision is Decision.NO
        assert v.obstruction.free_rank == 2


class TestThreefoldDecisions:
    def test_nodal_quadric_yes(self):
        v = decide(nodal_quadric_spec())
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.KAWAMATA_QUADRIC

    def test_p2p2_section_yes(self):
        v = decide(kawamata_p2p2_spec())
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.KAWAMATA_P2P2_SECTION

    def test_catalog_entry_replayed_once(self, monkeypatch):
        from kminusone import verdicts
        real, calls = verdicts.threefold_invariants, []
        monkeypatch.setattr(verdicts, "threefold_invariants",
                            lambda spec: calls.append(spec) or real(spec))
        verdicts._REPLAYED.clear()
        first, second = decide(nodal_quadric_spec()), decide(nodal_quadric_spec())
        assert first == second and first.decision is Decision.YES
        assert len(calls) == 3  # each document once, the catalog replay once

    def test_smooth_threefold_yes(self):
        spec = VarietySpec(singularities=(), pic_rank=1, cl_rank=1)
        assert decide(spec).decision is Decision.YES

    def test_del_pezzo_two_no_with_rank_ten(self):
        v = decide(del_pezzo_spec(2))
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(10)

    def test_del_pezzo_five_unknown_with_cheltsov_note(self):
        v = decide(del_pezzo_spec(5))
        assert v.decision is Decision.UNKNOWN
        assert CHELTSOV_NOTE in v.notes

    def test_factorial_cubic_blowup_no_with_Z(self):
        spec = VarietySpec(singularities=nodes(1),
                           pic_rank=2, cl_rank=2)
        v = decide(spec)
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(1)

    def test_enough_weil_verified_but_no_construction_is_unknown(self):
        spec = VarietySpec(singularities=nodes(2), pic_rank=2,
                           cl_rank=4,
                           restriction_matrix=IntMatrix.from_rows(
                               [[1, 0], [0, 1]]))
        v = decide(spec)
        assert v.decision is Decision.UNKNOWN
        assert v.k_minus_one is not None and v.k_minus_one.is_trivial()

    def test_label_with_wrong_invariants_rejected(self):
        spec = VarietySpec(singularities=nodes(2), pic_rank=1,
                           cl_rank=3, label="nodal-quadric")
        with pytest.raises(SpecValidationError):
            decide(spec)

    def test_torsion_obstruction_is_no(self):
        spec = VarietySpec(singularities=nodes(1), pic_rank=1,
                           cl_rank=2,
                           restriction_matrix=IntMatrix.from_rows([[2]]))
        v = decide(spec)
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup(0, (2,))


class TestSurfaceDecisions:
    def test_toric_yes_requires_verified_vanishing(self):
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=3, exceptional_components=2,
            toric_gorenstein=True, singularity_orders=(2, 3),
            restriction_matrix=IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
        v = decide(spec)
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.TORIC_SURFACE
        assert v.certificate.algebra_orders == (2, 3)

    def test_toric_rank_zero_without_matrix_is_unknown(self):
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=3, exceptional_components=2,
            toric_gorenstein=True, singularity_orders=(2, 3))
        assert decide(spec).decision is Decision.UNKNOWN

    def test_surface_obstruction_no(self):
        spec = SurfaceResolutionSpec(
            pic_rank=1, resolution_pic_rank=2, exceptional_components=3)
        v = decide(spec)
        assert v.decision is Decision.NO
        assert v.obstruction.free_rank == 2

    def test_smooth_surface_yes(self):
        spec = SurfaceResolutionSpec(
            pic_rank=2, resolution_pic_rank=2, exceptional_components=0)
        assert decide(spec).decision is Decision.YES


class TestBlowupDecisions:
    def test_blowup_of_forest_yes_replays_parts(self):
        pipe = BlowupPipeline(steps=(BlowupStep(DualGraph(4, ((0, 1), (2, 3)))),))
        v = decide(pipe)
        assert v.decision is Decision.YES
        cert = v.certificate
        assert cert.kind is CertificateKind.BLOWUP_OF_YES_PAIR
        assert all(p.decision is Decision.YES for p in cert.parts)

    def test_blowup_of_nodal_irreducible_no(self):
        pipe = BlowupPipeline(steps=(BlowupStep(DualGraph(1, ((0, 0),))),))
        v = decide(pipe)
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(1)

    def test_nonrational_center_with_nonzero_k_is_still_no(self):
        g = DualGraph(1, ((0, 0),), rational=(False,))
        v = decide(BlowupPipeline(steps=(BlowupStep(g),)))
        assert v.decision is Decision.NO

    def test_elliptic_tree_center_unknown(self):
        g = DualGraph(2, ((0, 1),), rational=(False, False))
        v = decide(BlowupPipeline(steps=(BlowupStep(g),)))
        assert v.decision is Decision.UNKNOWN


class TestOneDecisionRule:
    """What the one rule keeps: K_-1 first, then the smooth shortcut, and
    the certificate sought only at K_-1 = 0."""

    def test_catalog_label_consulted_only_at_vanishing_k(self):
        spec = VarietySpec(singularities=nodes(2), pic_rank=1, cl_rank=2,
                           label="nodal-quadric")  # two nodes, the catalog has one
        v = decide(spec)
        assert v.decision is Decision.NO and v.obstruction == FinAbGroup.free(1)

    def test_smooth_threefold_with_defect_rejected(self):
        with pytest.raises(InputError):
            decide(VarietySpec(singularities=(), pic_rank=1, cl_rank=2))

    def test_obstructed_blowup_decides_no_center(self, monkeypatch):
        from kminusone import verdicts
        real, calls = verdicts._decide_curve, []
        monkeypatch.setattr(verdicts, "_decide_curve",
                            lambda spec: calls.append(spec) or real(spec))
        chain, nodal = BlowupStep(DualGraph(2, ((0, 1),))), BlowupStep(DualGraph(1, ((0, 0),)))
        assert decide(BlowupPipeline((chain, nodal))).decision is Decision.NO
        assert calls == []
        assert decide(BlowupPipeline((chain,))).decision is Decision.YES
        assert len(calls) == 1


class TestSoundness:
    def test_no_always_has_nonzero_obstruction(self):
        rng = random.Random(91)
        for _ in range(60):
            r = rng.randint(0, 5)
            delta = rng.randint(0, r) if r else 0
            spec = VarietySpec(singularities=nodes(r),
                               pic_rank=1, cl_rank=1 + delta)
            v = decide(spec)
            if v.decision is Decision.NO:
                assert not v.obstruction.is_trivial()
                assert v.obstruction.free_rank == r - delta

    def test_matrix_never_flips_no_to_yes(self):
        # rank obstruction survives any injective integral refinement
        rng = random.Random(13)
        for _ in range(40):
            r = rng.randint(1, 4)
            delta = rng.randint(0, r - 1)
            spec = VarietySpec(singularities=nodes(r),
                               pic_rank=1, cl_rank=1 + delta)
            assert decide(spec).decision is Decision.NO
            entries = [[0] * delta for _ in range(r)]
            for j in range(delta):
                entries[j][j] = rng.randint(1, 3)
            refined = VarietySpec(singularities=nodes(r),
                                  pic_rank=1, cl_rank=1 + delta,
                                  restriction_matrix=IntMatrix.from_rows(entries))
            assert decide(refined).decision is Decision.NO

    def test_verdict_invariants_enforced(self):
        with pytest.raises(ValueError):
            Verdict(Decision.NO)  # no obstruction
        with pytest.raises(ValueError):
            Verdict(Decision.YES)  # no certificate
        with pytest.raises(ValueError):
            Verdict(Decision.NO, obstruction=FinAbGroup.trivial())
        with pytest.raises(ValueError):
            Verdict(Decision.UNKNOWN, obstruction=FinAbGroup.free(1))
        with pytest.raises(ValueError):
            Certificate(CertificateKind.BURBAN_TREE)  # quiver missing

    def test_blowup_pair_certificate_requires_yes_parts(self):
        no_verdict = Verdict(Decision.NO, obstruction=FinAbGroup.free(1))
        with pytest.raises(ValueError):
            Certificate(CertificateKind.BLOWUP_OF_YES_PAIR, parts=(no_verdict,))

    def test_equivalence_for_rational_nodal_curves(self):
        # Yes <=> betti1 = 0 <=> rk K_-1 = 0 when every component is rational
        from kminusone.curves import betti1, curve_k_minus_one

        rng = random.Random(61)
        for _ in range(200):
            v = rng.randint(1, 7)
            e = rng.randint(0, 9)
            g = DualGraph(v, tuple((rng.randrange(v), rng.randrange(v))
                                   for _ in range(e)))
            verdict = decide(g)
            lam = betti1(g)
            assert (verdict.decision is Decision.YES) == (lam == 0)
            assert (lam == 0) == curve_k_minus_one(g).is_trivial()
            assert verdict.decision is not Decision.UNKNOWN
