"""Blow-up K-theory, acquired singularities, and the center-curve verdict."""

import json
import random

import pytest

from kminusone import blowup
from kminusone.blowup import (
    BlowupPipeline,
    BlowupStep,
    blowup_curve_verdict,
    blowup_k_theory,
)
from kminusone.cli import emit_report, render_blowup_report, run_cli
from kminusone.curves import DualGraph, betti1, curve_k_minus_one
from kminusone.errors import InputError, NotIsolated, SpecValidationError
from kminusone.exact import FinAbGroup
from kminusone.localsing import classify_cAn
from kminusone.parsing import parse_polynomial as poly
from kminusone.verdicts import CertificateKind, Decision, decide


class TestBlowupKTheory:
    def test_nodal_curve_center(self):
        # K_-1(X~) = K_-1(C) for a codimension-2 curve in a smooth threefold
        assert blowup_k_theory(FinAbGroup.trivial(), FinAbGroup.free(1), 2) \
            == FinAbGroup.free(1)

    def test_trivial_center_contribution(self):
        assert blowup_k_theory(FinAbGroup.free(2), FinAbGroup.trivial(), 3) \
            == FinAbGroup.free(2)

    def test_torsion_renormalized(self):
        got = blowup_k_theory(FinAbGroup.trivial(), FinAbGroup(0, (2,)), 3)
        assert got == FinAbGroup(0, (2, 2))

    def test_codimension_validated(self):
        with pytest.raises(InputError):
            blowup_k_theory(FinAbGroup.trivial(), FinAbGroup.trivial(), 1)

    def test_rank_additivity_random(self):
        rng = random.Random(77)
        for _ in range(50):
            base = FinAbGroup.free(rng.randint(0, 4))
            center = FinAbGroup(rng.randint(0, 3),
                                tuple(sorted([2 ** rng.randint(1, 3)])))
            c = rng.randint(2, 4)
            got = blowup_k_theory(base, center, c)
            assert got.free_rank == base.free_rank + (c - 1) * center.free_rank


class TestBlowupSingularities:
    """A center germ f gives the blow-up the point xy + f, which
    classify_cAn classifies."""

    def test_nodal_center_gives_odp(self):
        sing = classify_cAn(poly("z*w"))
        assert (sing.n, sing.br, sing.cl_rank) == (1, 2, 1)

    def test_cuspidal_center(self):
        sing = classify_cAn(poly("z^2 + w^3"))
        assert (sing.n, sing.br, sing.cl_rank) == (1, 1, 0)

    def test_smooth_center(self):
        assert BlowupStep(DualGraph(1)).singularities() == []

    def test_non_isolated_center_rejected(self):
        with pytest.raises(NotIsolated):
            classify_cAn(poly("z^2"))

    def test_default_nodes_from_the_catalog(self, monkeypatch):
        # a center given by its graph alone has nodes z*w, and the blow-up
        # takes their ordinary double points without classifying a germ
        calls = []
        monkeypatch.setattr(blowup, "classify_cAn",
                            lambda g: calls.append(g) or classify_cAn(g))
        graph = DualGraph(3, ((0, 1), (1, 2), (2, 0), (0, 0)))
        step = BlowupStep(graph)
        assert step.singularities() == [classify_cAn(poly("z*w"))] * graph.edge_count
        assert calls == []


class TestBlowupCurveVerdict:
    def test_two_a2_chains(self):
        forest = DualGraph(4, ((0, 1), (2, 3)))
        v = blowup_curve_verdict(forest)
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.BLOWUP_OF_YES_PAIR

    def test_irreducible_three_nodes(self):
        curve = DualGraph(1, ((0, 0), (0, 0), (0, 0)))
        v = blowup_curve_verdict(curve)
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(3)

    def test_single_smooth_line(self):
        v = blowup_curve_verdict(DualGraph(1))
        assert v.decision is Decision.YES

    def test_requires_rational_components(self):
        g = DualGraph(1, ((0, 0),), rational=(False,))
        with pytest.raises(InputError):
            blowup_curve_verdict(g)


class TestRouteAgreement:
    def test_k_theory_vs_betti_sum(self):
        # K_-1 through the blow-up formula must equal the dual-graph count
        rng = random.Random(21)
        for _ in range(50):
            v = rng.randint(1, 7)
            e = rng.randint(0, 10)
            g = DualGraph(v, tuple((rng.randrange(v), rng.randrange(v))
                                   for _ in range(e)))
            via_blowup = blowup_k_theory(FinAbGroup.trivial(),
                                         curve_k_minus_one(g), 2)
            assert via_blowup.free_rank == betti1(g)

    def test_center_nodes_become_L(self):
        # sum of local class group ranks of the acquired points = node count
        rng = random.Random(5)
        for _ in range(20):
            v = rng.randint(1, 5)
            e = rng.randint(0, 6)
            g = DualGraph(v, tuple((rng.randrange(v), rng.randrange(v))
                                   for _ in range(e)))
            sings = BlowupStep(center=g).singularities()
            assert sum(s.cl_rank for s in sings) == g.edge_count


class TestPipeline:
    def test_multi_step_accumulates(self):
        nodal = DualGraph(1, ((0, 0),))
        tree = DualGraph(2, ((0, 1),))
        pipe = BlowupPipeline(steps=(BlowupStep(nodal), BlowupStep(tree)))
        assert pipe.k_minus_one() == FinAbGroup.free(1)
        assert len(pipe.singularities()) == 2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            BlowupPipeline(steps=())


class TestCenterConsistency:
    """center_germs and the center's dual graph describe the same nodes."""

    def test_cusp_on_a_nodal_center_rejected(self):
        loop = DualGraph(1, ((0, 0),))
        with pytest.raises(SpecValidationError) as info:
            decide(BlowupPipeline((BlowupStep(loop, (poly("z^2 - w^3"),)),)))
        assert info.value.path == "center_germs[0]"

    def test_germ_count_must_match_node_count(self):
        with pytest.raises(SpecValidationError) as info:
            decide(BlowupPipeline((BlowupStep(DualGraph(1), (poly("z*w"),) * 3),)))
        assert info.value.path == "center_germs"

    def test_an_empty_germ_list_is_given_not_absent(self):
        # an empty list names no germ for the one node; only an absent list
        # defaults every node to z*w
        loop = DualGraph(1, ((0, 0),))
        with pytest.raises(SpecValidationError) as info:
            BlowupStep(loop, ())
        assert (info.value.path, info.value.message) == (
            "center_germs", "expected one germ per node of the center (1), got 0")
        assert BlowupStep(loop).center_germs is None
        assert BlowupStep(DualGraph(1), ()).singularities() == []

    def test_node_germs_accepted_and_counted_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(blowup, "classify_cAn",
                            lambda g: calls.append(g) or classify_cAn(g))
        graph = DualGraph(3, ((0, 1), (1, 2), (2, 0)))
        step = BlowupStep(graph, (poly("z*w"), poly("z^2 - w^2"), poly("z*w")))
        assert len(calls) == 3
        assert [s.br for s in step.singularities()] == [2, 2, 2]
        assert len(calls) == 3
        assert decide(BlowupPipeline((step,))).obstruction == FinAbGroup.free(1)

    def test_cli_reports_the_field_path(self, capsys, tmp_path):
        cases = {
            "steps[0].center_germs[0]": {"center": {"vertices": 1, "edges": [[0, 0]]},
                                         "center_germs": ["z^2 - w^3"]},
            "steps[0].center_germs": {"center": {"vertices": 1},
                                      "center_germs": ["z*w"] * 3},
        }
        for path, step in cases.items():
            doc = tmp_path / "b.json"
            doc.write_text(json.dumps({"kind": "blowup", "steps": [step]}))
            for command in ("decide", "blowup"):
                assert run_cli([command, str(doc)]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.startswith(f"error: {path}: ")


class TestBlowupK:
    """_decide_blowup, blowup_curve_verdict and the blowup report all read
    K_-1 from BlowupPipeline.k_minus_one."""

    def test_one_k_route(self, monkeypatch):
        marker = FinAbGroup(0, (7,))
        monkeypatch.setattr(BlowupPipeline, "k_minus_one", lambda self: marker)
        pipe = BlowupPipeline((BlowupStep(DualGraph(2, ((0, 1),))),))
        assert decide(pipe).obstruction == marker
        assert blowup_curve_verdict(DualGraph(1)).obstruction == marker
        report = json.loads(emit_report(render_blowup_report(pipe), as_json=True))
        assert report["k_minus_one"] == {"rank": 0, "torsion": [7]}

    def test_contradictory_flags_rejected(self):
        with pytest.raises(InputError):
            blowup_curve_verdict(DualGraph(1, rational=(True,), smooth_p1=(False,)))

    def test_empty_center_agrees_on_both_routes(self):
        pipeline = decide(BlowupPipeline((BlowupStep(DualGraph(0)),)))
        assert pipeline.decision is Decision.YES
        assert blowup_curve_verdict(DualGraph(0)) == pipeline
