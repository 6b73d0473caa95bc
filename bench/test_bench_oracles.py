"""Checks of the benchmark itself: the oracles against sympy, the seeding,
the trace wrappers, and BENCHMARK.json against the metrics the runner
prints.  Run with `python -m pytest bench`."""

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
        assert workloads.inputs_digest(a) == workloads.inputs_digest(b)
        assert workloads.inputs_digest(a) != workloads.inputs_digest(
            workloads.generate(workload, 8))


def test_seed606_set_is_the_cross_validation_draw():
    products = workloads.seed606_products()
    reduced = [f for f in products
               if "branches" in workloads.binomial_product_expect(f)]
    assert len(reduced) == 80 and len(products) > 80


def test_known_defects_stay_in_germ_scan():
    texts = {op["input"] for op in workloads.generate("germ-scan", 3)
             if op["kind"] == "germ"}
    for text, _ in workloads.KNOWN_DEFECT_GERMS:
        assert text in texts
    assert workloads.clustered_text(7, 7, 2) in texts


def test_partial_report_matching():
    out = {"decision": "No", "obstruction": {"rank": 2, "torsion": [2]}}
    assert run.matches(out, {"decision": "No", "obstruction": {"rank": 2}})
    assert not run.matches(out, {"obstruction": {"torsion": []}})
    assert run.matches(out, {"k_minus_one": None})
    assert not run.matches(out, {"decision": None})
    assert run.judge({"error": "NotIsolated"}, None, "NotIsolated")[0] == "ok"
    assert run.judge({"error": "NotIsolated"}, "{}", None)[0] == "wrong"
    assert run.judge({"branches": 2}, None, "timeout")[0] == "timeout"


def test_betti_number_against_incidence_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(40):
        n, edges = workloads.random_graph(rng, 8, 10)
        incidence = sympy.zeros(n, max(len(edges), 1))
        for j, (u, v) in enumerate(edges):
            if u != v:
                incidence[u, j], incidence[v, j] = 1, -1
        assert workloads.betti1(n, edges) == len(edges) - incidence.rank()


# ---------------------------------------------------------------------------
# sympy oracles
# ---------------------------------------------------------------------------

def _sympy_poly(sympy, text):
    z, w = sympy.symbols("z w")
    return sympy.sympify(text.replace("^", "**"), locals={"z": z, "w": w})


def _locally_reduced(sympy, expr):
    """Every factor vanishing at the origin has exponent 1."""
    z, w = sympy.symbols("z w")
    _, factors = sympy.factor_list(expr)
    return all(e == 1 for f, e in factors if f.subs({z: 0, w: 0}) == 0)


def test_binomial_products_reduced_as_predicted():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    products = workloads.seed606_products()
    for factors in rng.sample(products, 40):
        expr = _sympy_poly(sympy, workloads.product_text(factors))
        expect = workloads.binomial_product_expect(factors)
        assert _locally_reduced(sympy, expr) == ("branches" in expect), factors


def test_factor_lists_are_pairwise_coprime():
    sympy = pytest.importorskip("sympy")
    for op in workloads.generate("germ-scan", 4):
        if op["kind"] != "factors":
            continue
        polys = [_sympy_poly(sympy, t) for t in op["input"]]
        for i in range(len(polys)):
            assert _locally_reduced(sympy, polys[i])
            for j in range(i + 1, len(polys)):
                assert sympy.gcd(polys[i], polys[j]).is_number


def test_known_defects_are_locally_reduced():
    sympy = pytest.importorskip("sympy")
    for text, _ in workloads.KNOWN_DEFECT_GERMS:
        expr = _sympy_poly(sympy, text)
        assert _locally_reduced(sympy, expr)
        # globally not squarefree: the repeated factor misses the origin
        assert any(e >= 2 for _, e in sympy.factor_list(expr)[1])


def test_constructed_cokernels_match_sympy_snf():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(77)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        diag = workloads.invariant_chain(rng, rank, True)
        m, k = workloads.matrix_with_cokernel(rng, rows, cols, diag, 2)
        d = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        nonzero = [abs(d[i, i]) for i in range(min(rows, cols)) if d[i, i] != 0]
        assert k == workloads.group(rows - len(nonzero), [x for x in nonzero if x >= 2])


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _bindings():
    import kminusone.cli  # noqa: F401  (every module the tracer patches)
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name.startswith("kminusone") for key, value in vars(mod).items()}


def test_wrappers_reach_copied_bindings_and_are_removed():
    from kminusone import germs, localsing, parsing
    from kminusone.exact import FinAbGroup

    before = _bindings()
    original_direct_sum = FinAbGroup.direct_sum
    tracer = tracing.Tracer()
    with tracer:
        assert localsing.branch_count is germs.branch_count is not before[
            ("kminusone.germs", "branch_count")]
        localsing.classify_cAn(parsing.parse_polynomial("z^2 - w^3"))
        FinAbGroup.cyclic(2).direct_sum(FinAbGroup.cyclic(3))
    assert _bindings() == before
    assert FinAbGroup.direct_sum is original_direct_sum
    names = [s[0] for s in tracer.spans]
    assert names[:4] == ["parsing.parse_polynomial", "localsing.classify_cAn",
                         "germs.branch_count", "germs.is_isolated"]
    by_index = dict(enumerate(tracer.spans))
    isolated = names.index("germs.is_isolated")
    assert by_index[by_index[isolated][3]][0] == "germs.branch_count"
    metrics = tracing.layer_metrics(tracer.spans, tracer.stats, 1)
    assert metrics["germs.is_isolated.calls"] == 1
    assert metrics["exact.FinAbGroup.direct_sum.calls"] == 1
    assert metrics["exact.smith_normal_form.calls"] >= 1
    assert 0 < metrics["germs.gate_share"] <= 1


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
