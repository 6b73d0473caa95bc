"""Every germ-scan operation of the benchmark, against its own oracle.

Each operation of ``workloads.generate("germ-scan", seed)`` runs through
the benchmark's ``germ_report`` and is judged by its ``judge``, under the
same 3 s SIGALRM limit as a benchmark run.  All must be ``ok`` except the
degree-7 clustered product, which still needs an extension of degree 7
that the trial factorisation cannot certify: it must raise
ExtensionUnsupported until that limit goes.  Nothing under ``bench/`` is
changed; it is only imported.
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

from alarm_budget import budget  # noqa: E402
from kminusone import cli, germs, parsing  # noqa: E402
from kminusone.errors import KMinusOneError  # noqa: E402
from test_parsing import _corpus_texts  # noqa: E402

KM = SimpleNamespace(cli=cli, germs=germs, parsing=parsing)
UNSUPPORTED = workloads.clustered_text(7, 7, 2)


def judged(op):
    """(status, detail, exception name) of one operation, as a benchmark
    run judges it."""
    report = error = None
    try:
        with budget(run.OP_TIMEOUT_S, run.OpTimeout):
            report = run.germ_report(KM, op)
    except run.OpTimeout:
        error = "timeout"
    except Exception as exc:  # judged below, as the benchmark does
        error = type(exc).__name__
    return (*run.judge(op["expect"], report, error), error)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_germ_scan_operation_meets_its_oracle(seed):
    ops = workloads.generate("germ-scan", seed)
    unsupported = 0
    for op in ops:
        status, detail, error = judged(op)
        if op["input"] == UNSUPPORTED:
            assert error == "ExtensionUnsupported", (op["input"], status, detail)
            unsupported += 1
        else:
            assert status == "ok", (op["input"], status, detail)
    assert unsupported == 1 and len(ops) > 100


def _answer(f, g):
    """f(g), or the class of the error f raises on g."""
    try:
        return f(g)
    except KMinusOneError as exc:
        return type(exc)


def _report(g):
    rep = germs.branch_count(g)
    return rep.order, rep.branch_count


def test_unit_multiples_answer_as_the_germ_does():
    # a nonzero constant is a unit of the local ring: for c = 2, -3/7 and
    # 10^12, c*g has the br_0, order and isolatedness of g, or raises the
    # same error class, over every germ text of the golden corpus and of
    # germ-scan seeds 1-3, factor lists and clustered products included
    texts = set()
    for seed in (1, 2, 3):
        for op in workloads.generate("germ-scan", seed):
            texts.update([op["input"]] if op["kind"] == "germ" else op["input"])
    germ_list = []
    for text in sorted(texts) + _corpus_texts():
        try:
            germ_list.append(parsing.parse_polynomial(text))
        except KMinusOneError:
            pass  # not a germ text
    assert len(germ_list) > 200
    with budget(3.0, run.OpTimeout):
        for g in germ_list:
            isolated, report = _answer(germs.is_isolated, g), _answer(_report, g)
            for c in (2, Fraction(-3, 7), 10 ** 12):
                h = g.scale(c)
                assert _answer(germs.is_isolated, h) == isolated, (c, g.terms)
                assert _answer(_report, h) == report, (c, g.terms)
