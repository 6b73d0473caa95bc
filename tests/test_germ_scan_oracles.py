"""Every germ-scan operation of the benchmark, against its own oracle.

Each operation of ``workloads.generate("germ-scan", seed)`` runs through
the benchmark's ``germ_report`` and is judged by its ``judge``, under the
same 3 s SIGALRM limit as a benchmark run.  All must be ``ok`` except the
degree-7 clustered product, which still needs an extension of degree 7
that the trial factorisation cannot certify: it must raise
ExtensionUnsupported until that limit goes.  Nothing under ``bench/`` is
changed; it is only imported.
"""

import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

from kminusone import cli, germs, parsing  # noqa: E402

KM = SimpleNamespace(cli=cli, germs=germs, parsing=parsing)
UNSUPPORTED = workloads.clustered_text(7, 7, 2)


def judged(op):
    """(status, detail, exception name) of one operation, as a benchmark
    run judges it."""
    report = error = None
    signal.setitimer(signal.ITIMER_REAL, run.OP_TIMEOUT_S)
    try:
        try:
            report = run.germ_report(KM, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except run.OpTimeout:
        error = "timeout"
    except Exception as exc:  # judged below, as the benchmark does
        error = type(exc).__name__
    return (*run.judge(op["expect"], report, error), error)


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_germ_scan_operation_meets_its_oracle(seed, alarm):
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
