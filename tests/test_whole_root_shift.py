"""The whole-root (Tschirnhausen) step against the chart-and-shift path.

``germs._whole_root_shift`` is replaced by a function that never fires,
which leaves the chart-and-shift recursion alone.  Every germ must
give the same report both ways, or raise the same error both ways, over:
the germ texts of the benchmark workloads, every germ text of the golden
corpus and demo documents, the germs of the demo scripts and ADE catalog,
and 300 seeded coordinate changes w -> w + c*z^k and z -> z + c*w^k of
binomial products, each of which must also match its unsheared original
(br_0 and the order are invariant under such a change).  Inputs too slow
to compare both ways are compared with their unsheared form alone, or pinned
as slow, not skipped.  Each test runs under one SIGALRM budget (alarm_budget).
"""

import random
import re
from pathlib import Path

import pytest

from alarm_budget import budget
from kminusone import germs
from kminusone.errors import KMinusOneError
from kminusone.localsing import ade_germ, ade_labels
from kminusone.parsing import parse_polynomial as poly
from test_parsing import _corpus_texts, _workload_texts

ROOT = Path(__file__).resolve().parents[1]

# Sheared non-reduced products that raise NotIsolated in about 1 ms without
# the shear and in 0.03-0.9 s with it: the recursion reaches depth 2, where
# the exact bivariate gcd of _reduced_at_origin runs its PRS in w (with z as
# the main variable it ran for more than 5 s, in Fraction products).  Entries
# are (factors, shear): factors (a, b, d) of z^a - d*w^b, shear (variable,
# c, k).  The first four were found by an earlier comparison; the last four
# are the slowest draws of sheared_products(), in draw order, which the
# comparison both ways leaves to test_known_slow_inputs_stay_pinned.
KNOWN_SLOW = [
    (((3, 4, 2), (2, 3, 3), (3, 4, 2)), ("w", 1, 3)),
    (((4, 4, 1), (2, 2, 2), (2, 2, 2)), ("w", 1, 3)),
    (((4, 4, 1), (1, 4, 3), (2, 2, 1)), ("w", 3, 2)),
    (((3, 2, 1), (1, 1, 1), (4, 4, 1)), ("w", 3, 3)),
    (((1, 4, 2), (3, 3, 1), (2, 2, 1)), ("w", 3, 3)),
    (((2, 2, 1), (1, 1, 1), (1, 4, 2)), ("w", 1, 2)),
    (((3, 1, 1), (3, 1, 1), (1, 4, 3)), ("w", 3, 2)),
    (((4, 2, 1), (4, 2, 1), (3, 4, 1)), ("w", 2, 3)),
]
PIN_ALARM_S = 0.1
# Budget for one KNOWN_SLOW input: about 3x the slowest measured (0.9 s, on
# 2 vCPUs and CPython 3.11), and below the 5 s that the PRS in z overran.
KNOWN_SLOW_ALARM_S = 3.0

# Golden germs that the path without the step cannot finish in the budget:
# the sheared A_(N-1) at N = 10001 and the k = 9 deep shift (about 20 s).
# Their branch numbers are checked against the closed form gcd(2, N) instead,
# and the path without the step is pinned as overrunning.
SLOW_WITHOUT_STEP = {
    "(z+w)^2 - w^10001": 1,
    "(w" + "".join(f" - z^{i}" for i in range(1, 10)) + ")^2 - z^19": 1,
}


def product_text(factors, shear=None):
    """The product of z^a - d*w^b over factors, with w -> w + c*z^k (or
    z -> z + c*w^k) written into the text when a shear is given."""
    z, w = "z", "w"
    if shear is not None:
        var, c, k = shear
        other = "z" if var == "w" else "w"
        moved = f"({var} {'+' if c > 0 else '-'} {abs(c)}*{other}^{k})"
        z, w = (z, moved) if var == "w" else (moved, w)
    return "*".join(f"({z}^{a} - {d}*{w}^{b})" for a, b, d in factors)


def sheared_products(count=300, seed=1616):
    """(factors, shear) pairs: 1-3 binomials z^a - d*w^b with a, b <= 4 and
    d <= 3, under w -> w + c*z^k or z -> z + c*w^k, c in 1, -1, 2, 3, k <= 3."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        shear = (rng.choice("zw"), rng.choice((1, -1, 2, 3)), rng.randint(1, 3))
        factors = tuple((rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 3)))
        out.append((factors, shear))
    return out


def demo_germs():
    """Germs of the demo scripts and the ADE catalog they print."""
    texts = []
    for path in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py")):
        texts += re.findall(r'(?:show|parse_polynomial)\("([^"]+)"\)', path.read_text())
    return [poly(t) for t in texts] + [ade_germ(*label) for label in ade_labels(range(1, 4))]


def corpus_germs():
    """Every text of the workloads and the golden corpus that parses to a
    nonzero polynomial; the others are not germs."""
    out = []
    for text in _workload_texts() + _corpus_texts():
        try:
            g = poly(text)
        except KMinusOneError:
            continue
        if not g.is_zero():
            out.append(g)
    return out


def record_steps(monkeypatch):
    """The germs on which the step fires, so no comparison is vacuous."""
    fired, step = [], germs._whole_root_shift

    def spy(terms, edges):
        out = step(terms, edges)
        if out is not None:
            fired.append(terms)
        return out

    monkeypatch.setattr(germs, "_whole_root_shift", spy)
    return fired


def outcome(g):
    """branch_count's report on g, or the type and message of its error."""
    germs._LAST_GERM.clear()
    germs._reduced_at_origin.cache_clear()
    try:
        return germs.branch_count(g)
    except KMinusOneError as exc:
        return type(exc).__name__, str(exc)


def both_ways(g, monkeypatch):
    """(outcome with the step, outcome without it)."""
    with_step = outcome(g)
    with monkeypatch.context() as m:
        m.setattr(germs, "_whole_root_shift", lambda terms, edges: None)
        return with_step, outcome(g)


class Overrun(BaseException):
    """Raised by SIGALRM; a BaseException so no handler can swallow it."""


def test_same_outcome_on_workload_corpus_and_demo_germs(monkeypatch):
    with budget(1.5, Overrun):
        fired = record_steps(monkeypatch)
        cases = corpus_germs() + demo_germs()
        slow = {poly(text): branches for text, branches in SLOW_WITHOUT_STEP.items()}
        assert len(cases) > 700 and set(slow) <= set(cases)
        for g in cases:
            if g in slow:
                assert outcome(g).branch_count == slow[g], g
                continue
            with_step, without = both_ways(g, monkeypatch)
            assert with_step == without, g
    assert len(fired) >= 10


def test_same_outcome_on_sheared_binomial_products(monkeypatch):
    with budget(1.0, Overrun):
        fired, pinned = record_steps(monkeypatch), []
        for factors, shear in sheared_products():
            if (factors, shear) in KNOWN_SLOW:
                pinned.append((factors, shear))  # compared to the unsheared form below
                continue
            g = poly(product_text(factors, shear))
            with_step, without = both_ways(g, monkeypatch)
            assert with_step == without, product_text(factors, shear)
            assert with_step == outcome(poly(product_text(factors))), product_text(factors, shear)
    assert pinned == KNOWN_SLOW[4:] and len(fired) >= 10


@pytest.mark.parametrize("factors, shear", KNOWN_SLOW,
                         ids=lambda x: "".join(map(str, x)).replace(" ", ""))
def test_known_slow_inputs_stay_pinned(factors, shear):
    # pinned to the outcome of the unsheared form, within KNOWN_SLOW_ALARM_S
    with budget(KNOWN_SLOW_ALARM_S, Overrun):
        unsheared = outcome(poly(product_text(factors)))
        assert unsheared[0] == "NotIsolated"
        assert outcome(poly(product_text(factors, shear))) == unsheared


@pytest.mark.parametrize("text", SLOW_WITHOUT_STEP)
def test_slow_without_the_step_stays_pinned(text, monkeypatch):
    monkeypatch.setattr(germs, "_whole_root_shift", lambda terms, edges: None)
    g = poly(text)
    with pytest.raises(Overrun), budget(PIN_ALARM_S, Overrun):
        outcome(g)
        raise AssertionError(f"{text} finished without the step: compare it both ways")
