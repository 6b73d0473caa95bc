"""Integral coefficients stay ints, and no coefficient is ever a float.

On two ints '/' gives a float, so every coefficient division goes through
exact.quotient.  These tests run the polynomial routines on int inputs,
and parse -> branch_count on every germ text of the golden corpus, the
demos and the germ-scan benchmark (seed 7), checking every UniPoly made,
every chart germ of the Newton recursion and every parsed germ.
"""

import contextlib
import io
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import kminusone
from kminusone import cli, germs, parsing
from kminusone.errors import KMinusOneError
from kminusone.exact import UniPoly, quotient, squarefree_decomposition, uni_ext_gcd, uni_gcd
from kminusone.fields import NFElem, NumberField
from test_cli_golden import CASES, run_case

ROOT = Path(__file__).resolve().parents[1]


def exact_coefficient(c) -> bool:
    if isinstance(c, NFElem):
        return all(type(x) in (int, Fraction) for x in c.coeffs)
    return type(c) in (int, Fraction)


def assert_exact(coeffs):
    bad = [c for c in coeffs if not exact_coefficient(c)]
    assert not bad, bad


@pytest.fixture
def checked(monkeypatch):
    """Check every UniPoly built and every chart germ the recursion visits."""
    init, total = UniPoly.__init__, germs._branch_total

    def checked_init(self, coeffs=()):
        init(self, coeffs)
        assert_exact(self.coeffs)

    def checked_total(terms, *args):
        assert_exact(terms.values())
        return total(terms, *args)

    monkeypatch.setattr(UniPoly, "__init__", checked_init)
    monkeypatch.setattr(germs, "_branch_total", checked_total)
    germs._LAST_GERM.clear()
    germs._reduced_at_origin.cache_clear()
    yield
    germs._LAST_GERM.clear()
    germs._reduced_at_origin.cache_clear()


def ints(*cs):
    return UniPoly(cs)


def test_quotient():
    assert quotient(6, 3) == 2 and type(quotient(6, 3)) is int
    assert quotient(-7, 2) == Fraction(-7, 2)
    assert quotient(Fraction(1, 2), 2) == Fraction(1, 4)
    assert type(quotient(4, Fraction(2))) is Fraction


def test_parsed_integers_are_ints():
    assert type(parsing.parse_polynomial("2*z").terms[(1, 0)]) is int
    assert type(parsing.parse_polynomial("(z - 3*w)^3").terms[(1, 2)]) is int
    assert type(parsing.parse_polynomial("3/1*z + w").terms[(1, 0)]) is Fraction


def test_univariate_routines_on_int_inputs(checked):
    p = ints(-6, 11, -6, 1)  # (t - 1)(t - 2)(t - 3)
    assert ints(2, 4, 6).monic() == UniPoly((Fraction(1, 3), Fraction(2, 3), 1))
    assert all(type(c) is int for c in ints(3, 6, 3).monic().coeffs)
    q, r = p.divmod(ints(-1, 1))
    assert all(type(c) is int for c in q.coeffs + r.coeffs) and r.is_zero()
    q, r = p.divmod(ints(1, 2))
    assert_exact(q.coeffs + r.coeffs)
    assert q * ints(1, 2) + r == p
    g = uni_gcd(p, ints(2, -3, 1))  # (t - 1)(t - 2)
    assert g == ints(2, -3, 1) and all(type(c) is int for c in g.coeffs)
    g, s, t = uni_ext_gcd(ints(-1, 0, 1), ints(3, 2))
    assert_exact(g.coeffs + s.coeffs + t.coeffs)
    assert s * ints(-1, 0, 1) + t * ints(3, 2) == g == ints(1)
    for sq in (p, ints(-4, 0, 3, 0, 0, 0, 1)):  # certified
        assert squarefree_decomposition(sq) == [(sq, 1)]
    yun = ints(2, -3, 0, 1)  # (t - 1)^2 (t + 2): Yun's algorithm
    assert squarefree_decomposition(yun) == [(ints(2, 1), 1), (ints(-1, 1), 2)]


def test_monic_divisors_divide_nothing(monkeypatch):
    # a leading coefficient 1 divides nothing: UniPoly.monic and divmod by a
    # monic divisor leave int coefficients ints and never invert the 1 of
    # Q(alpha), so one branch count of the clustered product below inverts
    # 6 field elements, none of them 1 (9, three of them 1, when both divided)
    inverted, inverse = [], NFElem.inverse
    monkeypatch.setattr(NFElem, "inverse", lambda x: inverted.append(x) or inverse(x))
    p = ints(-6, 11, -6, 1)
    assert p.monic() is p
    q, r = p.divmod(ints(-2, 1))
    assert q == ints(3, -4, 1) and not r and all(type(c) is int for c in q.coeffs)
    k = NumberField(ints(-3, 0, 1))
    root, one = k.generator, k.one
    p = UniPoly((root * 3, -root - 3, one))  # (t - root)(t - 3)
    assert p.monic() is p and p.divmod(UniPoly((-root, one))) == (UniPoly((-3, one)), UniPoly())
    assert not inverted
    germs._LAST_GERM.clear()
    germs._reduced_at_origin.cache_clear()
    g = parsing.parse_polynomial("(z^2 - 3*w^2 + w^3)*(z^2 - 3*w^2 + 2*w^3)")
    assert germs.branch_count(g) == germs.BranchReport(4, 4)
    assert len(inverted) == 6 and all(x != 1 for x in inverted)


def test_recursion_germ_on_int_inputs(checked):
    g = parsing.parse_polynomial("(w - z)^2 - z^3")
    (edge,) = germs.newton_polygon(g)
    chart = germs._recursion_germ(g.terms, edge, 1)
    assert chart and all(type(c) is int for c in chart.values())
    chart = germs._recursion_germ(g.terms, edge, Fraction(1, 2))
    assert_exact(chart.values())


def golden_germ_texts(monkeypatch, workdir):
    """Every germ text the golden corpus and the demos parse.  The germ memo
    of spec documents starts empty, so no text stored by an earlier test is
    skipped."""
    texts = []
    cli._classified_germ.cache_clear()

    def record(text):
        texts.append(text)
        return parsing.parse_polynomial(text)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "parse_polynomial", record)
        patch.setattr(kminusone, "parse_polynomial", record)
        for case in CASES:
            run_case(case, workdir)
        for demo in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    return texts


def bench_germ_texts(monkeypatch):
    """Every germ and factor text of the germ-scan workload, seed 7."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    texts = []
    for op in workloads.generate("germ-scan", 7):
        texts += [op["input"]] if op["kind"] == "germ" else op["input"]
    return texts


def test_no_float_from_text_to_branch_count(checked, monkeypatch, tmp_path):
    golden = golden_germ_texts(monkeypatch, tmp_path)
    bench = bench_germ_texts(monkeypatch)
    assert len(set(golden)) > 20 and len(bench) > 140
    for text in dict.fromkeys(golden + bench):
        try:
            g = parsing.parse_polynomial(text)
        except KMinusOneError:
            continue
        assert_exact(g.terms.values())
        try:
            germs.branch_count(g)
        except KMinusOneError:
            pass
