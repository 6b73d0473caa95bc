"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each criterion prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py -v`` to see them.  Oracles are written inline
and independently of the code paths they check.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, gcd

from kminusone.blowup import BlowupPipeline, BlowupStep, blowup_k_theory
from kminusone.cli import run_cli
from kminusone.curves import CurveSpec, DualGraph, GeneralCurvePiece, \
    curve_k_minus_one
from kminusone.exact import BiPoly, FinAbGroup, IntMatrix, smith_normal_form
from kminusone.germs import bipoly_gcd, branch_count, is_isolated
from kminusone.localsing import ade_germ, classify_cAn
from kminusone.parsing import parse_polynomial as poly
from kminusone.quiver import algebra_basis, burban_quiver
from kminusone.varieties import VarietySpec, kawamata_p2p2_spec, \
    nodal_quadric_spec
from kminusone.localsing import ordinary_double_point
from kminusone.verdicts import CertificateKind, Decision, decide


class _Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} - {self.description}")
        return False


# --- independent in-test oracles -------------------------------------------

def oracle_betti1(vertex_count, edges):
    """E - V + C with components counted by breadth-first search."""
    adj = {v: set() for v in range(vertex_count)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    components = 0
    for start in range(vertex_count):
        if start in seen:
            continue
        components += 1
        queue = [start]
        seen.add(start)
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return len(edges) - vertex_count + components


def oracle_det(rows):
    """Determinant by fraction-based Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def oracle_walk_count(vertex_count, edges, max_len):
    """Non-backtracking walks of length 0..max_len in the doubled graph."""
    darts = []
    for eid, (u, v) in enumerate(edges):
        darts.append((u, v, eid))
        darts.append((v, u, eid))
    total = vertex_count
    frontier = [(v, None) for v in range(vertex_count)]
    for _ in range(max_len):
        nxt = [(t, (s, t, eid))
               for at, last in frontier
               for (s, t, eid) in darts
               if s == at and not (last is not None and eid == last[2]
                                   and t == last[0])]
        total += len(nxt)
        frontier = nxt
    return total


def random_multigraph(rng, max_v=8, max_e=12):
    v = rng.randint(1, max_v)
    e = rng.randint(0, max_e)
    return v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(e))


# --- criteria ---------------------------------------------------------------

def test_criterion_1_ade_catalog():
    with _Criterion(1, "ADE catalog reproduced by germ classification"):
        expected = {}
        for k in (1, 2, 3):
            expected[("A", 2 * k)] = (1, 0)
            expected[("A", 2 * k - 1)] = (2, 1)
            if k >= 2:
                expected[("D", 2 * k)] = (3, 2)
            if k >= 3:
                expected[("D", 2 * k - 1)] = (2, 1)
        expected[("E", 6)] = (1, 0)
        expected[("E", 7)] = (2, 1)
        expected[("E", 8)] = (1, 0)
        for (family, index), (br, cl) in sorted(expected.items()):
            got = classify_cAn(ade_germ(family, index))
            assert (got.br, got.cl_rank) == (br, cl), (family, index)


def test_criterion_2_del_pezzo_table(capsys):
    with _Criterion(2, "del Pezzo summary table recomputed from blow-ups"):
        code = run_cli(["--json", "table", "delpezzo"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [(r["d"], r["singular_points"], r["pic_rank"], r["cl_rank"],
                 r["k_rank"], r["verdict"]) for r in json.loads(out)]
        assert rows == [
            (1, 28, 1, 8, 21, "No"),
            (2, 16, 1, 7, 10, "No"),
            (3, 10, 1, 6, 5, "No"),
            (4, 6, 1, 5, 2, "No"),
            (5, 3, 1, 4, 0, "Unknown"),
            (6, 1, 2, 3, 0, "Yes"),
        ]
        # node counts must come out of the blow-up description
        for d in range(1, 6):
            mu = 8 - d
            assert rows[d - 1][1] == comb(mu, 2) + comb(mu, 6)
            assert rows[d - 1][4] == rows[d - 1][1] - mu  # rho_X = rho_Y = 1


def test_criterion_3_curve_formulas():
    with _Criterion(3, "curve rank formulas and betti1 cross-check"):
        for n in range(2, 7):
            spec = CurveSpec(pieces=(GeneralCurvePiece(n, (n,)),))
            assert curve_k_minus_one(spec).is_trivial()
        assert curve_k_minus_one(DualGraph(1, ((0, 0),))) == FinAbGroup.free(1)
        for n in range(2, 7):
            cycle = DualGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
            assert curve_k_minus_one(cycle) == FinAbGroup.free(1)
        rng = random.Random(42)
        for _ in range(200):
            v = rng.randint(1, 10)
            tree = DualGraph(v, tuple((rng.randrange(i), i)
                                      for i in range(1, v)))
            assert curve_k_minus_one(tree).is_trivial()
        for _ in range(1000):
            v, edges = random_multigraph(rng)
            graph = DualGraph(v, edges)
            assert curve_k_minus_one(graph).free_rank == oracle_betti1(v, edges)


def test_criterion_4_quiver_oracle():
    with _Criterion(4, "path algebra dimension vs brute-force enumeration"):
        start = time.monotonic()
        q = burban_quiver(DualGraph(2, ((0, 1),)))
        basis = algebra_basis(q)
        assert set(basis.labels) == {"e1", "e2", "a", "a*"}
        assert basis.dimension == 4
        rng = random.Random(1234)
        for _ in range(100):
            v = rng.randint(1, 12)
            edges = tuple((rng.randrange(i), i) for i in range(1, v))
            tree = DualGraph(v, edges)
            dim = algebra_basis(burban_quiver(tree)).dimension
            assert dim == v * v
            assert dim == oracle_walk_count(v, edges, v - 1)
        assert time.monotonic() - start < 5.0


def test_criterion_5_snf_property_suite():
    with _Criterion(5, "Smith normal form properties on 1000 random matrices"):
        start = time.monotonic()
        rng = random.Random(777)
        for _ in range(1000):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = IntMatrix(rows, cols,
                          tuple(rng.randint(-9, 9) for _ in range(rows * cols)))
            d, u, v = smith_normal_form(m)
            assert (u @ m @ v).entries == d.entries
            assert d.is_diagonal()
            diag = [x for x in d.diagonal_entries() if x]
            assert all(x >= 0 for x in d.diagonal_entries())
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert abs(oracle_det(u.to_rows())) == 1
            assert abs(oracle_det(v.to_rows())) == 1
            if rows == cols:
                det = oracle_det(m.to_rows())
                if det:
                    prod = 1
                    for x in diag:
                        prod *= x
                    assert prod == abs(det)
        assert time.monotonic() - start < 10.0


CATALOG_GERMS = [
    "z^2 + w^2", "z^2 + w^3", "z^2 + w^4", "z^2 + w^5", "z^2 + w^6",
    "z^2 + w^7", "z^2*w + w^3", "z^2*w + w^4", "z^2*w + w^5",
    "z^3 + w^4", "z^3 + z*w^3", "z^3 + w^5",
]


def test_criterion_6_branch_count_oracles():
    with _Criterion(6, "branch counting against gcd rule, additivity, recursion"):
        for a in range(1, 7):
            for b in range(1, 7):
                for c in (Fraction(1), Fraction(2), Fraction(5, 3)):
                    germ = BiPoly({(a, 0): Fraction(1), (0, b): -c})
                    if not is_isolated(germ):
                        continue
                    assert branch_count(germ).branch_count == gcd(a, b)
        rng = random.Random(909)
        done = 0
        while done < 200:
            f = poly(rng.choice(CATALOG_GERMS))
            g = poly(rng.choice(CATALOG_GERMS))
            if bipoly_gcd(f, g).total_degree() > 0:
                continue
            assert branch_count(f * g).branch_count == \
                branch_count(f).branch_count + branch_count(g).branch_count
            done += 1
        assert branch_count(poly("(z - w^2)*(z - w^2 - w^3)")).branch_count == 2


def test_criterion_7_knorrer_consistency():
    with _Criterion(7, "threefold local Cl rank = curve branch count - 1"):
        for text in CATALOG_GERMS:
            germ = poly(text)
            assert classify_cAn(germ).cl_rank == \
                branch_count(germ).branch_count - 1


def test_criterion_8_blowup_route_agreement():
    with _Criterion(8, "blow-up K-theory route agrees with dual-graph route"):
        rng = random.Random(3141)
        for _ in range(50):
            v, edges = random_multigraph(rng, max_v=7, max_e=10)
            graph = DualGraph(v, edges)
            via_k_theory = blowup_k_theory(
                FinAbGroup.trivial(), curve_k_minus_one(graph), 2).free_rank
            assert via_k_theory == oracle_betti1(v, edges)
            verdict = decide(BlowupPipeline(steps=(BlowupStep(graph),)))
            is_forest_of_p1_trees = (oracle_betti1(v, edges) == 0
                                     and not any(u == w for u, w in edges))
            assert (verdict.decision is Decision.YES) == is_forest_of_p1_trees
            assert (verdict.decision is Decision.NO) == (not is_forest_of_p1_trees)


def test_criterion_9_worked_example_verdicts():
    with _Criterion(9, "worked example verdicts with certificates/obstructions"):
        v = decide(nodal_quadric_spec())
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.KAWAMATA_QUADRIC

        v = decide(kawamata_p2p2_spec())
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.KAWAMATA_P2P2_SECTION

        cubic = VarietySpec(singularities=(ordinary_double_point(),),
                            pic_rank=2, cl_rank=2)
        v = decide(cubic)
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(1)  # exactly Z

        three_nodes = DualGraph(1, ((0, 0), (0, 0), (0, 0)))
        v = decide(BlowupPipeline(steps=(BlowupStep(three_nodes),)))
        assert v.decision is Decision.NO
        assert v.obstruction == FinAbGroup.free(3)

        smooth = VarietySpec(singularities=(), pic_rank=1,
                             cl_rank=1)
        v = decide(smooth)
        assert v.decision is Decision.YES
        assert v.certificate.kind is CertificateKind.SMOOTH_TRIVIAL
