"""Seeded inputs for the three benchmark workloads, each with its expected
outcome.

Nothing here imports kminusone.  Every expectation follows from how the
input was built:

* binomial products: the gcd rule (z^a - c*w^b has gcd(a, b) branches)
  plus additivity over locally reduced products; a product with a shared
  factor is not reduced and must be rejected with NotIsolated;
* ADE germs: closed-form branch numbers;
* restriction matrices: M = U*D*V with U, V unimodular and D in Smith
  form, so the cokernel is read off D;
* dual graphs: the first Betti number from a union-find of our own;
* trees: the Burban algebra of a tree with V vertices has dimension V^2.

An operation is a dict ``{"kind", "input", "expect"}``.  ``expect`` is
either ``{"error": <exception class name>}`` or a partial JSON report
that the emitted report must contain (``None`` means "absent").
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("germ-scan", "spec-batch", "cli-cold")


def inputs_digest(ops) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def generate(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload``: a pure function of
    (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"germ-scan": germ_scan, "spec-batch": spec_batch,
           "cli-cold": cli_cold}[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# germ oracles
# ---------------------------------------------------------------------------

def _q(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def binomial_text(a: int, b: int, c: Fraction) -> str:
    return f"z^{a} - {_q(c)}*w^{b}"


def binomials_share_factor(f1, f2) -> bool:
    """Whether z^a1 - c1*w^b1 and z^a2 - c2*w^b2 (c1, c2 > 0) have a common
    factor.  With g = gcd(a, b), z^a - c*w^b is the product of the
    z^(a/g) - r*w^(b/g) over the roots r of t^g - c; two such products
    meet iff the primitive exponents agree and t^g1 - c1, t^g2 - c2 share
    a root, i.e. c1^(g2/G) = c2^(g1/G) with G = gcd(g1, g2)."""
    (a1, b1, c1), (a2, b2, c2) = f1, f2
    g1, g2 = gcd(a1, b1), gcd(a2, b2)
    if (a1 // g1, b1 // g1) != (a2 // g2, b2 // g2):
        return False
    big = gcd(g1, g2)
    return c1 ** (g2 // big) == c2 ** (g1 // big)


def binomial_product_expect(factors) -> dict:
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if binomials_share_factor(factors[i], factors[j]):
                return {"error": "NotIsolated"}
    return {"branches": sum(gcd(a, b) for a, b, _ in factors)}


def _random_binomial(rng):
    # the draw order of tests/test_cross_validation.py
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    c = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
    return a, b, c


def seed606_products() -> list:
    """The binomial products drawn by test_branch_counts_on_binomial_products
    (seed 606), unfiltered: the test skips the non-reduced ones, which here
    stay in and expect NotIsolated."""
    rng = random.Random(606)
    out, reduced = [], 0
    while reduced < 80:
        factors = [_random_binomial(rng) for _ in range(rng.randint(1, 3))]
        expect = binomial_product_expect(factors)
        reduced += "branches" in expect
        out.append(factors)
    return out


def product_text(factors) -> str:
    return "*".join(f"({binomial_text(a, b, c)})" for a, b, c in factors)


def ade_germ_text(family: str, n: int) -> tuple:
    """(germ text, branch number) of the ADE germ in xy + g form."""
    if family == "A":      # z^2 + w^(n+1): two branches iff n + 1 is even
        return f"z^2 + w^{n + 1}", 2 if n % 2 else 1
    if family == "D":      # w*(z^2 + w^(n-2)): the axis plus A_(n-3)
        return f"z^2*w + w^{n - 1}", 3 if n % 2 == 0 else 2
    return {6: ("z^3 + w^4", 1), 7: ("z^3 + z*w^3", 2), 8: ("z^3 + w^5", 1)}[n]


def _random_ade(rng, family=None) -> tuple:
    family = family or rng.choice("AAADDE")
    if family == "A":
        return family, rng.randint(1, 30)
    if family == "D":
        return family, rng.randint(4, 30)
    return family, rng.choice((6, 7, 8))


def clustered_text(a: int, b: int, c: int) -> str:
    """(z^a - c*w^b + w^(b+1)) * (z^a - c*w^b + 2*w^(b+1)): both factors
    share the Newton edge z^a - c*w^b, so the edge polynomial has multiple
    roots and the recursion must adjoin a root of t^gcd(a, b) - c.  Each
    factor has gcd(a, b) branches."""
    return (f"(z^{a} - {c}*w^{b} + w^{b + 1})"
            f"*(z^{a} - {c}*w^{b} + 2*w^{b + 1})")


# known defects at the time the benchmark was written; their expectations
# are the local answers at the origin
KNOWN_DEFECT_GERMS = (("z*w*(z-1)^2", 2), ("z*w*(1+z+w)^2", 2),
                      ("(z^2-w^3)*(w-1)^2", 1))


def _germ(text: str, expect: dict, family: str) -> dict:
    return {"kind": "germ", "family": family, "input": text, "expect": expect}


# fixed ladders: their costs set the upper percentiles, so they do not
# depend on the seed
ZW_POWERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14)
W_EXPONENTS = (11, 100, 1001, 3000, 10000, 30001, 300001)
# exponents of the binomials of each factor list; the primitive exponent
# pairs differ within a list, so its factors are coprime whatever the
# coefficients
FACTOR_PATTERNS = (
    ((1, 2), (2, 3)), ((2, 1), (3, 2)), ((1, 3), (2, 1)), ((3, 4), (1, 1)),
    ((2, 4), (1, 3)), ((1, 2), (2, 1), (3, 4)), ((1, 1), (2, 3), (4, 1)),
    ((2, 2), (1, 3), (3, 1)), ((4, 2), (1, 1), (3, 4)), ((1, 4), (3, 2), (2, 1)),
)
CLUSTERED = ((2, 2, 3), (3, 3, 2), (4, 4, 3), (5, 5, 2), (6, 6, 5), (4, 6, 3),
             (6, 4, 2), (7, 7, 2))


def germ_scan(rng) -> list:
    ops = [_germ(product_text(f), binomial_product_expect(f), "seed606")
           for f in seed606_products()]
    # growing families: when this benchmark was added, the largest sizes ran
    # past the timeout
    for n in ZW_POWERS:
        ops.append(_germ(f"(z+w)^{n} + z^{n + 1}", {"branches": 1}, "zw-power"))
    for n in W_EXPONENTS:
        ops.append(_germ(f"z^2 - w^{n}", {"branches": gcd(2, n)}, "z2-wN"))
    for family, count in (("A", 8), ("D", 8), ("E", 4)):
        for _ in range(count):
            text, br = ade_germ_text(*_random_ade(rng, family))
            ops.append(_germ(text, {"branches": br}, "ade"))
    for a, b, c in CLUSTERED:
        ops.append(_germ(clustered_text(a, b, c), {"branches": 2 * gcd(a, b)},
                         "clustered"))
    for text, br in KNOWN_DEFECT_GERMS:
        ops.append(_germ(text, {"branches": br}, "local"))
    # factor lists: the --factors path
    for pattern in FACTOR_PATTERNS:
        factors = [(a, b, Fraction(rng.choice([1, 2, 3, 5]))) for a, b in pattern]
        rng.shuffle(factors)
        ops.append({"kind": "factors", "family": "factors",
                    "input": [binomial_text(*f) for f in factors],
                    "expect": {"branches": sum(gcd(a, b) for a, b, _ in factors)}})
    ops.append({"kind": "factors", "family": "factors",
                "input": ["z^7 - 2*w^7 + w^8", "z^7 - 2*w^7 + 2*w^8"],
                "expect": {"branches": 14}})
    return ops


# ---------------------------------------------------------------------------
# matrices with a known cokernel
# ---------------------------------------------------------------------------

def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def random_unimodular(rng, n: int, entry: int):
    """Lower times upper unitriangular, rows permuted and signed: det = +-1."""
    lower = [[1 if i == j else (rng.randint(-entry, entry) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-entry, entry) if j > i else 0)
              for j in range(n)] for i in range(n)]
    m = _matmul(lower, upper)
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def invariant_chain(rng, count: int, torsion: bool) -> list:
    """A divisibility chain d1 | d2 | ... of positive integers."""
    chain, d = [], 1
    for _ in range(count):
        if torsion:
            d *= rng.choice((1, 1, 1, 2, 3))
        chain.append(d)
    return chain


def matrix_with_cokernel(rng, rows: int, cols: int, diag, entry: int):
    """U*D*V for an rows x cols D whose diagonal is the chain ``diag``
    (its length is the rank); returns (matrix rows, cokernel as JSON)."""
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    m = _matmul(_matmul(random_unimodular(rng, rows, entry), d),
                random_unimodular(rng, cols, entry))
    return m, group(rows - len(diag), [x for x in diag if x >= 2])


def group(rank: int, torsion) -> dict:
    return {"rank": rank, "torsion": list(torsion)}


TRIVIAL = group(0, [])


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def betti1(vertices: int, edges) -> int:
    parent = list(range(vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    components = vertices
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return len(edges) - vertices + components


def random_graph(rng, max_vertices: int, max_edges: int):
    n = rng.randint(1, max_vertices)
    edges = [sorted((rng.randrange(n), rng.randrange(n)))
             for _ in range(rng.randint(0, max_edges))]
    return n, edges


def random_tree(rng, n: int):
    return [[rng.randrange(v), v] for v in range(1, n)]


def curve_decision(n: int, edges, rational) -> dict:
    """Expected verdict of a nodal curve with this dual graph."""
    if not edges:
        return {"decision": "Yes", "certificate": {"kind": "SmoothTrivial"}}
    lam = betti1(n, edges)
    if lam:
        return {"decision": "No", "obstruction": group(lam, [])}
    if all(rational):   # no loops when lam == 0, so rational means smooth P^1
        return {"decision": "Yes", "certificate": {"kind": "BurbanTree"},
                "k_minus_one": TRIVIAL}
    return {"decision": "Unknown", "k_minus_one": TRIVIAL}


def graph_doc(n: int, edges, rational=None) -> dict:
    doc = {"vertices": n, "edges": edges}
    if rational is not None:
        doc["rational"] = rational
    return doc


def _op(kind: str, family: str, doc, expect: dict) -> dict:
    return {"kind": kind, "family": family,
            "input": json.dumps(doc, sort_keys=True), "expect": expect}


def _dual_graph_curve(rng, i: int) -> dict:
    n = 1 + i % 12
    edges = [sorted((rng.randrange(n), rng.randrange(n))) for _ in range(i * 7 % 16)]
    rational = [rng.random() < 0.9 for _ in range(n)]
    doc = {"kind": "curve", "graph": graph_doc(n, edges, rational)}
    return _op("decide", "dual-graph", doc, curve_decision(n, edges, rational))


def _tree_quiver(rng, n: int) -> dict:
    doc = {"kind": "quiver", "graph": graph_doc(n, random_tree(rng, n))}
    return _op("quiver", "tree", doc, {"dimension": n * n})


def _branch_data_curve(rng, i: int) -> dict:
    pieces, rank, singular = [], 0, False
    for _ in range(1 + i % 4):
        brs = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        top = sum(brs) - len(brs) + 1
        n = rng.randint(1, top)
        rank += top - n
        singular = singular or bool(brs)
        pieces.append({"irreducible_components": n, "branch_numbers": brs})
    if not singular:
        expect = {"decision": "Yes", "certificate": {"kind": "SmoothTrivial"}}
    elif rank:
        expect = {"decision": "No", "obstruction": group(rank, [])}
    else:
        expect = {"decision": "Unknown", "k_minus_one": TRIVIAL}
    return _op("decide", "branch-data", {"kind": "curve", "components": pieces},
               expect)


# ---------------------------------------------------------------------------
# threefolds, surfaces, blow-ups
# ---------------------------------------------------------------------------

SINGULARITY_FORMS = ("node", "ade-germ", "node", "binomial", "ade", "branches")


def _random_singularity(rng, form=None) -> tuple:
    """(spec entry, branch number)."""
    form = form or rng.choice(SINGULARITY_FORMS)
    if form == "node":
        return {"germ": "z*w"}, 2
    if form == "ade-germ":
        text, br = ade_germ_text(*_random_ade(rng))
        return {"germ": text}, br
    if form == "binomial":
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        return {"germ": binomial_text(a, b, Fraction(rng.choice((1, 2, 3))))}, gcd(a, b)
    if form == "ade":
        family, n = _random_ade(rng)
        return {"ade": [family, n]}, ade_germ_text(family, n)[1]
    br = rng.randint(1, 4)
    return {"branches": br}, br


def threefold_doc(rng, sings, brs, delta: int, with_matrix: bool, torsion: bool):
    """(document, L, K_-1, exact); without a matrix K_-1 is exact only
    when L = 0 or delta = 0, and otherwise known by its rank."""
    L = sum(br - 1 for br in brs)
    pic = rng.randint(1, 3)
    doc = {"kind": "threefold", "pic_rank": pic, "singularities": sings}
    if rng.random() < 0.5:
        doc["cl_rank"] = pic + delta
    else:
        doc["defect"] = delta
    if with_matrix and delta:
        rows, k = matrix_with_cokernel(
            rng, L, delta, invariant_chain(rng, delta, torsion), 1)
        doc["matrix"] = rows
        return doc, L, k, True
    if L == 0:
        return doc, L, TRIVIAL, True
    return doc, L, group(L - delta, []), delta == 0


def _threefold(rng, i: int, path: str) -> dict:
    drawn = [_random_singularity(rng, SINGULARITY_FORMS[(i + j) % 6])
             for j in range(1 + i % 8)]
    sings, brs = [s for s, _ in drawn], [br for _, br in drawn]
    L = sum(br - 1 for br in brs)
    delta = L if i % 10 < 3 else rng.randint(0, L)
    doc, L, k, exact = threefold_doc(rng, sings, brs, delta, with_matrix=i % 5 < 3,
                                     torsion=i % 2 == 0)
    trivial = k == TRIVIAL
    if path == "threefold":
        if exact:
            ew = "Yes" if trivial else "No"
        else:
            ew = "RankZeroUnverified" if delta == L else "No"
        expect = {"L": L, "delta": delta, "k_minus_one": k, "exact": exact,
                  "enough_weil": ew}
        return _op("threefold", "threefold", doc, expect)
    if not trivial:
        expect = {"decision": "No", "obstruction": k}
    else:
        expect = {"decision": "Unknown", "k_minus_one": k if exact else None}
    return _op("decide", "threefold", doc, expect)


CATALOG = (
    ("nodal-quadric", 1, 2, "KawamataQuadric"),
    ("kawamata-p2p2", 2, 3, "KawamataP2P2Section"),
)


def _catalog_threefold(rng) -> dict:
    label, pic, cl, kind = rng.choice(CATALOG)
    sing = rng.choice(({"germ": "z*w"}, {"ade": ["A", 1]}, {"branches": 2},
                       {"ade": ["A", 3]}))
    doc = {"kind": "threefold", "label": label, "pic_rank": pic, "cl_rank": cl,
           "singularities": [sing]}
    if rng.random() < 0.5:
        doc["matrix"] = [[rng.choice((1, -1))]]
    return _op("decide", "catalog", doc,
               {"decision": "Yes", "certificate": {"kind": kind}})


def _matrix_threefold(rng, size: int) -> dict:
    """A node threefold whose size x size restriction matrix has a known
    cokernel; the growing family of the spec-batch workload."""
    sings = [{"germ": "z*w"}] * size
    doc, L, k, _ = threefold_doc(rng, sings, [2] * size, size, True, torsion=True)
    expect = ({"decision": "No", "obstruction": k} if k != TRIVIAL
              else {"decision": "Unknown", "k_minus_one": k})
    return _op("decide", f"matrix-{size}", doc, expect)


def _surface(rng, i: int) -> dict:
    n = 1 + i % 10
    pic = rng.randint(1, 3)
    r = n if i % 5 < 2 else rng.randint(0, n)
    torsion = i % 5 in (1, 3)
    diag = invariant_chain(rng, r, torsion)
    rows, k = matrix_with_cokernel(rng, n, pic + r, diag, 1)
    toric = rng.random() < 0.6
    doc = {"kind": "surface", "pic_rank": pic, "resolution_pic_rank": pic + r,
           "exceptional_components": n, "toric_gorenstein": toric,
           "matrix": rows}
    orders = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
    if toric:
        doc["singularity_orders"] = orders
    if k != TRIVIAL:
        expect = {"decision": "No", "obstruction": k}
    elif toric:
        expect = {"decision": "Yes", "k_minus_one": k,
                  "certificate": {"kind": "ToricSurface", "algebra_orders": orders}}
    else:
        expect = {"decision": "Unknown", "k_minus_one": k}
    return _op("decide", "surface", doc, expect)


def _blowup(rng, i: int) -> dict:
    steps, rank, all_yes = [], 0, True
    for _ in range(1 + i % 3):
        n, edges = random_graph(rng, 5, 4)
        rational = [rng.random() < 0.9 for _ in range(n)]
        step = {"center": graph_doc(n, edges, rational)}
        if edges and rng.random() < 0.3:
            step["center_germs"] = ["z*w"] * len(edges)
        steps.append(step)
        rank += betti1(n, edges)
        all_yes = all_yes and curve_decision(n, edges, rational)["decision"] == "Yes"
    if rank:
        expect = {"decision": "No", "obstruction": group(rank, [])}
    elif all_yes:
        expect = {"decision": "Yes", "certificate": {"kind": "BlowupOfYesPair"}}
    else:
        expect = {"decision": "Unknown", "k_minus_one": TRIVIAL}
    return _op("decide", "blowup", {"kind": "blowup", "steps": steps}, expect)


# restriction matrix sizes; when this benchmark was added, SNF of the
# largest ran past the per-operation timeout.  One size beyond it is
# enough: a timeout is dead time in which no latency is sampled.
MATRIX_SIZES = (8, 16, 24, 32, 64)


def spec_batch(rng) -> list:
    # Sizes (vertex, edge, singularity, step counts) run through fixed
    # ladders and the seed draws the rest, so that the cost of a pass, and
    # with it every percentile, does not depend on the seed.
    ops = [_dual_graph_curve(rng, i) for i in range(240)]
    ops += [_tree_quiver(rng, 2 + i * 38 // 119) for i in range(120)]
    ops += [_branch_data_curve(rng, i) for i in range(120)]
    ops += [_threefold(rng, i, "decide") for i in range(240)]
    ops += [_threefold(rng, i, "threefold") for i in range(80)]
    ops += [_catalog_threefold(rng) for _ in range(40)]
    ops += [_surface(rng, i) for i in range(120)]
    ops += [_blowup(rng, i) for i in range(120)]
    # The matrix family takes most of a pass's time, and the SNF time of
    # one U*D*V draw varies by a factor of two; a fixed stream keeps that
    # variation out of the comparison between seeds.
    fixed = random.Random("spec-batch:matrices")
    ops += [_matrix_threefold(fixed, size) for size in MATRIX_SIZES]
    return ops


# ---------------------------------------------------------------------------
# cli-cold: one fresh process per command line
# ---------------------------------------------------------------------------

# copies of the spec documents in demos/data, with the verdict fields each
# decide report must contain
DEMO_DOCUMENTS = {
    "blowup_three_node_curve.json": (
        {"kind": "blowup",
         "steps": [{"center": {"vertices": 1, "edges": [[0, 0], [0, 0], [0, 0]]}}]},
        {"decision": "No", "obstruction": group(3, [])}),
    "blowup_two_chains.json": (
        {"kind": "blowup",
         "steps": [{"center": {"vertices": 4, "edges": [[0, 1], [2, 3]]}}]},
        {"decision": "Yes", "certificate": {"kind": "BlowupOfYesPair"}}),
    "curve_a2_chain.json": (
        {"kind": "curve", "graph": {"vertices": 2, "edges": [[0, 1]]}},
        {"decision": "Yes", "certificate": {"kind": "BurbanTree"}}),
    "curve_lines_through_point.json": (
        {"kind": "curve",
         "components": [{"irreducible_components": 4, "branch_numbers": [4]}]},
        {"decision": "Unknown", "k_minus_one": TRIVIAL}),
    "curve_nodal_cubic.json": (
        {"kind": "curve", "graph": {"vertices": 1, "edges": [[0, 0]]}},
        {"decision": "No", "obstruction": group(1, [])}),
    "surface_toric.json": (
        {"kind": "surface", "pic_rank": 1, "resolution_pic_rank": 3,
         "exceptional_components": 2, "toric_gorenstein": True,
         "singularity_orders": [2, 3], "matrix": [[1, 0, 0], [0, 1, 0]]},
        {"decision": "Yes", "certificate": {"kind": "ToricSurface"}}),
    "threefold_del_pezzo_2.json": (
        {"kind": "threefold", "pic_rank": 1, "defect": 6,
         "singularities": [{"branches": 2}] * 16},
        {"decision": "No", "obstruction": group(10, [])}),
    "threefold_factorial_cubic.json": (
        {"kind": "threefold", "pic_rank": 2, "cl_rank": 2,
         "singularities": [{"germ": "z*w"}]},
        {"decision": "No", "obstruction": group(1, [])}),
    "threefold_nodal_quadric.json": (
        {"kind": "threefold", "label": "nodal-quadric", "pic_rank": 1,
         "cl_rank": 2, "singularities": [{"germ": "z*w"}], "matrix": [[1]]},
        {"decision": "Yes", "certificate": {"kind": "KawamataQuadric"}}),
}


def delpezzo_rows() -> list:
    """The del Pezzo summary table from the blow-up description: mu = 8 - d
    points on P^3, C(mu, 2) + C(mu, 6) nodes, rk Cl = 9 - d, and
    rk K_-1 = nodes - mu; d = 6 is the nodal P^2 x P^2 section."""
    rows = []
    for d in range(1, 6):
        mu = 8 - d
        nodes = comb(mu, 2) + comb(mu, 6)
        rows.append({"d": d, "singular_points": nodes, "pic_rank": 1,
                     "cl_rank": 9 - d, "k_rank": nodes - mu,
                     "verdict": "No" if nodes > mu else "Unknown"})
    rows.append({"d": 6, "singular_points": 1, "pic_rank": 2, "cl_rank": 3,
                 "k_rank": 0, "verdict": "Yes"})
    return rows


def _cli(argv, expect_exit: int, fields=None, files=None, family="cli") -> dict:
    """``argv`` may name files of ``files`` as ``@name``; the runner writes
    them to a work directory and substitutes their paths."""
    return {"kind": "cli", "family": family, "input": {"argv": argv, "files": files or {}},
            "expect": {"exit": expect_exit, "fields": fields}}


def cli_cold(rng) -> list:
    ops = []
    for name, (doc, expect) in DEMO_DOCUMENTS.items():
        ops.append(_cli(["decide", "@" + name, "--json"], 0, expect,
                        {name: json.dumps(doc)}, "decide"))
    drawn = [({"germ": "z*w"}, 2)]
    drawn += [_random_singularity(rng) for _ in range(rng.randint(1, 5))]
    brs = [br for _, br in drawn]
    delta = rng.randint(1, sum(br - 1 for br in brs))
    doc, L, k, exact = threefold_doc(rng, [s for s, _ in drawn], brs, delta,
                                     True, torsion=True)
    files = {"matrix.json": json.dumps(doc.pop("matrix")),
             "threefold.json": json.dumps(doc)}
    argv = ["threefold", "@threefold.json", "--matrix", "@matrix.json", "--json"]
    ops.append(_cli(argv, 0, {"L": L, "delta": delta, "k_minus_one": k,
                              "exact": exact}, files, "threefold"))
    for command in ("branches", "classify", "branches", "classify"):
        text, br = ade_germ_text(*_random_ade(rng))
        ops.append(_cli([command, text, "--json"], 0, {"branches": br},
                        family=command))
    factors = [binomial_text(1, b, Fraction(c)) for b, c in
               ((rng.randint(1, 5), 1), (rng.randint(1, 5), 2))]
    ops.append(_cli(["branches", "--factors", ",".join(factors), "--json"], 0,
                    {"branches": 2}, family="branches"))
    n = rng.randint(3, 12)
    tree = {"kind": "quiver", "graph": graph_doc(n, random_tree(rng, n))}
    ops.append(_cli(["quiver", "@tree.json", "--json"], 0, {"dimension": n * n},
                    {"tree.json": json.dumps(tree)}, "quiver"))
    size = rng.randint(2, 5)
    rows, k = matrix_with_cokernel(rng, size, size,
                                   invariant_chain(rng, size, True), 1)
    ops.append(_cli(["snf", json.dumps(rows), "--json"], 0, {"cokernel": k},
                    family="snf"))
    ops.append(_cli(["table", "delpezzo", "--json"], 0, delpezzo_rows(),
                    family="table"))
    ops.append(_cli(["decide", "@bad.json", "--json"], 1,
                    files={"bad.json": '{"kind": "curve", '}, family="malformed"))
    ops.append(_cli(["decide", "@kind.json"], 1,
                    files={"kind.json": json.dumps({"kind": "fourfold"})},
                    family="malformed"))
    ops.append(_cli(["branches", "z^^2"], 1, family="malformed"))
    ops.append(_cli(["branches", "z^2"], 1, family="malformed"))
    return ops
