"""Command-line interface: spec-document parsing, report rendering, and
the subcommands

    branches classify curve quiver threefold surface blowup decide snf table

Spec documents are read by a few shared field readers, which reject bad
input with its field path.  Every result type has one renderer, which
builds the report's JSON data; the text report is formatted from that
data, and only when text is asked for.  Exit codes: 0 success, 1 input
error (also for JSON that cannot be read or is nested too deeply), 2
unsupported computation (a branch count that would need an uncertifiable
field extension).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .blowup import BlowupPipeline, BlowupStep
from .curves import CurveSpec, DualGraph, GeneralCurvePiece, betti1, \
    curve_k_minus_one, is_tree_of_lines
from .errors import ExtensionUnsupported, InputError, KMinusOneError, \
    SpecValidationError, at_field
from .exact import FinAbGroup, IntMatrix, cokernel, smith_normal_form
from .germs import BranchReport, branch_count, branch_count_factored
from .localsing import LocalSingularity, ade_germ, ade_labels, ade_lookup, \
    classify_cAn, from_branch_number, from_branch_report
from .parsing import parse_polynomial, render_polynomial
from .quiver import AlgebraBasis, QuiverWithRelations, algebra_basis, burban_quiver
from .varieties import GlobalReport, SurfaceResolutionSpec, VarietySpec, \
    del_pezzo_spec, kawamata_p2p2_spec, surface_k_minus_one, threefold_invariants
from .verdicts import Verdict, decide


# ---------------------------------------------------------------------------
# spec documents: a few field readers, one sequence of reads per kind
# ---------------------------------------------------------------------------

def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _object(doc, path: str, allowed, required):
    """Reject doc unless it is an object whose keys are among allowed and
    include all of required."""
    if not isinstance(doc, dict):
        raise SpecValidationError(path, "expected an object")
    for key in doc:
        if key not in allowed:
            raise SpecValidationError(_at(path, key), "unknown field")
    for key in required:
        if key not in doc:
            raise SpecValidationError(_at(path, key), "required field missing")


def _nat(doc, key: str, path: str = "", minimum: int = 0) -> int:
    v = doc[key]
    if not _is_int(v) or v < minimum:
        raise SpecValidationError(_at(path, key), f"expected an integer >= {minimum}")
    return v


def _list(doc, key: str, path: str, expected: str, ok=None, nonempty=False) -> list:
    """The list under key, empty when absent, whose items all pass ok."""
    v = doc.get(key, [])
    if not isinstance(v, list) or (nonempty and not v) \
            or (ok is not None and not all(map(ok, v))):
        raise SpecValidationError(_at(path, key), f"expected {expected}")
    return v


def _label(doc) -> str:
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SpecValidationError("label", "expected a string")
    return label


# Stated resource limit on the vertices and on the edges of a dual graph; the
# quiver report grows with the cube of the vertex count (26 MB of JSON at 200).
MAX_GRAPH_SIZE = 200


def _parse_graph(doc, path: str) -> DualGraph:
    _object(doc, path, ("vertices", "edges", "rational", "smooth_p1"), ("vertices",))
    vertices = _nat(doc, "vertices", path)
    edges = _list(doc, "edges", path, "a list of pairs")
    for key, size in (("vertices", vertices), ("edges", len(edges))):
        if size > MAX_GRAPH_SIZE:
            raise SpecValidationError(_at(path, key), f"expected at most {MAX_GRAPH_SIZE}")
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(map(_is_int, e)):
            raise SpecValidationError(f"{path}.edges[{i}]",
                                      "expected a pair of vertex indices")
    flags = [tuple(_list(doc, name, path, "a list of booleans", lambda x: isinstance(x, bool)))
             if name in doc else None for name in ("rational", "smooth_p1")]
    try:
        return DualGraph(vertices, tuple(map(tuple, edges)), *flags)
    except ValueError as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _parse_matrix(rows) -> IntMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SpecValidationError("matrix", "expected an array of arrays of integers")
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if not _is_int(x):
                raise SpecValidationError(f"matrix[{i}][{j}]", "expected an integer")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise SpecValidationError("matrix", "ragged matrix rows")
    return IntMatrix.from_rows(rows)


def parse_curve_document(doc) -> CurveSpec:
    _object(doc, "", ("kind", "graph", "components"), ("kind",))
    if ("graph" in doc) == ("components" in doc):
        raise SpecValidationError("", "give exactly one of 'graph', 'components'")
    if "graph" in doc:
        return CurveSpec(graph=_parse_graph(doc["graph"], "graph"))
    pieces = []
    for i, c in enumerate(_list(doc, "components", "", "a nonempty list", nonempty=True)):
        path = f"components[{i}]"
        _object(c, path, ("irreducible_components", "branch_numbers"),
                ("irreducible_components",))
        n = _nat(c, "irreducible_components", path, 1)
        brs = _list(c, "branch_numbers", path, "a list of integers >= 1",
                    lambda b: _is_int(b) and b >= 1)
        pieces.append(GeneralCurvePiece(n, tuple(brs)))
    return CurveSpec(pieces=tuple(pieces))


# Bounds of the germ memo below: texts held, and the longest text held
_GERM_MEMO_SIZE = 256
_GERM_MEMO_TEXT = 200


@lru_cache(maxsize=_GERM_MEMO_SIZE)
def _classified_germ(text: str) -> LocalSingularity:
    """classify_cAn of the parsed germ text of a spec document, memoised for
    the process: a batch parses, gates, recurses and classifies each distinct
    text once (a node is `z*w` in nearly every entry), and later entries
    share the frozen record.  It holds at most _GERM_MEMO_SIZE texts of at
    most _GERM_MEMO_TEXT characters, which the parser takes only in ASCII:
    under 0.2 MB full (0.12 MB measured).  _parse_singularity classifies a
    longer text through __wrapped__, unstored.  A failure is never stored,
    so each entry raises again at its own field path."""
    return classify_cAn(parse_polynomial(text))


def _parse_singularity(entry, path: str) -> LocalSingularity:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise SpecValidationError(path, "expected exactly one of {'ade': ...}, "
                                  "{'germ': ...}, {'branches': ...}")
    ((key, value),) = entry.items()
    if key == "ade":
        if not isinstance(value, list) or len(value) != 2 \
                or not isinstance(value[0], str) or not _is_int(value[1]):
            raise SpecValidationError(f"{path}.ade",
                                      "expected [family, index] like ['D', 4]")
        return ade_lookup(*value)
    if key == "germ":
        if not isinstance(value, str):
            raise SpecValidationError(f"{path}.germ", "expected an expression string")
        classify = _classified_germ if len(value) <= _GERM_MEMO_TEXT \
            else _classified_germ.__wrapped__
        return at_field(f"{path}.germ", classify, value)
    if key == "branches":
        return from_branch_number(_nat(entry, "branches", path, 1))
    raise SpecValidationError(f"{path}.{key}", "unknown singularity form")


def parse_threefold_document(doc) -> VarietySpec:
    _object(doc, "", ("kind", "label", "pic_rank", "cl_rank", "defect",
                      "singularities", "matrix"), ("kind", "pic_rank", "singularities"))
    if ("cl_rank" in doc) == ("defect" in doc):
        raise SpecValidationError("", "give exactly one of 'cl_rank', 'defect'")
    pic = _nat(doc, "pic_rank")
    cl = _nat(doc, "cl_rank") if "cl_rank" in doc else pic + _nat(doc, "defect")
    singularities = tuple(_parse_singularity(s, f"singularities[{i}]")
                          for i, s in enumerate(_list(doc, "singularities", "", "a list")))
    matrix = _parse_matrix(doc["matrix"]) if "matrix" in doc else None
    try:
        return VarietySpec(singularities, pic, cl, matrix, _label(doc))
    except ValueError as exc:
        raise SpecValidationError("", str(exc)) from exc


def parse_surface_document(doc) -> SurfaceResolutionSpec:
    _object(doc, "", ("kind", "label", "pic_rank", "resolution_pic_rank",
                      "exceptional_components", "toric_gorenstein",
                      "singularity_orders", "matrix"),
            ("kind", "pic_rank", "resolution_pic_rank", "exceptional_components"))
    toric = doc.get("toric_gorenstein", False)
    if not isinstance(toric, bool):
        raise SpecValidationError("toric_gorenstein", "expected a boolean")
    orders = _list(doc, "singularity_orders", "", "a list of integers >= 2",
                   lambda n: _is_int(n) and n >= 2)
    matrix = _parse_matrix(doc["matrix"]) if "matrix" in doc else None
    label = _label(doc)
    spec = SurfaceResolutionSpec(
        _nat(doc, "pic_rank"), _nat(doc, "resolution_pic_rank"),
        _nat(doc, "exceptional_components"), toric, tuple(orders), matrix, label)
    if toric and not spec.is_smooth and not orders:
        raise SpecValidationError(
            "singularity_orders",
            "a singular Gorenstein toric surface needs its cyclic quotient orders")
    return spec


def parse_blowup_document(doc) -> BlowupPipeline:
    _object(doc, "", ("kind", "steps"), ("kind", "steps"))
    steps = []
    for i, s in enumerate(_list(doc, "steps", "", "a nonempty list", nonempty=True)):
        path = f"steps[{i}]"
        _object(s, path, ("center", "center_germs"), ("center",))
        center = _parse_graph(s["center"], f"{path}.center")
        germs = _list(s, "center_germs", path, "a list of expression strings",
                      lambda g: isinstance(g, str))
        germs = tuple(at_field(f"{path}.center_germs[{j}]", parse_polynomial, g)
                      for j, g in enumerate(germs)) if "center_germs" in s else None
        try:
            steps.append(BlowupStep(center, germs))
        except SpecValidationError as exc:  # a germ at center_germs[j], or the germ count
            raise SpecValidationError(f"{path}.{exc.path}", exc.message) from exc
        except ExtensionUnsupported as exc:  # raised at center_germs[j]
            raise ExtensionUnsupported(f"{path}.{exc}") from exc
    return BlowupPipeline(tuple(steps))


_KIND_PARSERS = {
    "curve": parse_curve_document,
    "quiver": parse_curve_document,
    "threefold": parse_threefold_document,
    "surface": parse_surface_document,
    "blowup": parse_blowup_document,
}


def parse_spec_document(doc):
    """Validate and convert a JSON spec document; the top-level 'kind'
    selects the schema.  Unknown fields are rejected with a field path."""
    if not isinstance(doc, dict):
        raise SpecValidationError("", "expected a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_PARSERS:
        raise SpecValidationError(
            "kind", "expected one of 'curve', 'threefold', 'surface', "
            "'blowup', 'quiver'")
    return _KIND_PARSERS[kind](doc)


# ---------------------------------------------------------------------------
# reports: data first, text formatted from the data on request
# ---------------------------------------------------------------------------

class Report:
    """A result as JSON data, with the function that formats the data as
    the lines of the text report."""

    __slots__ = ("data", "lines")

    def __init__(self, data, lines):
        self.data = data
        self.lines = lines


def _group(g: FinAbGroup) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.invariant_factors)}


def _group_text(d) -> str:
    return str(FinAbGroup(d["rank"], tuple(d["torsion"])))


def _matrix(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.to_rows()}


def _quiver(q: QuiverWithRelations) -> dict:
    return {"vertices": q.vertices,
            "arrows": [{"name": a.name, "source": a.source + 1, "target": a.target + 1}
                       for a in q.arrows],
            "relations": [[q.arrows[i].name, q.arrows[j].name] for i, j in q.relations]}


def _quiver_lines(d) -> list:
    rels = ", ".join(f"{a}·{b} = 0" for a, b in d["relations"])
    return ([f"quiver on {d['vertices']} vertices"]
            + [f"  {a['name']}: {a['source']} -> {a['target']}" for a in d["arrows"]]
            + [f"relations: {rels}" if rels else "relations: none"])


def _germ_lines(d) -> list:
    return [f"germ: {d['germ']}"] if "germ" in d else []


def render_branch_report(rep: BranchReport, germ_text: str = "") -> Report:
    data = {"order": rep.order, "cA_index": rep.cAn_index,
            "branches": rep.branch_count, "local_cl_rank": rep.branch_count - 1}
    if germ_text:
        data["germ"] = germ_text
    return Report(data, lambda d: _germ_lines(d) + [
        f"ord(g) = {d['order']}", f"cA index n = {d['cA_index']}",
        f"branches = {d['branches']}", f"local Cl rank = {d['local_cl_rank']}"])


def render_local_singularity(sing: LocalSingularity, germ_text: str = "") -> Report:
    data = {"cA_index": sing.n, "branches": sing.br,
            "local_cl_rank": sing.cl_rank, "node": sing.is_node}
    if germ_text:
        data["germ"] = germ_text
    return Report(data, lambda d: _germ_lines(d) + [
        f"cA index n = {'undetermined' if d['cA_index'] is None else d['cA_index']}",
        f"branch number br = {d['branches']}",
        f"local class group Cl = {FinAbGroup.free(d['local_cl_rank'])}",
    ] + (["ordinary double point (node)"] if d["node"] else []))


def render_curve_report(spec: CurveSpec) -> Report:
    data, g = {"k_minus_one": _group(curve_k_minus_one(spec))}, spec.graph
    if g is None:
        data.update(pieces=len(spec.pieces),
                    singular_points=sum(len(p.branch_numbers) for p in spec.pieces))
        return Report(data, lambda d: [
            f"curve: {d['pieces']} connected pieces, {d['singular_points']} singular points",
            f"K_-1 = {_group_text(d['k_minus_one'])}"])
    data.update(components=g.vertex_count, nodes=g.edge_count,
                betti1=betti1(g), tree_of_lines=is_tree_of_lines(g))
    return Report(data, lambda d: [
        f"nodal curve: {d['components']} components, {d['nodes']} nodes",
        f"first Betti number of the dual graph = {d['betti1']}",
        f"tree of projective lines: {'yes' if d['tree_of_lines'] else 'no'}",
        f"K_-1 = {_group_text(d['k_minus_one'])}"])


def render_quiver_report(q: QuiverWithRelations, basis: AlgebraBasis) -> Report:
    data = {"quiver": _quiver(q), "dimension": basis.dimension, "basis": basis.labels}
    return Report(data, lambda d: _quiver_lines(d["quiver"]) + [
        f"algebra dimension = {d['dimension']}", "basis: " + ", ".join(d["basis"])])


def _global_lines(d) -> list:
    k, sings = d["k_minus_one"], d["singular_points"]
    ew = {"Yes": "yes", "No": "no",
          "RankZeroUnverified": "unverified (rank zero only)"}[d["enough_weil"]]
    lines = [f"singular points: {sings}", f"L = br(X) - #Sing(X) = {d['L']}",
             f"defect delta = {d['delta']}", f"rk K_-1 = {k['rank']}",
             f"K_-1 = {_group_text(k)} (exact)" if d["exact"]
             else "K_-1 known by rank only (no restriction matrix)",
             f"enough Weil divisors: {ew}"]
    return lines + ([f"maximally nonfactorial: {ew}"] if d["nodal"] and sings else [])


def render_global_report(rep: GlobalReport, spec: VarietySpec) -> Report:
    """The threefold report of spec, with its label and the number of its
    singular points."""
    data = {"L": rep.L, "delta": rep.delta, "k_minus_one": _group(rep.k_minus_one),
            "exact": rep.exact, "enough_weil": rep.enough_weil.value, "nodal": spec.is_nodal,
            "label": spec.label, "singular_points": len(spec.singularities)}
    return Report(data, _global_lines)


def render_surface_report(spec: SurfaceResolutionSpec) -> Report:
    k, exact = surface_k_minus_one(spec)
    data = {"pic_rank": spec.pic_rank, "resolution_pic_rank": spec.resolution_pic_rank,
            "exceptional_components": spec.exceptional_components,
            "k_minus_one": _group(k), "exact": exact,
            "toric_gorenstein": spec.toric_gorenstein}
    return Report(data, lambda d: [
        f"rk Pic(X) = {d['pic_rank']}, rk Pic(resolution) = {d['resolution_pic_rank']}, "
        f"exceptional components = {d['exceptional_components']}",
        f"rk K_-1 = {d['k_minus_one']['rank']}",
    ] + ([f"K_-1 = {_group_text(d['k_minus_one'])} (exact)"] if d["exact"] else []))


def render_blowup_report(pipeline: BlowupPipeline) -> Report:
    verdict, steps = decide(pipeline), len(pipeline.steps)
    data = {"k_minus_one": _group(verdict.k_minus_one),
            "singularities": [{"cA_index": s.n, "branches": s.br, "local_cl_rank": s.cl_rank}
                              for s in pipeline.singularities()],
            "verdict": render_verdict(verdict).data}
    return Report(data, lambda d: [
        f"blow-up pipeline with {steps} step(s)",
        f"K_-1 of the blow-up = {_group_text(d['k_minus_one'])}",
        f"singular points acquired: {len(d['singularities'])}",
    ] + [f"  cA_{s['cA_index']}: br = {s['branches']}, local Cl rank = {s['local_cl_rank']}"
         for s in d["singularities"]] + _verdict_lines(d["verdict"]))


def _verdict_lines(d) -> list:
    lines = [f"decision: {d['decision']}"]
    if "obstruction" in d:
        lines += [f"OBSTRUCTED: rk K_-1 = {d['obstruction']['rank']}",
                  f"obstruction group: {_group_text(d['obstruction'])}"]
    cert = d.get("certificate", {})
    if cert:
        lines.append(f"certificate: {cert['kind']}")
    if "quiver" in cert:
        lines += _quiver_lines(cert["quiver"])
    if "algebra_orders" in cert:
        lines.append("algebras: " + ", ".join(f"k[z]/(z^{n})" for n in cert["algebra_orders"]))
    if "parts" in cert:
        lines.append("replayed parts: " + ", ".join(p["decision"] for p in cert["parts"]))
    if "k_minus_one" in d:
        lines.append(f"K_-1 = {_group_text(d['k_minus_one'])}")
    return lines + [f"note: {note}" for note in d.get("notes", ())]


def render_verdict(verdict: Verdict) -> Report:
    data = {"decision": verdict.decision.value}
    if verdict.obstruction is not None:
        data["obstruction"] = _group(verdict.obstruction)
    elif verdict.k_minus_one is not None:
        data["k_minus_one"] = _group(verdict.k_minus_one)
    cert = verdict.certificate
    if cert is not None:
        data["certificate"] = {"kind": cert.kind.value}
        if cert.quiver is not None:
            data["certificate"]["quiver"] = _quiver(cert.quiver)
        if cert.algebra_orders:
            data["certificate"]["algebra_orders"] = list(cert.algebra_orders)
        if cert.parts:
            data["certificate"]["parts"] = [render_verdict(p).data for p in cert.parts]
    if verdict.notes:
        data["notes"] = list(verdict.notes)
    return Report(data, _verdict_lines)


def render_snf_report(m: IntMatrix) -> Report:
    d, u, v = smith_normal_form(m)
    # Python prints no int of more digits than this; 0, or no such
    # function (before 3.10.7), means no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and max((abs(x) for t in (d, u, v) for x in t.entries), default=0) >= 10 ** limit:
        raise InputError(f"an entry of D, U or V has more than {limit} digits, "
                         "past Python's limit on printing an integer")
    data = {"D": _matrix(d), "U": _matrix(u), "V": _matrix(v),
            "cokernel": _group(cokernel(d))}
    return Report(data, lambda r: [
        "D = U*M*V with unimodular U, V",
        f"D diagonal: {[row[i] for i, row in enumerate(r['D']['entries']) if i < len(row)]}",
        f"U = {r['U']['entries']}", f"V = {r['V']['entries']}",
        f"cokernel Z^{r['D']['rows']}/im(M) = {_group_text(r['cokernel'])}"])


def render_delpezzo_table() -> Report:
    """Degrees 1..5 from del_pezzo_spec, degree 6 the P^2 x P^2 section;
    each row's rank and verdict from decide."""
    data = []
    for d in range(1, 7):
        spec = kawamata_p2p2_spec() if d == 6 else del_pezzo_spec(d)
        verdict = decide(spec)
        data.append({"d": d, "singular_points": len(spec.singularities),
                     "pic_rank": spec.pic_rank, "cl_rank": spec.cl_rank,
                     "k_rank": verdict.k_minus_one.free_rank,
                     "verdict": verdict.decision.value})
    return Report(data, lambda rows: [
        " d | #sing | rk Pic | rk Cl | rk K_-1 | Kawamata decomp.",
        "---+-------+--------+-------+---------+------------------"] + [
        f" {r['d']} | {r['singular_points']:5d} | {r['pic_rank']:6d} | "
        f"{r['cl_rank']:5d} | {r['k_rank']:7d} | {r['verdict']}" for r in rows])


def render_ade_table(k_values) -> Report:
    data = []
    for family, index in ade_labels(k_values):
        germ = ade_germ(family, index)
        classified, catalog = classify_cAn(germ), ade_lookup(family, index)
        if classified.br != catalog.br:
            raise KMinusOneError(f"catalog mismatch at {family}{index}")
        data.append({"type": f"{family}{index}", "germ": render_polynomial(germ),
                     "branches": catalog.br, "cl_rank": catalog.cl_rank})
    return Report(data, lambda rows: [
        "type | germ g(z, w)  | br | rk Cl", "-----+---------------+----+------"] + [
        f"{r['type']:<4} | {r['germ']:<13} | {r['branches']:2d} | {r['cl_rank']:5d}"
        for r in rows])


def _json_chunks(o, out: list, nl: str) -> None:
    """Append o to out as json.dumps(o, indent=2, sort_keys=True) writes it,
    nl being a newline and o's indent; strings go through json's C escaper.
    A str or int in a dict goes out in one piece with its key, and a list all
    of strs or all of ints in one join, 64 items at a time when longer, so
    that a long list is not copied whole."""
    t = type(o)
    if t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(repr(o))
    elif not o and (t is dict or t is list or t is tuple):
        out.append("{}" if t is dict else "[]")
    elif t is dict:
        inner = nl + "  "
        head, sep = "{" + inner, "," + inner
        for k in sorted(o):
            v = o[k]
            if type(v) is str:
                out.append(head + _quote(k) + ": " + _quote(v))
            elif type(v) is int:
                out.append(head + _quote(k) + ": " + repr(v))
            else:
                out.append(head + _quote(k) + ": ")
                _json_chunks(v, out, inner)
            head = sep
        out.append(nl + "}")
    elif t is list or t is tuple:
        inner = nl + "  "
        sep = "," + inner
        first = type(o[0])
        if (first is str or first is int) and all(type(x) is first for x in o):
            write = _quote if first is str else repr
            if len(o) <= 64:
                out.append("[" + inner + sep.join(map(write, o)) + nl + "]")
                return
            for i in range(0, len(o), 64):
                out.append((sep if i else "[" + inner) + sep.join(map(write, o[i:i + 64])))
        else:
            for i, x in enumerate(o):
                out.append(sep if i else "[" + inner)
                _json_chunks(x, out, inner)
        out.append(nl + "]")
    elif t is bool or o is None:
        out.append("true" if o is True else "false" if o is False else "null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def emit_report(report: Report, as_json: bool = False) -> str:
    """Deterministic text or JSON rendering of a Report from a render_*
    helper.  JSON output formats no text, and is byte for byte what
    json.dumps(report.data, indent=2, sort_keys=True) writes."""
    if as_json:
        out = []
        _json_chunks(report.data, out, "\n")
        return "".join(out)
    return "\n".join(report.lines(report.data))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_json(source: str, inline: bool = False):
    """JSON from a file path, from stdin for '-', or from source itself
    when inline; every failure is an InputError naming the source."""
    try:
        if inline:
            raw = source
        elif source == "-":
            raw = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(raw)
    except ValueError as exc:  # malformed, or an integer too long to convert
        raise InputError(f"{'' if inline else source + ': '}invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{'inline matrix' if inline else source}: "
                         "JSON nested too deeply to read") from exc


def _germ_report(args) -> tuple:
    """(BranchReport, display text) of the germ expression or --factors."""
    factors = [parse_polynomial(t) for t in (args.factors or "").split(",") if t.strip()]
    if args.factors and not factors:
        raise InputError("--factors needs at least one expression")
    if args.expr is None and not factors:
        raise InputError("give a germ expression or --factors")
    if args.expr is None:
        return (branch_count_factored(factors),
                " * ".join(f"({render_polynomial(f)})" for f in factors))
    germ = parse_polynomial(args.expr)
    if not factors:
        return branch_count(germ), args.expr
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    if product != germ:
        raise InputError("--factors do not multiply to the given polynomial")
    return branch_count_factored(factors), args.expr


def _tree_quiver_report(spec: CurveSpec) -> Report:
    if spec.graph is None:
        raise InputError("the quiver command needs a curve document with a dual graph")
    q = burban_quiver(spec.graph)
    return render_quiver_report(q, algebra_basis(q))


# germ commands: name -> (help, renderer of the branch report and germ text)
_GERM_COMMANDS = {
    "branches": ("order, Newton data and branch number of a germ", render_branch_report),
    "classify": ("classify the threefold germ xy + g(z, w)", lambda rep, text:
                 render_local_singularity(from_branch_report(rep), text)),
}

# document commands: name -> (help, accepted spec type, its document, renderer)
_DOCUMENT_COMMANDS = {
    "curve": ("K_-1 of a curve from a JSON spec document",
              CurveSpec, "a curve document", render_curve_report),
    "quiver": ("tilting quiver and algebra basis of a tree of lines",
               CurveSpec, "a curve document with a dual graph", _tree_quiver_report),
    "threefold": ("defect, L, K_-1 and enough-Weil-divisors report",
                  VarietySpec, "a threefold document",
                  lambda spec: render_global_report(threefold_invariants(spec), spec)),
    "surface": ("surface K_-1 rank from resolution data",
                SurfaceResolutionSpec, "a surface document", render_surface_report),
    "blowup": ("blow-up pipeline report and verdict",
               BlowupPipeline, "a blowup document", render_blowup_report),
    "decide": ("three-valued Kawamata decomposition verdict",
               object, "", lambda spec: render_verdict(decide(spec))),
}


def build_parser(command=None):
    """The argument parser, with the subparser of command alone when it is
    one of the ten (argparse reaches no other), else all ten (for --help, a
    typo or no command), which take about 4 ms of a cold run to build."""
    import argparse  # about 2 ms at start-up, so only when a command line is parsed

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise InputError(message)

    parser = Parser(prog="kminusone",
                    description="K_-1 obstructions and certificates for "
                                "Kawamata type semiorthogonal decompositions")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: entry[0] for name, entry in _GERM_COMMANDS.items()}
    commands.update((name, entry[0]) for name, entry in _DOCUMENT_COMMANDS.items())
    commands.update(snf="Smith normal form of an integer matrix", table="built-in tables")
    for name in [command] if command in commands else commands:
        p = sub.add_parser(name, help=commands[name])
        if name in _GERM_COMMANDS:
            p.add_argument("expr", nargs="?", help="germ expression in z, w")
            p.add_argument("--factors",
                           help="comma-separated coprime factors (fallback when "
                                "an unsupported field extension is needed)")
        elif name in _DOCUMENT_COMMANDS:
            p.add_argument("document", help="JSON spec document path, or - for stdin")
        if name == "threefold":
            p.add_argument("--matrix", help="restriction matrix file (JSON array of arrays)")
        elif name == "snf":
            p.add_argument("matrix", help="inline JSON array of arrays, or a file path")
        elif name == "table":
            p.add_argument("which", choices=["delpezzo", "ade"])
            p.add_argument("--k", default="1..3",
                           help="ADE parameter range, e.g. 2 or 1..3 (default 1..3)")
        # also accepted after the subcommand; SUPPRESS keeps the
        # top-level value when the flag is absent here
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
    return parser


# Stated resource limit on M in `table ade --k N..M`: each k adds four rows
# (A and D of index 2k - 1 and 2k), and 1..1000 takes 0.12-0.14 s and 376 kB
# of JSON, linear in M.
_MAX_ADE_K = 1000


def _parse_k_range(text: str) -> range:
    try:
        lo, dots, hi = text.partition("..")
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError as exc:
        raise InputError(f"bad --k range {text!r}; use N or N..M") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"bad --k range {text!r}; need 1 <= N <= M")
    if hi > _MAX_ADE_K:
        raise InputError(f"bad --k range {text!r}; need M <= {_MAX_ADE_K}")
    return range(lo, hi + 1)


def _run(args) -> Report:
    if args.command in _GERM_COMMANDS:
        return _GERM_COMMANDS[args.command][1](*_germ_report(args))
    if args.command in _DOCUMENT_COMMANDS:
        _, accepted, document, render = _DOCUMENT_COMMANDS[args.command]
        doc = _load_json(args.document)
        if getattr(args, "matrix", None) is not None and isinstance(doc, dict):
            if "matrix" in doc:
                raise InputError("matrix given both inline and via --matrix")
            doc = dict(doc, matrix=_load_json(args.matrix))
        spec = parse_spec_document(doc)
        if not isinstance(spec, accepted):
            raise InputError(f"the {args.command} command needs {document}")
        return render(spec)
    if args.command == "snf":
        inline = args.matrix.lstrip().startswith("[")
        return render_snf_report(_parse_matrix(_load_json(args.matrix, inline)))
    if args.which == "delpezzo":
        return render_delpezzo_table()
    return render_ade_table(_parse_k_range(args.k))


def run_cli(argv=None) -> int:
    """Run one CLI invocation; returns the exit code and prints the report
    or help to stdout (errors to stderr).  Never raises on malformed input."""
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads the first argument after the top-level flags as the command
    parser = build_parser(next((a for a in argv if a != "--json"), None))
    try:
        args = parser.parse_args(argv)
        report = _run(args)
    except SystemExit as exc:  # argparse, after printing the help
        return exc.code
    except ExtensionUnsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except KMinusOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(emit_report(report, as_json=args.json))
    return 0


def main() -> None:
    """The console script: run_cli, the exit handlers as interpreter exit
    runs them, and os._exit, which skips the rest of finalization (freeing
    every object, 9-11 ms of a cold run, with nothing left to write).
    A stdout closed at start or by a pipe's reader gives exit code 1."""
    try:
        code = run_cli()
        if sys.stdout is None:  # started with stdout closed: the report went nowhere
            code = 1
        else:
            sys.stdout.flush()  # a pipe closed by its reader fails here, inside the try
    except BrokenPipeError:  # Python's SIGPIPE recipe: later flushes go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()
    os._exit(code)
