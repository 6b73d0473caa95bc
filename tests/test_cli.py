"""Command-line interface: subcommands, exit codes, document validation,
golden output stability."""

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarm_budget import budget
from kminusone import cli
from kminusone.cli import MAX_GRAPH_SIZE, Report, emit_report, parse_spec_document, \
    render_quiver_report, run_cli
from kminusone.curves import CurveSpec, DualGraph
from kminusone.errors import SpecValidationError
from kminusone.exact import smith_normal_form
from kminusone.quiver import algebra_basis, burban_quiver

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestGermCommands:
    def test_branches_d4(self, capsys):
        code, out, _ = run(capsys, "branches", "z^2*w + w^3")
        assert code == 0
        assert "ord(g) = 3" in out
        assert "cA index n = 2" in out
        assert "branches = 3" in out
        assert "local Cl rank = 2" in out

    def test_classify_node(self, capsys):
        code, out, _ = run(capsys, "classify", "z*w")
        assert code == 0
        assert "ordinary double point" in out

    def test_syntax_error_exit_one(self, capsys):
        code, _, err = run(capsys, "branches", "z^2 +")
        assert code == 1
        assert "error" in err

    def test_deep_nesting_exit_one(self, capsys):
        code, out, err = run(capsys, "branches", "(" * 3000 + "z" + ")" * 3000)
        assert code == 1
        assert out == ""
        assert "nested deeper" in err and "Traceback" not in err

    def test_non_ascii_digit_exit_one(self, capsys):
        assert run(capsys, "branches", "z²") == (
            1, "", "error: unexpected character '²' (line 1, column 2)\n")

    def test_extension_unsupported_exit_two(self, capsys):
        code, _, err = run(capsys, "branches", "(z^7 - 2*w^7)^2 + z^3*w^12")
        assert code == 2
        assert "--factors" in err

    # clustered products with a 31-digit coefficient: trial division of it
    # would count to 10^15, so the germ is refused, under a 2 s SIGALRM
    # budget that fails the test instead of hanging the suite, and
    # --factors answers
    @pytest.mark.parametrize("a, b, c, branches", [(3, 3, 10**30, 6), (4, 4, 10**30 + 2, 8)])
    def test_huge_coefficient_refused_not_trial_divided(self, capsys, a, b, c, branches):
        f, g = (f"z^{a} - {c}*w^{b} + {k}*w^{b + 1}" for k in (1, 2))
        with budget(2.0, AssertionError, "trial division ran past its 2 s budget"):
            code, out, err = run(capsys, "branches", f"({f})*({g})")
        assert (code, out) == (2, "")
        assert err == ("unsupported: trial factorization budget exceeded; "
                       "re-run with --factors supplying the irreducible factors\n")
        code, out, _ = run(capsys, "branches", "--factors", f"{f},{g}")
        assert code == 0 and f"branches = {branches}" in out

    def test_leading_minus_after_double_dash(self, capsys):
        # argparse reads a germ that starts with '-' and holds no space as an option
        assert run(capsys, "branches", "-z*w") == (1, "", "error: unrecognized arguments: -z*w\n")
        code, out, err = run(capsys, "branches", "--factors", "-z,w")
        assert (code, out) == (1, "") and "Traceback" not in err
        for argv in (("--", "-z*w"), ("--factors=-z,w",), ("--factors", "-z, w"),
                     ("-z*w + w^3",)):
            code, out, _ = run(capsys, "branches", *argv)
            assert code == 0 and "branches = 2" in out, argv

    def test_factors_fallback(self, capsys):
        code, out, _ = run(capsys, "branches",
                           "--factors", "z^7 - 2*w^7, w")
        assert code == 0
        assert "branches = 8" in out

    def test_factors_must_multiply_to_expression(self, capsys):
        code, _, err = run(capsys, "branches", "z*w + w^3",
                           "--factors", "z, w")
        assert code == 1
        assert "multiply" in err

    def test_factors_consistent_with_expression(self, capsys):
        code, out, _ = run(capsys, "branches", "z^2*w + w^3",
                           "--factors", "w, z^2 + w^2")
        assert code == 0
        assert "branches = 3" in out


class TestDocumentCommands:
    def test_curve_graph(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "c.json", {
            "kind": "curve",
            "graph": {"vertices": 1, "edges": [[0, 0]]}})
        code, out, _ = run(capsys, "curve", doc)
        assert code == 0
        assert "Betti number of the dual graph = 1" in out
        assert "K_-1 = Z" in out

    def test_curve_components(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "c.json", {
            "kind": "curve",
            "components": [{"irreducible_components": 4,
                            "branch_numbers": [4]}]})
        code, out, _ = run(capsys, "curve", doc)
        assert code == 0
        assert "K_-1 = 0" in out

    def test_quiver_command(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "t.json", {
            "kind": "quiver",
            "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]}})
        code, out, _ = run(capsys, "quiver", doc)
        assert code == 0
        assert "algebra dimension = 9" in out
        assert "relations" in out

    def test_threefold_with_matrix_file(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "x.json", {
            "kind": "threefold", "pic_rank": 1, "cl_rank": 2,
            "singularities": [{"germ": "z*w"}]})
        mat = tmp_path / "m.json"
        mat.write_text("[[1]]", encoding="utf-8")
        code, out, _ = run(capsys, "threefold", doc, "--matrix", str(mat))
        assert code == 0
        assert "maximally nonfactorial: yes" in out
        assert "enough Weil divisors: yes" in out

    def test_threefold_defect_input(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "x.json", {
            "kind": "threefold", "pic_rank": 1, "defect": 0,
            "singularities": [{"ade": ["A", 1]}]})
        code, out, _ = run(capsys, "threefold", doc)
        assert code == 0
        assert "rk K_-1 = 1" in out

    def test_surface_command(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "s.json", {
            "kind": "surface", "pic_rank": 1, "resolution_pic_rank": 2,
            "exceptional_components": 1})
        code, out, _ = run(capsys, "surface", doc)
        assert code == 0
        assert "rk K_-1 = 0" in out

    def test_blowup_command(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "b.json", {
            "kind": "blowup",
            "steps": [{"center": {"vertices": 1, "edges": [[0, 0], [0, 0], [0, 0]]}}]})
        code, out, _ = run(capsys, "blowup", doc)
        assert code == 0
        assert "OBSTRUCTED: rk K_-1 = 3" in out

    def test_decide_obstructed_format(self, capsys, tmp_path):
        # del Pezzo degree 3: rank 5 obstruction
        doc = write_doc(tmp_path, "d.json", {
            "kind": "threefold", "pic_rank": 1, "cl_rank": 6,
            "singularities": [{"branches": 2}] * 10})
        code, out, _ = run(capsys, "decide", doc)
        assert code == 0
        assert "decision: No" in out
        assert "OBSTRUCTED: rk K_-1 = 5" in out

    def test_decide_yes_includes_quiver(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "t.json", {
            "kind": "curve", "graph": {"vertices": 2, "edges": [[0, 1]]}})
        code, out, _ = run(capsys, "decide", doc)
        assert code == 0
        assert "certificate: BurbanTree" in out
        assert "a: 1 -> 2" in out
        assert "a·a* = 0" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "curve", "/nonexistent/x.json")
        assert code == 1
        assert "cannot read" in err


class TestUnreadableJson:
    """JSON the reader cannot take ends in exit code 1 and a message, never
    in a traceback."""

    def check(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    def test_deep_nesting_in_a_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        self.check(capsys, ["decide", str(path)],
                   f"{path}: JSON nested too deeply to read")

    def test_deep_nesting_on_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
        self.check(capsys, ["decide", "-"], "-: JSON nested too deeply to read")

    def test_deep_nesting_inline(self, capsys):
        self.check(capsys, ["snf", "[" * 100000],
                   "inline matrix: JSON nested too deeply to read")

    def test_threefold_matrix_file(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "x.json", {
            "kind": "threefold", "pic_rank": 1, "cl_rank": 2,
            "singularities": [{"germ": "z*w"}]})
        path = tmp_path / "m.json"
        path.write_text("[" * 100000, encoding="utf-8")
        self.check(capsys, ["threefold", doc, "--matrix", str(path)], "nested too deeply")

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "curve", "label": "\xe9"}')
        self.check(capsys, ["decide", str(path)], f"cannot read {path}")

    def test_integer_too_long(self, capsys):
        self.check(capsys, ["snf", "[[" + "9" * 5000 + "]]"], "invalid JSON")

    def test_kind_of_the_wrong_type(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "k.json", {"kind": ["curve"]})
        self.check(capsys, ["decide", doc], "kind: expected one of")


class TestSchemaValidation:
    def test_unknown_field_rejected_with_path(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "c.json", {
            "kind": "curve",
            "graph": {"vertices": 1, "edges": [], "genus": 2}})
        code, _, err = run(capsys, "curve", doc)
        assert code == 1
        assert "graph.genus" in err

    def test_bad_singularity_entry(self):
        with pytest.raises(SpecValidationError) as info:
            parse_spec_document({
                "kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                "singularities": [{"ade": ["A", 1]}, {"weird": 1}]})
        assert "singularities[1]" in str(info.value)

    def test_kind_required(self):
        with pytest.raises(SpecValidationError):
            parse_spec_document({"graph": {"vertices": 1}})

    def test_exactly_one_of_cl_rank_defect(self):
        with pytest.raises(SpecValidationError):
            parse_spec_document({
                "kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                "defect": 0, "singularities": []})

    def test_quiver_document_parses_as_curve(self):
        spec = parse_spec_document({
            "kind": "quiver", "graph": {"vertices": 1, "edges": []}})
        assert isinstance(spec, CurveSpec)

    def test_graph_edge_validation(self):
        with pytest.raises(SpecValidationError) as info:
            parse_spec_document({
                "kind": "curve", "graph": {"vertices": 1, "edges": [[0, 5]]}})
        assert "graph" in str(info.value)

    def test_graph_size_limit(self, capsys, tmp_path):
        # a 60-byte document must not buy unbounded time: vertex and edge
        # counts of curves and blow-up centres are capped
        limit = MAX_GRAPH_SIZE
        path = [[i, i + 1] for i in range(limit - 1)]
        ok = write_doc(tmp_path, "ok.json", {
            "kind": "curve", "graph": {"vertices": limit, "edges": path}})
        assert run(capsys, "--json", "decide", ok)[0] == 0
        for doc, field in [
                ({"kind": "curve", "graph": {"vertices": 200000}}, "graph.vertices"),
                ({"kind": "curve", "graph": {"vertices": 2,
                                             "edges": [[0, 1]] * (limit + 1)}}, "graph.edges"),
                ({"kind": "blowup", "steps": [{"center": {"vertices": limit + 1}}]},
                 "steps[0].center.vertices")]:
            code, out, err = run(capsys, "decide", write_doc(tmp_path, "big.json", doc))
            assert (code, out) == (1, "")
            assert err == f"error: {field}: expected at most {limit}\n"

    def test_germ_errors_name_their_field(self, capsys, tmp_path):
        hard = "(z^7 - 2*w^7)^2 + z^3*w^12"  # needs an uncertified extension
        loop = {"vertices": 1, "edges": [[0, 0]]}
        isolated = "branch counting requires an isolated germ"
        for doc, code, start in [
                ({"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                  "singularities": [{"ade": ["A", 1]}, {"germ": "z*w + w¹"}]},
                 1, "error: singularities[1].germ: unexpected character '¹' (line 1, column 8)"),
                ({"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                  "singularities": [{"germ": hard}]},
                 2, "unsupported: singularities[0].germ: "),
                ({"kind": "blowup", "steps": [{"center": loop}, {
                    "center": {"vertices": 2, "edges": [[0, 1], [0, 1]]},
                    "center_germs": ["z*w", "z^2"]}]},
                 1, f"error: steps[1].center_germs[1]: {isolated}"),
                ({"kind": "blowup", "steps": [{"center": loop, "center_germs": [hard]}]},
                 2, "unsupported: steps[0].center_germs[0]: ")]:
            result = run(capsys, "decide", write_doc(tmp_path, "doc.json", doc))
            assert result[:2] == (code, "") and result[2].startswith(start)


class TestTables:
    def test_delpezzo_rows(self, capsys):
        code, out, _ = run(capsys, "table", "delpezzo")
        assert code == 0
        for row in ("1 |    28 |      1 |     8 |      21 | No",
                    "5 |     3 |      1 |     4 |       0 | Unknown",
                    "6 |     1 |      2 |     3 |       0 | Yes"):
            assert row in out

    def test_ade_instantiation(self, capsys):
        code, out, _ = run(capsys, "table", "ade", "--k", "1..2")
        assert code == 0
        assert "A1" in out and "A4" in out and "D4" in out and "E8" in out
        assert "D5" not in out  # needs k >= 3

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "ade", "--k", "3..1")
        assert code == 1

    def test_ade_k_limit(self, capsys, monkeypatch):
        top = cli._MAX_ADE_K
        code, out, _ = run(capsys, "table", "ade", "--k", f"1..{top}")
        assert code == 0 and f"A{2 * top} " in out and f"A{2 * top + 1} " not in out
        monkeypatch.setattr(cli, "ade_labels", lambda k_values: pytest.fail("rows built"))
        for k in (f"{top + 1}", f"1..{top + 1}", f"{top}..{10 ** 30}"):
            code, out, err = run(capsys, "table", "ade", "--k", k)
            assert (code, out) == (1, "") and f"need M <= {top}" in err

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "--json", "table", "delpezzo")
        assert code == 0
        rows = json.loads(out)
        assert [r["k_rank"] for r in rows] == [21, 10, 5, 2, 0, 0]


class TestSnf:
    def test_inline_matrix(self, capsys):
        code, out, _ = run(capsys, "snf", "[[2,0],[0,3]]")
        assert code == 0
        assert "[1, 6]" in out
        assert "Z/6" in out

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[2,4],[6,8]]", encoding="utf-8")
        code, out, _ = run(capsys, "snf", str(path))
        assert code == 0
        assert "cokernel" in out

    def test_one_smith_form_per_matrix(self, capsys, monkeypatch):
        # the cokernel is read off the D that the report prints
        import kminusone.cli as cli

        calls = []

        def counted(m):
            calls.append(m)
            return smith_normal_form(m)

        monkeypatch.setattr(cli, "smith_normal_form", counted)
        code, out, _ = run(capsys, "--json", "snf", "[[2,4],[6,8]]")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["cokernel"] == {"rank": 0, "torsion": [2, 4]}
        code, out, _ = run(capsys, "snf", "[[0, 0], [3, 6], [0, 0]]")
        assert "cokernel Z^3/im(M) = Z^2 + Z/3" in out

    def test_entries_past_int_digit_limit(self, capsys):
        # U and V of this matrix grow past the digits Python prints an int with
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int-to-text limit in this interpreter")
        rng = random.Random(3)
        rows = [[rng.randint(-2 ** 62, 2 ** 62) for _ in range(9)] for _ in range(9)]
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *flags, "snf", json.dumps(rows))
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and f"more than {limit} digits" in err


# JSON-like values: any Unicode text (quotes, backslashes, control
# characters, lone surrogates), ints past 2^64, bools, None, lists, tuples
_json_text = st.text(st.characters(exclude_categories=())
                     | st.sampled_from('\u00b7"\\/\n\x00\x1f\x7f\ud800\udfff\U0001f600'))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | _json_text,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=20)


def _no_text(data):
    raise AssertionError("text formatted for a JSON report")


class TestEmitReport:
    def test_json_formats_no_text(self):
        assert emit_report(Report({"b": 1, "a": [2]}, _no_text), as_json=True) \
            == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}'

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_json_values)
    def test_json_is_json_dumps_byte_for_byte(self, data):
        assert emit_report(Report(data, _no_text), as_json=True) \
            == json.dumps(data, indent=2, sort_keys=True)

    def test_golden_json_is_json_dumps_form(self):
        # an oracle that does not run the writer: the recorded --json stdout
        cases = json.loads((ROOT / "tests/data/cli_golden.json").read_text(encoding="utf-8"))
        checked = 0
        for case in cases:
            if "--json" in case["argv"] and case["exit"] == 0 \
                    and "--help" not in case["argv"]:
                out = case["stdout"]
                assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
                checked += 1
        assert checked >= 80

    def test_unwritable_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            emit_report(Report({"a": [1.5]}, _no_text), as_json=True)

    def test_json_leaves_no_cyclic_garbage(self):
        report = Report({"a": [{"b": True, "c": None}, [], {}, (1, -2**70)],
                         "d": ["x", "\u00b7"]}, _no_text)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                emit_report(report, as_json=True)
            assert gc.collect() == 0  # json.dumps(indent=2) leaves 33 objects a call
        finally:
            gc.enable()

    def test_json_peak_memory_no_higher_than_json_dumps(self):
        q = burban_quiver(DualGraph(200, tuple(map(tuple, _large_tree_edges("path")))))
        data = render_quiver_report(q, algebra_basis(q)).data  # 26.8 MB of JSON
        peaks = []
        for emit in (lambda: json.dumps(data, indent=2, sort_keys=True),
                     lambda: emit_report(Report(data, _no_text), as_json=True)):
            tracemalloc.start()
            try:
                text = emit()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(text) > 20_000_000
            del text
        assert peaks[1] <= peaks[0]

    def test_closed_stdout_exits_one_without_traceback(self, tmp_path):
        doc = write_doc(tmp_path, "q.json", {
            "kind": "quiver", "graph": {"vertices": 120, "edges": _large_tree_edges("path")[:119]}})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from kminusone.cli import main; main()", "--json", "quiver", doc],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # the report is megabytes, far past any pipe buffer
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and b"BrokenPipe" not in err


def _large_tree_edges(shape):
    if shape == "path":
        return [[v - 1, v] for v in range(1, 200)]
    if shape == "star":
        return [[0, v] for v in range(1, 200)]
    rng = random.Random(2026)
    return [[rng.randrange(v), v] for v in range(1, 200)]


# sha256 of stdout for `quiver` and `--json quiver` on 200-vertex trees, whose
# reports (up to 26 MB) are far larger than any in the golden corpus
LARGE_QUIVER_DIGESTS = {
    ("path", False): "d17789a1e1ccd8f434b2794f6a2fbb799d19f7e106a3886e55d87c8d2f71a532",
    ("path", True): "39dd801c66bb8e0cd8eaa02852b0f91b84724838ee770d60971516f5ec6b74f9",
    ("star", False): "d26cf524e766a010ddb75c767758e3cd43d5f4b6e2db5ffd0b70ef8af5d19413",
    ("star", True): "cd3bda705915f52f41ba74e7a768cac3270d3194c3aa47f8c8b239139edb96fd",
    ("random", False): "8f2378448f2000ff34d60d494bc6a8915517810992fa384bd927276dbb76df4d",
    ("random", True): "e849417402954d9ba04114f69b3e8e1ce316c1f565017eebeaf523422a0ccd46",
}


@pytest.mark.parametrize("shape, as_json", list(LARGE_QUIVER_DIGESTS),
                         ids=[f"{s}-{'json' if j else 'text'}" for s, j in LARGE_QUIVER_DIGESTS])
def test_large_quiver_reports_are_pinned(capsys, tmp_path, shape, as_json):
    doc = write_doc(tmp_path, "tree.json", {
        "kind": "quiver", "graph": {"vertices": 200, "edges": _large_tree_edges(shape)}})
    code, out, err = run(capsys, *(["--json"] if as_json else []), "quiver", doc)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_QUIVER_DIGESTS[shape, as_json]


class TestGoldenStability:
    def test_json_output_byte_stable(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "c.json", {
            "kind": "curve",
            "graph": {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}})
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--json", "decide", doc)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert data["decision"] == "Yes"

    def test_bad_cli_args_exit_one(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1
