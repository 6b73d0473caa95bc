"""Golden command-line corpus: exit code, stdout and stderr of every
command, byte for byte.

The corpus covers every document command in text and --json over the demo
documents, the germ commands with and without --factors, snf inline and
from a file, 40 seeded snf matrices in text and --json, both tables,
every command's --help, and one rejected input for each validation and
input-error message of the CLI.  Cases with ``files`` run in a scratch
directory holding those files; the others run from the repository root,
so demo paths are relative and stable.

The fixture is regenerated only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from kminusone.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
DOC_COMMANDS = ("curve", "quiver", "threefold", "surface", "blowup", "decide")

# one rejected document per message; each is run through `decide`
REJECTED = [
    ["not an object", []],
    ["kind missing", {"graph": {"vertices": 1}}],
    ["kind unknown", {"kind": "fourfold"}],
    ["unknown top field", {"kind": "curve", "graph": {"vertices": 1}, "genus": 2}],
    ["required field", {"kind": "blowup"}],
    ["graph and components", {"kind": "curve", "graph": {"vertices": 1},
                              "components": []}],
    ["graph not object", {"kind": "curve", "graph": 5}],
    ["graph unknown field", {"kind": "curve",
                             "graph": {"vertices": 1, "edges": [], "genus": 2}}],
    ["vertices negative", {"kind": "curve", "graph": {"vertices": -1}}],
    ["vertices bool", {"kind": "curve", "graph": {"vertices": True}}],
    ["edges not list", {"kind": "curve", "graph": {"vertices": 1, "edges": 3}}],
    ["edge not pair", {"kind": "curve", "graph": {"vertices": 2, "edges": [[0]]}}],
    ["edge bool", {"kind": "curve", "graph": {"vertices": 2, "edges": [[0, True]]}}],
    ["edge out of range", {"kind": "curve", "graph": {"vertices": 1, "edges": [[0, 5]]}}],
    ["rational flags", {"kind": "curve", "graph": {"vertices": 1, "rational": [1]}}],
    ["smooth flags", {"kind": "curve", "graph": {"vertices": 1, "smooth_p1": "yes"}}],
    ["flag length", {"kind": "curve", "graph": {"vertices": 2, "rational": [True]}}],
    ["components empty", {"kind": "curve", "components": []}],
    ["component not object", {"kind": "curve", "components": [3]}],
    ["component count", {"kind": "curve", "components": [{"irreducible_components": 0}]}],
    ["component field", {"kind": "curve", "components": [
        {"irreducible_components": 1, "genus": 1}]}],
    ["branch numbers", {"kind": "curve", "components": [
        {"irreducible_components": 1, "branch_numbers": [0]}]}],
    ["branch numbers type", {"kind": "curve", "components": [
        {"irreducible_components": 1, "branch_numbers": 2}]}],
    ["cl and defect", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                       "defect": 0, "singularities": []}],
    ["neither cl nor defect", {"kind": "threefold", "pic_rank": 1,
                               "singularities": []}],
    ["pic rank type", {"kind": "threefold", "pic_rank": "1", "cl_rank": 1,
                       "singularities": []}],
    ["defect negative", {"kind": "threefold", "pic_rank": 1, "defect": -1,
                         "singularities": []}],
    ["singularities type", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                            "singularities": {}}],
    ["singularity two keys", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                              "singularities": [{"ade": ["A", 1], "branches": 2}]}],
    ["singularity not object", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                                "singularities": ["z*w"]}],
    ["singularity form", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                          "singularities": [{"ade": ["A", 1]}, {"weird": 1}]}],
    ["ade shape", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                   "singularities": [{"ade": ["D"]}]}],
    ["ade index bool", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                        "singularities": [{"ade": ["A", True]}]}],
    ["ade unknown", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                     "singularities": [{"ade": ["D", 3]}]}],
    ["germ type", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                   "singularities": [{"germ": 5}]}],
    ["germ syntax", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                     "singularities": [{"germ": "z^2 +"}]}],
    ["germ not isolated", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                           "singularities": [{"germ": "z^2"}]}],
    ["branches zero", {"kind": "threefold", "pic_rank": 1, "cl_rank": 1,
                       "singularities": [{"branches": 0}]}],
    ["label type", {"kind": "threefold", "label": 7, "pic_rank": 1, "cl_rank": 1,
                    "singularities": []}],
    ["cl below pic", {"kind": "threefold", "pic_rank": 2, "cl_rank": 1,
                      "singularities": []}],
    ["defect exceeds L", {"kind": "threefold", "pic_rank": 1, "cl_rank": 3,
                          "singularities": [{"branches": 2}]}],
    ["catalog mismatch", {"kind": "threefold", "label": "nodal-quadric",
                          "pic_rank": 2, "cl_rank": 3,
                          "singularities": [{"germ": "z*w"}]}],
    ["matrix not rows", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                         "singularities": [{"germ": "z*w"}], "matrix": [1]}],
    ["matrix entry", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                      "singularities": [{"germ": "z*w"}], "matrix": [[1.5]]}],
    ["matrix ragged", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                       "singularities": [{"germ": "z*w"}], "matrix": [[1], [1, 2]]}],
    ["matrix shape", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                      "singularities": [{"germ": "z*w"}], "matrix": [[1, 0]]}],
    ["matrix not injective", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                              "singularities": [{"germ": "z*w"}], "matrix": [[0]]}],
    ["toric type", {"kind": "surface", "pic_rank": 1, "resolution_pic_rank": 2,
                    "exceptional_components": 1, "toric_gorenstein": "yes"}],
    ["orders", {"kind": "surface", "pic_rank": 1, "resolution_pic_rank": 2,
                "exceptional_components": 1, "singularity_orders": [1]}],
    ["toric needs orders", {"kind": "surface", "pic_rank": 1,
                            "resolution_pic_rank": 2, "exceptional_components": 1,
                            "toric_gorenstein": True}],
    ["surface label", {"kind": "surface", "label": [], "pic_rank": 1,
                       "resolution_pic_rank": 2, "exceptional_components": 1}],
    ["surface required", {"kind": "surface", "pic_rank": 1, "resolution_pic_rank": 2}],
    ["surface negative", {"kind": "surface", "pic_rank": 3,
                          "resolution_pic_rank": 2, "exceptional_components": 0}],
    ["steps empty", {"kind": "blowup", "steps": []}],
    ["step not object", {"kind": "blowup", "steps": [1]}],
    ["step field", {"kind": "blowup", "steps": [{"center": {"vertices": 1},
                                                 "depth": 1}]}],
    ["center germs type", {"kind": "blowup", "steps": [
        {"center": {"vertices": 1, "edges": [[0, 0]]}, "center_germs": "z*w"}]}],
    ["center germ syntax", {"kind": "blowup", "steps": [
        {"center": {"vertices": 1, "edges": [[0, 0]]}, "center_germs": ["z*"]}]}],
    ["center germs empty", {"kind": "blowup", "steps": [
        {"center": {"vertices": 1, "edges": [[0, 0]]}, "center_germs": []}]}],
    ["center graph", {"kind": "blowup", "steps": [{"center": {"edges": []}}]}],
    ["rational flags empty", {"kind": "curve", "graph": {"vertices": 2, "edges": [[0, 1]],
                                                         "rational": []}}],
    ["smooth flags empty", {"kind": "curve", "graph": {"vertices": 2, "edges": [[0, 1]],
                                                       "smooth_p1": []}}],
    ["center flags empty", {"kind": "blowup", "steps": [
        {"center": {"vertices": 2, "edges": [[0, 1]], "rational": []}}]}],
]


def seeded_matrices(count=40, seed=505):
    """Distinct seeded snf inputs: row counts 0-7, small entries of both
    signs, rank-deficient products and entries up to 2^40."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = len(out)
        rows, cols = k if k < 8 else rng.randint(1, 7), rng.randint(0, 7)
        if k % 3 == 2 and rows and cols:  # a product through rank r < min(rows, cols)
            r = rng.randint(0, min(rows, cols) - 1)
            a = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(rows)]
            b = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(r)]
            m = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(cols)]
                 for i in range(rows)]
        else:
            bound = 2 ** 40 if k % 3 == 1 else 9
            m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if json.dumps(m) not in out:
            out.append(json.dumps(m))
    return out


def _write(files, name, doc):
    files[name] = json.dumps(doc)
    return name


def build_cases() -> list:
    """The corpus as (argv, files, stdin) records, in a fixed order."""
    cases = []

    def add(argv, files=None, stdin=None):
        cases.append({"argv": list(argv), "files": files or {}, "stdin": stdin})

    demos = sorted(f"demos/data/{p.name}" for p in (ROOT / "demos" / "data").glob("*.json"))
    for doc in demos:
        for command in DOC_COMMANDS:
            add([command, doc])
            add(["--json", command, doc])
    matrix = "demos/data/restriction_matrix_quadric.json"
    for doc in ("demos/data/threefold_factorial_cubic.json",
                "demos/data/threefold_nodal_quadric.json", matrix):
        add(["threefold", doc, "--matrix", matrix])
    files = {}
    _write(files, "x.json", {"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                             "singularities": [{"germ": "z*w"}]})
    _write(files, "m.json", [[1]])
    add(["threefold", "x.json", "--matrix", "m.json"], files)
    add(["threefold", "x.json", "--matrix", "m.json", "--json"], files)
    add(["threefold", "x.json", "--matrix", "missing.json"], files)
    add(["threefold", "m.json", "--matrix", "missing.json"], files)

    for argv in (["branches", "z^2*w + w^3"], ["branches", "z*w"],
                 ["branches", "z^2 - w^3"], ["branches", "(z+w)^2 - w^10001"],
                 ["branches", "(w" + "".join(f" - z^{i}" for i in range(1, 10)) + ")^2 - z^19"],
                 ["branches", "(z^7 - 2*w^7)^2 + z^3*w^12"],
                 ["branches", "--factors", "z^7 - 2*w^7, w"],
                 ["branches", "z^2*w + w^3", "--factors", "w, z^2 + w^2"],
                 ["classify", "z*w"], ["classify", "z^2*w + w^3"],
                 ["classify", "z^3 - w^4"], ["classify", "(z^7 - 2*w^7)^2 + z^3*w^12"],
                 ["classify", "--factors", "z^7 - 2*w^7, w"],
                 ["classify", "z*w", "--factors", "z, w"]):
        add(argv)
        add(argv + ["--json"])
    for argv in (["branches", "z*w + w^3", "--factors", "z, w"],
                 ["branches", "--factors", " , "], ["branches"], ["classify"],
                 ["branches", "z^2 +"], ["branches", "(" * 3000 + "z" + ")" * 3000],
                 ["branches", "z^2"], ["branches", "0"], ["branches", "1 + z"],
                 ["classify", "--factors", "z, z"], ["branches", "z^^2"]):
        add(argv)

    add(["snf", "[[2,0],[0,3]]"])
    add(["--json", "snf", "[[2,0],[0,3]]"])
    add(["snf", "[[2, 4, 4], [-6, 6, 12], [10, -4, -16]]", "--json"])
    add(["snf", "  []"])
    files = {}
    _write(files, "m.json", [[2, 4], [6, 8]])
    _write(files, "bad.json", [[1, 2], [3]])
    add(["snf", "m.json"], files)
    add(["snf", "m.json", "--json"], files)
    add(["snf", "bad.json"], files)
    add(["snf", matrix])
    for text in ("[[1, 2], [3]]", "[[true]]", "[1, 2]", "[[1,", "missing.json",
                 "{}"):
        add(["snf", text])
    for text in seeded_matrices():
        add(["snf", text])
        add(["--json", "snf", text])

    add(["table", "delpezzo"])
    add(["--json", "table", "delpezzo"])
    for k in ("1..3", "2", "1..1", "1000"):
        add(["table", "ade", "--k", k])
        add(["table", "ade", "--k", k, "--json"])
    add(["table", "ade"])
    for k in ("3..1", "0", "x", "1..y", "1..1001"):
        add(["table", "ade", "--k", k])
    add(["table", "e8"])

    for name, doc in REJECTED:
        files = {}
        add(["decide", _write(files, "doc.json", doc)], files)
    for command in DOC_COMMANDS:
        files = {}
        add([command, _write(files, "doc.json", {"kind": "curve"})], files)
    files = {"doc.json": "{\"kind\": \"curve\",", "empty.json": ""}
    add(["decide", "doc.json"], files)
    add(["decide", "empty.json"], files)
    add(["decide", "missing.json"])
    add(["decide", "demos"])
    add(["decide", "-"], stdin=json.dumps({"kind": "curve", "graph": {"vertices": 1}}))
    add(["--json", "decide", "-"], stdin=json.dumps({"kind": "quiver", "graph": {
        "vertices": 3, "edges": [[0, 1], [1, 2]]}}))
    add(["decide", "-"], stdin="not json")

    add([])
    add(["nonsense"])
    add(["decide"])
    add(["decide", "a.json", "b.json"])
    add(["--frobnicate", "table", "delpezzo"])
    add(["--help"])
    for command in ("branches", "classify", *DOC_COMMANDS, "snf", "table"):
        add([command, "--help"])
    return cases


def run_case(case, workdir):
    """Replay one case in workdir; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr, os.getcwd(), os.environ.get("COLUMNS")
    for name, text in case["files"].items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir if case["files"] else ROOT)
    sys.stdin = io.StringIO(case["stdin"] or "")
    sys.stdout, sys.stderr = out, err
    try:
        code = run_cli(case["argv"])
    except SystemExit as exc:  # --help
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved[:3]
        os.chdir(saved[3])
        if saved[4] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[4]
    return code, out.getvalue(), err.getvalue()


# a missing fixture leaves no cases, which the coverage test reports
CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_corpus_covers_every_case():
    recorded = [{k: c[k] for k in ("argv", "files", "stdin")} for c in CASES]
    assert recorded == build_cases()
    assert len(REJECTED) >= 15


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"])[:60])
def test_cli_output_is_byte_identical(case, tmp_path):
    assert run_case(case, tmp_path) == (case["exit"], case["stdout"], case["stderr"])


if __name__ == "__main__":
    import tempfile

    records = []
    for case in build_cases():
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err = run_case(case, workdir)
        records.append({**case, "exit": code, "stdout": out, "stderr": err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")
