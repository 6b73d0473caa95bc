"""Property test over run_cli: random spec documents, built from the real
field names with wrong types, extra keys and nesting, and every sample
text as a germ, never make the CLI escape with an exception; every run
ends in exit code 0, 1 or 2."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kminusone.cli import run_cli

KINDS = ["curve", "quiver", "threefold", "surface", "blowup"]
FIELDS = [
    "kind", "graph", "components", "vertices", "edges", "rational", "smooth_p1",
    "irreducible_components", "branch_numbers", "label", "pic_rank", "cl_rank",
    "defect", "singularities", "matrix", "ade", "germ", "branches",
    "resolution_pic_rank", "exceptional_components", "toric_gorenstein",
    "singularity_orders", "steps", "center", "center_germs", "genus",
]
# cheap germs only: the property is about validation, not branch counting
TEXTS = KINDS + ["z*w", "z^2 - w^3", "z^2*w + w^3", "z^2", "z^2 +", "z²", "0", "A",
                 "z^4/2 - w^3", "z^1/1",  # exponents written as fractions
                 "D", "E", "nodal-quadric", "kawamata-p2p2", "",
                 "1" * 5000 + "*z*w",  # past Python's int-from-text limit
                 "(2^16000)^16000*z*w",  # past the coefficient limit
                 # a sum past it: 60 distinct 4,000-digit denominators
                 " + ".join(f"1/{10 ** 3999 + k}" for k in range(60)) + " + z*w"]

LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 9),
                   st.sampled_from(TEXTS), st.just(1.5))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4)),
    max_leaves=12)

# valid documents of every kind, which the mutations below take apart
SEEDS = [
    {"kind": "curve", "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]}},
    {"kind": "curve", "graph": {"vertices": 2, "edges": [[0, 1], [1, 1]],
                                "rational": [True, False]}},
    {"kind": "curve", "components": [{"irreducible_components": 2,
                                      "branch_numbers": [2, 3]}]},
    {"kind": "quiver", "graph": {"vertices": 2, "edges": [[0, 1]]}},
    {"kind": "threefold", "label": "nodal-quadric", "pic_rank": 1, "cl_rank": 2,
     "singularities": [{"germ": "z*w"}], "matrix": [[1]]},
    {"kind": "threefold", "pic_rank": 1, "defect": 1,
     "singularities": [{"ade": ["A", 1]}, {"branches": 2}]},
    {"kind": "surface", "pic_rank": 1, "resolution_pic_rank": 3,
     "exceptional_components": 2, "toric_gorenstein": True,
     "singularity_orders": [2, 3], "matrix": [[1, 0, 0], [0, 1, 0]]},
    {"kind": "blowup", "steps": [{"center": {"vertices": 2, "edges": [[0, 1]]},
                                  "center_germs": ["z*w"]}]},
]


def _chance(draw, n):
    """True about once in n draws."""
    return draw(st.integers(1, n)) == n


def _mutate(doc, draw):
    """doc with some of its values replaced, keys dropped or added."""
    if isinstance(doc, dict):
        doc = {k: _mutate(v, draw) for k, v in doc.items() if not _chance(draw, 10)}
        if _chance(draw, 4):
            doc[draw(st.sampled_from(FIELDS))] = draw(VALUES)
        return doc
    if isinstance(doc, list):
        return [_mutate(v, draw) for v in doc]
    return draw(VALUES) if _chance(draw, 4) else doc


@st.composite
def documents(draw):
    seed = draw(st.sampled_from(SEEDS))
    if _chance(draw, 4):
        doc = draw(st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=5))
    else:
        doc = _mutate(seed, draw)
    if not _chance(draw, 5):
        doc["kind"] = seed["kind"]  # most documents keep to a real schema
    return doc


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(["decide", *KINDS]), st.booleans())
def test_run_cli_exits_cleanly_on_any_document(doc, command, as_json):
    _check_clean(_run([command, "-"] + ["--json"] * as_json, json.dumps(doc)), as_json)


@pytest.mark.parametrize("text", TEXTS,
                         ids=lambda t: t if len(t) < 40 else f"{t[:4]}...{t[-4:]}")
def test_run_cli_exits_cleanly_on_any_germ_text(text):
    # each text as a germ argument, a singularity germ and a centre germ
    _check_clean(_run(["--json", "branches", text], ""), True)
    for doc in ({"kind": "threefold", "pic_rank": 1, "cl_rank": 2,
                 "singularities": [{"germ": text}]},
                {"kind": "blowup", "steps": [{"center": {"vertices": 1, "edges": [[0, 0]]},
                                              "center_germs": [text]}]}):
        _check_clean(_run(["--json", "decide", "-"], json.dumps(doc)), True)


def _check_clean(result, as_json):
    code, out, err = result
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if as_json:
            json.loads(out)
    else:
        assert out == "" and err.startswith(("error: ", "unsupported: "))
