"""The input collector of scripts/same_outputs.py: what it gathers from each
source, and that its digest is a function of the seeds.  No tree is
exported and nothing is run here."""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import same_outputs  # noqa: E402


def test_each_source_yields_its_inputs():
    inputs = same_outputs.collect(seeds=[1])
    counts = Counter(i["source"] for i in inputs)
    demos = len(list((ROOT / "demos" / "data").glob("*.json")))
    assert counts["demos"] == 3 * demos == 30
    assert counts["spec-batch"] == 1085  # one pass of the workload
    assert counts["golden"] >= 140
    assert all(i["argv"].count("--json") == 1 for i in inputs)
    assert {next(a for a in i["argv"] if a != "--json") for i in inputs} \
        == set(same_outputs.COMMANDS)
    # every file an input names travels with it, but for the golden cases
    # of a missing file and of one argument too many
    absent = [i["argv"] for i in inputs
              if any(a.endswith(".json") and a not in i["files"] for a in i["argv"])]
    assert len(absent) == 4 and all("missing.json" in a or "b.json" in a for a in absent)


def test_the_same_seeds_give_the_same_digest():
    digest = same_outputs.digest
    assert digest(same_outputs.collect(seeds=[1])) == digest(same_outputs.collect(seeds=[1]))
    assert digest(same_outputs.collect(seeds=[1])) != digest(same_outputs.collect(seeds=[2]))
