"""Alternating A/B pairs of the benchmark: a base commit against this checkout.

    python3 scripts/ab_pairs.py --base HEAD^ --pairs 10 --seed 3101
    python3 scripts/ab_pairs.py --base HEAD --workload germ-scan --seconds 30

The base commit (default HEAD^, the parent) is checked out with
`git worktree` into a temporary directory, removed afterwards.  For each
workload of BENCHMARK.json, pair i runs `bench/run.py --trace 0` with seed
SEED + i once in each tree, the base first in even pairs and second in odd
ones, so neither side always runs on a warmer machine.  The report gives, for each
end-to-end metric, both sides' medians and quartiles, the relative change
of the median, the pairs the change won, whether the median got worse by
more than the metric's bound, and the verdict on a claimed gain: won in at
least 9 of 10 pairs, and a median gap larger than the base's interquartile
range.  Failed shares and the oracle's `correct` flag are listed per run.
Standard library only; run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result line of one `bench/run.py --trace 0` run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(metric: dict, base: list, change: list) -> str:
    """One report line for one end-to-end metric over the pairs."""
    lower = metric["better"] == "lower"
    bq, cq = quartiles(base), quartiles(change)
    rel = cq[1] / bq[1] - 1 if bq[1] else 0.0
    won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    gap = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
    gain = won >= 0.9 * len(base) and gap > bq[2] - bq[0]
    worse = (rel if lower else -rel) > metric["bound"]
    return (f"  {metric['name']:<17} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {rel:+.1%}  "
            f"won {won}/{len(base)}  gap {gap:+.4g} vs base IQR {bq[2] - bq[0]:.4g}  "
            f"gain {'MET' if gain else 'not met'}"
            f"{'  WORSE THAN BOUND ' + format(metric['bound'], '.0%') if worse else ''}")


def compare(base_tree: Path, spec: dict, workloads: list, pairs: int, seed: int,
            seconds: int) -> dict:
    results = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                runs[side].append(bench_run(tree, workload, seed + i, seconds))
            b, c = runs["base"][-1], runs["change"][-1]
            print(f"{workload} pair {i + 1}/{pairs} seed {seed + i}: "
                  + "  ".join(f"{m['name']} {b['metrics'][m['name']]['value']:.4g}/"
                              f"{c['metrics'][m['name']]['value']:.4g}"
                              for m in spec["end_to_end"]), flush=True)
        results[workload] = runs
    return results


def report(results: dict, spec: dict) -> None:
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs['base'])} pairs (base/change), medians [quartiles]")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            print(summary(metric, base, change))
        for side, side_runs in runs.items():
            shares = [f"{r['failed'] / r['attempted']:.4f}" for r in side_runs]
            correct = all(r["correct"] for r in side_runs)
            print(f"  {side:<6} failed_share {' '.join(shares)}  correct {correct}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD^", help="base commit (default HEAD^)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
                       cwd=ROOT, check=True)
        try:
            print(f"base {args.base} against the checkout {ROOT}", flush=True)
            results = compare(base_tree, spec, args.workload or names, args.pairs, args.seed,
                              args.seconds)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT,
                           check=True)
    report(results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
