"""Alternating A/B pairs of the benchmark: a base commit against this checkout.

    python3 scripts/ab_pairs.py --base HEAD^ --pairs 10 --seed 3101
    python3 scripts/ab_pairs.py --base HEAD --workload germ-scan --seconds 30
    python3 scripts/ab_pairs.py --workload spec-batch --out results.json

The base commit (default HEAD^, the parent) and the checkout are each
exported with `git archive` into a sibling temporary directory, removed
afterwards: the checkout as its tracked files with their uncommitted edits
(`git stash create`, which leaves the checkout and the stash list as they
are), so that both sides run from trees made the same way and at the same
depth, and neither from the checkout itself.  For each workload of
BENCHMARK.json, pair i runs `bench/run.py --trace 0` with seed SEED + i
once in each tree, the base first in even pairs and second in odd ones, so
neither side always runs on a warmer machine.  The report gives, for each
end-to-end metric, both sides' medians and quartiles, the relative change
of the median, the pairs the change won, whether the median got worse by
more than the metric's bound, and the verdict on a claimed gain: won in at
least 9 of 10 pairs, and a median gap larger than the base's interquartile
range.  Then, for each input family, the median over the runs of the
family's median latency on both sides, and its relative change, which shows
where a gain lands.  Failed shares and the oracle's `correct` flag are
listed per run.  The line count of src/kminusone/*.py in each tree, the
size that ROADMAP.md tracks, is printed first, with the count of each module.
With --out, every run (seed, result line, family medians), the per-metric
summaries, both line counts, both per-module counts and the machine are
written to a JSON file.
Standard library only; run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# bench/run.py prints one such line per input family
FAMILY = re.compile(r"family (\S+): \d+ ops, median ([0-9.]+) ms")


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `bench/run.py --trace 0` run in tree: its seed, its JSON result
    line and the median latency of each input family in ms."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    families = {m[1]: float(m[2]) for m in map(FAMILY.match, lines) if m}
    return {"seed": seed, "result": json.loads(lines[-1]), "family_median_ms": families}


def src_files(tree: Path) -> dict:
    """Lines of each src/kminusone/*.py in tree by file name, counted as
    `wc -l` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((tree / "src" / "kminusone").glob("*.py"))}


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(metric: dict, base: list, change: list) -> dict:
    """Medians, quartiles, pairs won, bound check and gain verdict of one
    end-to-end metric over the pairs."""
    lower = metric["better"] == "lower"
    bq, cq = quartiles(base), quartiles(change)
    rel = cq[1] / bq[1] - 1 if bq[1] else 0.0
    gap = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
    won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    return {"base": bq, "change": cq, "relative_change": rel, "won": won, "pairs": len(base),
            "gap": gap, "base_iqr": bq[2] - bq[0],
            "worse_than_bound": (rel if lower else -rel) > metric["bound"],
            "gain_met": won >= 0.9 * len(base) and gap > bq[2] - bq[0]}


def summary_line(metric: dict, s: dict) -> str:
    bq, cq = s["base"], s["change"]
    return (f"  {metric['name']:<17} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {s['relative_change']:+.1%}  "
            f"won {s['won']}/{s['pairs']}  gap {s['gap']:+.4g} vs base IQR {s['base_iqr']:.4g}  "
            f"gain {'MET' if s['gain_met'] else 'not met'}"
            + (f"  WORSE THAN BOUND {metric['bound']:.0%}" if s["worse_than_bound"] else ""))


def family_medians(runs: dict) -> dict:
    """For each family, the median over each side's runs of its median
    latency in ms, and the relative change."""
    out = {}
    for family in sorted({f for r in runs["base"] for f in r["family_median_ms"]}):
        b, c = (statistics.median(r["family_median_ms"][family] for r in runs[side]
                                  if family in r["family_median_ms"])
                for side in ("base", "change"))
        out[family] = {"base_ms": b, "change_ms": c, "relative_change": c / b - 1 if b else 0.0}
    return out


def compare(trees: dict, spec: dict, workloads: list, pairs: int, seed: int,
            seconds: int) -> dict:
    results = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(bench_run(trees[side], workload, seed + i, seconds))
            b, c = runs["base"][-1]["result"], runs["change"][-1]["result"]
            print(f"{workload} pair {i + 1}/{pairs} seed {seed + i}: "
                  + "  ".join(f"{m['name']} {b['metrics'][m['name']]['value']:.4g}/"
                              f"{c['metrics'][m['name']]['value']:.4g}"
                              for m in spec["end_to_end"]), flush=True)
        results[workload] = runs
    return results


def report(results: dict, spec: dict) -> dict:
    """Print the report; return, per workload, its runs, metric summaries
    and family medians."""
    out = {}
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs['base'])} pairs (base/change), medians [quartiles]")
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = ([r["result"]["metrics"][name]["value"] for r in runs[side]]
                            for side in ("base", "change"))
            metrics[name] = summary(metric, base, change)
            print(summary_line(metric, metrics[name]))
        families = family_medians(runs)
        for family, f in families.items():
            print(f"  family {family:<15} median base {f['base_ms']:.4g} ms  "
                  f"change {f['change_ms']:.4g} ms  {f['relative_change']:+.1%}")
        for side, side_runs in runs.items():
            shares = [f"{r['result']['failed'] / r['result']['attempted']:.4f}" for r in side_runs]
            correct = all(r["result"]["correct"] for r in side_runs)
            print(f"  {side:<6} failed_share {' '.join(shares)}  correct {correct}")
        out[workload] = {"runs": runs, "metrics": metrics, "families": families}
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, tree: Path) -> None:
    """The files of commit, as `git archive` writes them, into tree."""
    tree.mkdir()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"git archive {commit} exited {archive.returncode}")


def machine() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cpu_count": os.cpu_count(), "cpu_affinity": affinity,
            "platform": platform.platform(), "python": sys.version}


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
    parser.add_argument("--out", type=Path,
                        help="write every run, the summaries and the machine to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    # a commit of the tracked files as they are in the checkout; none when
    # nothing is edited
    change_commit = git("stash", "create") or git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        export(base_commit, trees["base"])
        export(change_commit, trees["change"])
        print(f"base {args.base} ({base_commit[:12]}) against the checkout {ROOT}, "
              f"exported as {change_commit[:12]}", flush=True)
        files = {side: src_files(tree) for side, tree in trees.items()}
        lines = {side: sum(counts.values()) for side, counts in files.items()}
        print(f"src/kminusone/*.py: base {lines['base']} lines, change {lines['change']} "
              f"({lines['change'] - lines['base']:+d})", flush=True)
        for name in sorted(files["base"].keys() | files["change"].keys()):
            b, c = files["base"].get(name, 0), files["change"].get(name, 0)
            print(f"  {name:<16} base {b:5d}  change {c:5d}  ({c - b:+d})", flush=True)
        results = compare(trees, spec, args.workload or names, args.pairs, args.seed,
                          args.seconds)
    workloads = report(results, spec)
    if args.out:
        record = {"base": {"rev": args.base, "commit": base_commit,
                           "src_lines": lines["base"], "src_files": files["base"]},
                  "change": {"head": git("rev-parse", "HEAD"), "exported": change_commit,
                             "uncommitted_changes": bool(git("status", "--porcelain")),
                             "src_lines": lines["change"], "src_files": files["change"]},
                  "pairs": args.pairs, "first_seed": args.seed, "seconds": args.seconds,
                  "machine": machine(), "workloads": workloads}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
