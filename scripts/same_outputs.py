"""Same outputs: a corpus of spec documents through `kminusone` with `--json`,
in a base commit and in this checkout, compared byte for byte.

    python3 scripts/same_outputs.py --base HEAD
    python3 scripts/same_outputs.py --base HEAD^ --seeds 1..3

The corpus (`collect`) has three sources:

- golden: every `decide`, `threefold` and `quiver` case of
  tests/data/cli_golden.json, with `--json` added where it is missing;
- demos: each document of demos/data under each of those three commands;
- spec-batch: the operations of the spec-batch workload of
  bench/workloads.py (imported, not modified), seeds 1..10 by default.

Each input is self-contained: its argv, the files it reads by relative path
with their text, and its stdin, so the corpus and its digest do not depend
on the tree that runs it.  The base commit and the checkout (its tracked
files with their uncommitted edits, through `git stash create`) are each
exported with `git archive` into a temporary directory, as
scripts/ab_pairs.py exports them.  One child process per tree imports
kminusone from that tree's src/ and runs every input through
`kminusone.cli.run_cli` in turn, as a batch runs in one process, each in a
fresh working directory under a per-input alarm.  Every difference in exit
code, stdout or stderr is printed, then one summary line; the exit code is
1 when any input differs.  Standard library only; run it from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import export, git

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("decide", "threefold", "quiver")
SOURCES = ("golden", "demos", "spec-batch")
ALARM_S = 60


class Overrun(Exception):
    """An input ran past ALARM_S seconds."""


def _input(source: str, argv, files=None, stdin=None) -> dict:
    return {"source": source, "argv": list(argv), "files": dict(files or {}), "stdin": stdin}


def collect(seeds=range(1, 11)) -> list:
    """The inputs, in a fixed order: golden cases, demo documents, then the
    spec-batch operations of each seed."""
    inputs, seen = [], set()
    for case in json.loads((ROOT / "tests/data/cli_golden.json").read_text(encoding="utf-8")):
        argv = case["argv"] + ([] if "--json" in case["argv"] else ["--json"])
        if next((a for a in argv if a != "--json"), None) not in COMMANDS:
            continue
        files = dict(case["files"])
        for arg in argv:
            if arg.startswith("demos/") and (ROOT / arg).is_file():
                files[arg] = (ROOT / arg).read_text(encoding="utf-8")
        key = json.dumps([argv, files, case["stdin"]], sort_keys=True)
        if key not in seen:  # the text and --json cases of one document
            seen.add(key)
            inputs.append(_input("golden", argv, files, case["stdin"]))
    for path in sorted((ROOT / "demos" / "data").glob("*.json")):
        for command in COMMANDS:
            inputs.append(_input("demos", [command, path.name, "--json"],
                                 {path.name: path.read_text(encoding="utf-8")}))
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for seed in seeds:
        for op in workloads.generate("spec-batch", seed):
            inputs.append(_input("spec-batch", [op["kind"], "doc.json", "--json"],
                                 {"doc.json": op["input"]}))
    return inputs


def digest(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _on_alarm(signum, frame):
    raise Overrun


def run_inputs(src: Path, inputs_file: Path, results_file: Path) -> None:
    """The child: every input through run_cli from src, one JSON line
    [exit code, stdout, stderr] each, written to results_file."""
    sys.path.insert(0, str(src))
    import kminusone.cli
    if not Path(kminusone.cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"imported kminusone from {kminusone.cli.__file__}, not from {src}")
    os.environ["COLUMNS"] = "80"  # argparse's help width
    signal.signal(signal.SIGALRM, _on_alarm)
    inputs = json.loads(inputs_file.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp, \
            results_file.open("w", encoding="utf-8") as results:
        for i, item in enumerate(inputs):
            work = Path(tmp) / str(i)
            for name, text in item["files"].items():
                (work / name).parent.mkdir(parents=True, exist_ok=True)
                (work / name).write_text(text, encoding="utf-8")
            work.mkdir(exist_ok=True)
            os.chdir(work)
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(item["stdin"] or "")
            signal.alarm(ALARM_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = kminusone.cli.run_cli(item["argv"])
            except Overrun:
                code = "timeout"
            except Exception as exc:  # run_cli should never raise: record it and go on
                code = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.alarm(0)
                os.chdir(tmp)
                shutil.rmtree(work)
            results.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\n")


def run_tree(tree: Path, inputs_file: Path, results_file: Path) -> None:
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(tree / "src"),
            str(inputs_file), str(results_file)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"the run in {tree} exited {proc.returncode}:\n{proc.stderr}")


def first_difference(a: str, b: str) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(a_lines, b_lines), 1):
        if x != y:
            return f"line {n}: base {x!r}, change {y!r}"
    n = min(len(a_lines), len(b_lines))
    return f"after line {n}: base has {len(a_lines)} lines, change {len(b_lines)}"


def compare(inputs, base_file: Path, change_file: Path) -> int:
    """Print every input whose exit code, stdout or stderr differs; return
    their number."""
    differ = 0
    with base_file.open(encoding="utf-8") as base, change_file.open(encoding="utf-8") as change:
        for item, b, c in zip(inputs, map(json.loads, base), map(json.loads, change)):
            if b == c:
                continue
            differ += 1
            print(f"DIFFERS {item['source']}: kminusone {' '.join(item['argv'])}")
            if b[0] != c[0]:
                print(f"  exit code: base {b[0]}, change {c[0]}")
            for name, x, y in (("stdout", b[1], c[1]), ("stderr", b[2], c[2])):
                if x != y:
                    print(f"  {name} {first_difference(x, y)}")
    return differ


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:
        run_inputs(*map(Path, argv[1:4]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 11),
                        help="spec-batch seeds, N or N..M (default 1..10)")
    args = parser.parse_args(argv)
    inputs = collect(args.seeds)
    counts = {s: sum(i["source"] == s for i in inputs) for s in SOURCES}
    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    change_commit = git("stash", "create") or git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        for side, commit in (("base", base_commit), ("change", change_commit)):
            export(commit, tmp / side)
            run_tree(tmp / side, tmp / "inputs.json", tmp / f"{side}.jsonl")
        differ = compare(inputs, tmp / "base.jsonl", tmp / "change.jsonl")
    print(f"same_outputs: {len(inputs)} inputs ("
          + ", ".join(f"{s} {n}" for s, n in counts.items())
          + f"; seeds {args.seeds.start}..{args.seeds.stop - 1}; {digest(inputs)[:19]}), "
          f"base {args.base} ({base_commit[:12]}) against the checkout "
          f"({change_commit[:12]}): {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
