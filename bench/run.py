"""Benchmark of kminusone: three seeded workloads, measured end to end, and a
separate traced run that breaks the time down by layer.

Run it from the root of a checkout:

    python3 bench/run.py --workload germ-scan --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md):
  germ-scan   germ text -> parse_polynomial -> branch_count -> JSON report,
              in one process
  spec-batch  JSON spec document -> parse_spec_document -> decide (or the
              quiver / threefold report) -> JSON report, in one process
  cli-cold    one fresh interpreter per `kminusone` command line

Every operation's output is checked against an expectation computed by
bench/workloads.py without the package.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics, taken
with timing wrappers installed on alternate passes.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
if __name__ == "__main__":
    # bytecode goes to one cache inside the checkout, for this process and
    # its children alike
    sys.pycache_prefix = str(PYCACHE)

import tracing  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 3.0       # per in-process operation (SIGALRM)
CLI_TIMEOUT_S = 10.0     # per cli-cold process, killed beyond it
WARM_UP_TIMEOUT_S = 1.0  # per operation of the unrecorded warm-up pass
SETUP_PROBES = 15        # fresh interpreters timed for setup_s
MIN_SAMPLES = 110        # leaves at least ten samples beyond p90
HARD_LIMIT_S = 150.0     # no operation starts after this much warm-up and measuring
CPU_SLICE_S = 0.1        # least time on one CPU before the next operation moves on

PROBE = ("import time; t0 = time.perf_counter(); import kminusone, kminusone.cli; "
         "t1 = time.perf_counter(); print(t0, t1, kminusone.__file__)")
CLI_MAIN = "from kminusone.cli import main; main()"
END_TO_END = ("throughput_ops_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
MODULES = ("parsing", "germs", "exact", "quiver", "varieties", "verdicts", "cli")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation; a BaseException so that no
    handler in the package can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def matches(out, expect) -> bool:
    """Whether ``out`` contains the partial report ``expect``; None in a
    dict means the key is absent (or null)."""
    if isinstance(expect, dict):
        if not isinstance(out, dict):
            return False
        for key, value in expect.items():
            if value is None:
                if out.get(key) is not None:
                    return False
            elif key not in out or not matches(out[key], value):
                return False
        return True
    if isinstance(expect, list):
        return (isinstance(out, list) and len(out) == len(expect)
                and all(matches(o, e) for o, e in zip(out, expect)))
    return out == expect


def judge(expect: dict, report, error):
    """(status, detail) of one operation: ok, timeout, error (an exception
    the input does not expect) or wrong (disagrees with the oracle)."""
    if error == "timeout":
        return "timeout", f"no result within {OP_TIMEOUT_S:g} s"
    if "error" in expect:
        if error == expect["error"]:
            return "ok", ""
        if error is None:
            return "wrong", f"expected {expect['error']}, got {report}"
        return "error", f"expected {expect['error']}, raised {error}"
    if error is not None:
        return "error", f"raised {error}"
    out = json.loads(report)
    if matches(out, expect):
        return "ok", ""
    return "wrong", f"expected {json.dumps(expect)}, got {report}"


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

class CpuRotation:
    """Moves this process, and with it the children it starts, round-robin
    over the CPUs it may use, between operations and at most once per
    CPU_SLICE_S.

    On a shared host the speed of each CPU drifts by itself, by up to a
    half for tens of seconds at a time.  A run that stays where the
    scheduler put it takes the drift of one CPU; a run spread over all of
    them takes its mean, which moves less from run to run."""

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.next = 0
        self.moved = -math.inf

    def tick(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.moved < CPU_SLICE_S:
            return
        try:
            os.sched_setaffinity(0, {self.cpus[self.next]})
        except OSError:
            self.cpus = []
            return
        self.next = (self.next + 1) % len(self.cpus)
        self.moved = now


ROTATION = CpuRotation()


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(PYCACHE), **extra)
    return env


def _checked_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: imported kminusone from {path}, not from {ROOT / 'src'}")


def measure_setup() -> dict:
    """Warm the bytecode cache, then time `import kminusone` up to a usable
    CLI module in SETUP_PROBES fresh interpreters."""
    env = child_env()
    subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                   capture_output=True, timeout=120)
    setup, interpreter = [], []
    for _ in range(SETUP_PROBES):
        ROTATION.tick()
        spawned = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        t0, t1, origin = proc.stdout.split()
        _checked_origin(origin)
        setup.append(float(t1) - float(t0))
        interpreter.append(float(t0) - spawned)
    setup_s = percentile(sorted(setup), 0.5, 0.1)
    return {"setup_s": setup_s, "import_ms": setup_s * 1000,
            "interpreter_ms": percentile(sorted(interpreter), 0.5, 0.1) * 1000}


def load_package() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    package = importlib.import_module("kminusone")
    _checked_origin(package.__file__)
    return SimpleNamespace(**{m: importlib.import_module(f"kminusone.{m}")
                              for m in MODULES})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------
# Functions are looked up on their modules at call time, so that the traced
# run sees the wrapped ones.

def germ_report(km, op) -> str:
    if op["kind"] == "germ":
        text = op["input"]
        rep = km.germs.branch_count(km.parsing.parse_polynomial(text))
    else:
        factors = [km.parsing.parse_polynomial(t) for t in op["input"]]
        rep = km.germs.branch_count_factored(factors)
        text = " * ".join(f"({t})" for t in op["input"])
    return km.cli.emit_report(km.cli.render_branch_report(rep, text), as_json=True)


def spec_report(km, op) -> str:
    spec = km.cli.parse_spec_document(json.loads(op["input"]))
    if op["kind"] == "quiver":
        q = km.quiver.burban_quiver(spec.graph)
        report = km.cli.render_quiver_report(q, km.quiver.algebra_basis(q))
    elif op["kind"] == "threefold":
        report = km.cli.render_global_report(km.varieties.threefold_invariants(spec), spec)
    else:
        report = km.cli.render_verdict(km.verdicts.decide(spec))
    return km.cli.emit_report(report, as_json=True)


class InProcess:
    """Runs germ-scan or spec-batch operations in this process, one at a
    time, each under a SIGALRM timeout."""

    def __init__(self, workload: str, tracer):
        self.km = load_package()
        self.report = germ_report if workload == "germ-scan" else spec_report
        self.tracer = tracer
        self.timeout = OP_TIMEOUT_S
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, index: int, op):
        self.tracer.op = index
        report = error = None
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        start = time.perf_counter()
        try:
            try:
                report = self.report(self.km, op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = "timeout"
        except Exception as exc:  # the outcome of the operation, judged below
            error = type(exc).__name__
        latency = time.perf_counter() - start
        return (latency, *judge(op["expect"], report, error))

    def set_traced(self, traced: bool):
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli:
    """Runs each cli-cold command line in a fresh interpreter, one at a
    time; a process that outlives CLI_TIMEOUT_S is killed."""

    def __init__(self, ops, seed: int, tracer):
        self.work = BUILD / "work" / f"cli-cold-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        for op in ops:
            for name, text in op["input"]["files"].items():
                (self.work / name).write_text(text, encoding="utf-8")
        self.trace_file = self.work / "child-trace.json"
        self.tracer = tracer
        self.timeout = CLI_TIMEOUT_S
        self.traced = False
        self.interpreter_ms, self.import_ms = [], []

    def run(self, index: int, op):
        argv = [str(self.work / a[1:]) if a.startswith("@") else a
                for a in op["input"]["argv"]]
        if self.traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
            env = child_env(KMINUSONE_BENCH_TRACE_OUT=str(self.trace_file))
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
            env = child_env()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return (time.perf_counter() - start, "timeout",
                    f"killed after {self.timeout:g} s")
        latency = time.perf_counter() - start
        if self.traced:
            self._collect(index, start)
        return (latency, *self._judge(op["expect"], proc))

    def _judge(self, expect, proc):
        if "Traceback" in proc.stderr:
            return "error", proc.stderr.strip().splitlines()[-1]
        if proc.returncode != expect["exit"]:
            return "error", f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        if expect["fields"] is None:
            return "ok", ""
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return "wrong", f"not JSON: {proc.stdout[:200]}"
        if matches(out, expect["fields"]):
            return "ok", ""
        return "wrong", f"expected {json.dumps(expect['fields'])}, got {proc.stdout[:400]}"

    def _collect(self, index: int, spawned: float):
        data = json.loads(self.trace_file.read_text(encoding="utf-8"))
        self.trace_file.unlink()
        self.interpreter_ms.append((data["t_start"] - spawned) * 1000)
        self.import_ms.append((data["t_imported"] - data["t_start"]) * 1000)
        offset = len(self.tracer.spans)
        for name, start, end, parent, _, raised in data["spans"]:
            self.tracer.spans.append((name, start, end,
                                      None if parent is None else parent + offset,
                                      index, raised))
        for key, value in data["stats"].items():
            self.tracer.add_stat(key, value)

    def set_traced(self, traced: bool):
        self.traced = traced

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(runner, ops, records, deadline):
    """Runs ``ops`` in order, stopping early once ``deadline`` has passed
    (after at least one operation); returns the wall time."""
    start = time.perf_counter()
    for index, op in enumerate(ops):
        ROTATION.tick()
        latency, status, detail = runner.run(index, op)
        records.append((op, latency, status, detail))
        if time.perf_counter() > deadline:
            break
    return time.perf_counter() - start


def warm_up(runner, ops, deadline):
    """One unrecorded pass, with a short timeout: the first pass over the
    inputs runs slower (the heap grows, code paths run for the first time),
    and a batch user pays that once per process."""
    full, runner.timeout = runner.timeout, WARM_UP_TIMEOUT_S
    try:
        run_pass(runner, ops, [], deadline)
    finally:
        runner.timeout = full


def measure(runner, ops, seconds: int):
    """Whole passes over ``ops`` after a warm-up pass, as many as fill about
    ``seconds`` and give at least MIN_SAMPLES operations; returns (records,
    passes)."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    warm_up(runner, ops, deadline)
    records = []
    passes = target = 0
    while passes == 0 or (passes < target and time.perf_counter() < deadline):
        wall = run_pass(runner, ops, records, deadline)
        passes += 1
        if passes == 1:
            target = max(round(seconds / wall), math.ceil(MIN_SAMPLES / len(ops)))
    return records, passes


def measure_traced(runner, ops, seconds: int):
    """Pairs of one untraced and one traced pass after a warm-up pass,
    alternating which goes first; returns (all records, untraced busy s,
    traced busy s, pairs)."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    warm_up(runner, ops, deadline)
    records = []
    busy = {False: 0.0, True: 0.0}
    pairs = target = 0
    while pairs == 0 or (pairs < target and time.perf_counter() < deadline):
        start = time.perf_counter()
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            runner.set_traced(traced)
            try:
                before = len(records)
                run_pass(runner, ops, records, deadline)
            finally:
                runner.set_traced(False)
            busy[traced] += sum(r[1] for r in records[before:])
        pairs += 1
        if pairs == 1:
            target = round(seconds / (time.perf_counter() - start))
    return records, busy[False], busy[True], pairs


def percentile(sorted_values, q: float, half_width: float) -> float:
    """The q-th percentile of positive samples, as the geometric mean of
    the samples whose nearest rank lies within ``half_width`` of q.

    Latencies here spread over decades, and the log of a latency is close
    to linear in its rank, so this estimates the order statistic at q.
    Unlike a single order statistic it does not jump across the gaps of a
    heavy-tailed mix or between the modes of process start-up, and it
    averages out the noise of single samples."""
    n = len(sorted_values)
    lo = max(0, math.ceil((q - half_width) * n) - 1)
    hi = max(lo + 1, math.ceil((q + half_width) * n))
    return math.exp(statistics.fmean(math.log(x) for x in sorted_values[lo:hi]))


def _shorten(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[:limit] + f"... ({len(text)} chars)"


def report_records(records):
    """One line per input family, then every distinct failed input."""
    families = {}
    for op, latency, status, _ in records:
        families.setdefault(op["family"], []).append((latency, status))
    for family, rows in sorted(families.items()):
        lat = sorted(r[0] for r in rows)
        bad = sum(r[1] != "ok" for r in rows)
        print(f"family {family}: {len(rows)} ops, median {statistics.median(lat) * 1000:.3f} ms, "
              f"max {lat[-1] * 1000:.3f} ms, failed {bad}")
    seen = set()
    for op, _, status, detail in records:
        if status == "ok":
            continue
        text = op["input"] if op["kind"] != "cli" else " ".join(op["input"]["argv"])
        text = text if isinstance(text, str) else ", ".join(text)
        if (text, status) not in seen:
            seen.add((text, status))
            print(f"FAILED [{status}] {op['family']}: {_shorten(text)} -- {_shorten(detail)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kminusone" / "__init__.py").is_file():
        print(f"bench: no kminusone package under {ROOT / 'src'}; run from the "
              "root of a kminusone checkout", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)

    setup = measure_setup()
    ops = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"inputs {workloads.inputs_digest(ops)}, CPUs {ROTATION.cpus or 'unpinned'}")

    tracer = tracing.Tracer()
    runner = (ColdCli(ops, args.seed, tracer) if args.workload == "cli-cold"
              else InProcess(args.workload, tracer))
    if args.trace:
        records, plain_s, traced_s, passes = measure_traced(runner, ops, args.seconds)
    else:
        records, passes = measure(runner, ops, args.seconds)

    attempted = len(records)
    failed = sum(r[2] != "ok" for r in records)
    wrong = sum(r[2] == "wrong" for r in records)
    report_records(records)
    print(f"passes {passes}, operations {attempted}, failed {failed} "
          f"(failed_share {failed / attempted:.4f}), wrong answers {wrong}")

    if args.trace:
        trace_path = BUILD / "trace" / f"{args.workload}-{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        with trace_path.open("w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        values = tracing.layer_metrics(tracer.spans, tracer.stats, passes)
        cold = args.workload == "cli-cold"
        values["cli.interpreter_ms"] = (statistics.median(runner.interpreter_ms)
                                        if cold else setup["interpreter_ms"])
        values["cli.import_ms"] = (statistics.median(runner.import_ms)
                                   if cold else setup["import_ms"])
        values["trace.overhead_share"] = traced_s / plain_s - 1
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": tracing.metric_unit(name)}
                   for name in tracing.metric_names()}
    else:
        latencies = sorted(r[1] for r in records)
        p90 = percentile(latencies, 0.9, 0.05)
        values = (((attempted - failed) / sum(latencies), "1/s"),
                  (percentile(latencies, 0.5, 0.1) * 1000, "ms"),
                  (p90 * 1000, "ms"),
                  (setup["setup_s"], "s"),
                  (runner.peak_rss_mb(), "MB"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in zip(END_TO_END, values)}
        print(f"latency samples {attempted}, beyond p90 {sum(x > p90 for x in latencies)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
