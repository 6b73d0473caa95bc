"""Timing wrappers around the public functions of kminusone, for the traced
run only.

``Tracer.install`` replaces each listed function in every kminusone module
namespace that binds it (found by object identity, because imports such as
``from .germs import branch_count`` copy the binding), and each listed
method on its class.  Each call records a span (name, start, end, parent,
operation, raised) in memory; ``layer_metrics`` turns the spans into
per-layer counts and self times.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _transform_bits(result) -> int:
    _, u, v = result
    return max((abs(x).bit_length() for m in (u, v) for x in m.entries), default=0)


def _basis_paths(result) -> int:
    return result.dimension


# (module, attribute, stats); "Class.method" attributes are patched on the
# class, and "fields.NumberField" counts constructions (extensions adjoined)
TRACED = (
    ("parsing", "parse_polynomial", ("calls", "self_ms")),
    ("germs", "is_isolated", ("calls", "self_ms")),
    ("germs", "bipoly_gcd", ("calls", "self_ms")),
    ("germs", "branch_count", ("calls", "self_ms", "errors")),
    ("germs", "branch_count_factored", ("calls", "self_ms")),
    ("fields", "irreducible_factors", ("calls", "self_ms")),
    ("fields", "NumberField.__init__", ("calls",)),
    ("exact", "squarefree_decomposition", ("calls", "self_ms")),
    ("exact", "smith_normal_form", ("calls", "self_ms", "transform_bits")),
    ("exact", "cokernel", ("calls", "self_ms")),
    ("exact", "FinAbGroup.direct_sum", ("calls", "self_ms")),
    ("localsing", "classify_cAn", ("calls", "self_ms")),
    ("curves", "curve_k_minus_one", ("calls", "self_ms")),
    ("varieties", "threefold_invariants", ("calls", "self_ms")),
    ("varieties", "surface_k_minus_one", ("calls", "self_ms")),
    ("blowup", "blowup_k_theory", ("calls", "self_ms")),
    ("verdicts", "decide", ("calls", "self_ms")),
    ("quiver", "algebra_basis", ("calls", "self_ms", "paths")),
    ("cli", "parse_spec_document", ("calls", "self_ms", "errors")),
    ("cli", "emit_report", ("calls", "self_ms")),
    ("cli", "run_cli", ("self_ms",)),
)

# statistics read off a call's result: (span name, stat) -> (reader, combine)
INSPECT = {
    ("exact.smith_normal_form", "transform_bits"): (_transform_bits, max),
    ("quiver.algebra_basis", "paths"): (_basis_paths, lambda a, b: a + b),
}
UNITS = {"self_ms": "ms", "interpreter_ms": "ms", "import_ms": "ms",
         "transform_bits": "bits", "gate_share": "ratio", "overhead_share": "ratio"}

BRANCH_COUNTING = ("germs.branch_count", "germs.branch_count_factored")
INSPECT_SPAN = "trace.inspect"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def metric_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")


def metric_names() -> list:
    """Every per-layer metric, in report order."""
    names = [f"{span_name(m, a)}.{stat}" for m, a, stats in TRACED for stat in stats]
    names.insert(names.index("germs.branch_count_factored.calls"), "germs.gate_share")
    return names + ["cli.interpreter_ms", "cli.import_ms", "trace.overhead_share"]


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op, raised)
        self.stats = {}
        self.op = None           # identifier shared by the spans of one operation
        self._stack = [None]
        self._patches = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        inspectors = [(f"{name}.{stat}", reader) for (span, stat), (reader, _)
                      in INSPECT.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised)
            if inspectors:
                # reading the result is trace work: a span of its own keeps
                # it out of the caller's self time
                t0 = clock()
                for key, reader in inspectors:
                    self.add_stat(key, reader(result))
                spans.append((INSPECT_SPAN, t0, clock(), parent, self.op, False))
            return result

        return traced

    def add_stat(self, key: str, value):
        span, stat = key.rsplit(".", 1)
        combine = INSPECT[(span, stat)][1]
        self.stats[key] = combine(self.stats[key], value) if key in self.stats else value

    def install(self):
        listed = {m: importlib.import_module(f"kminusone.{m}") for m, _, _ in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kminusone" or n.startswith("kminusone."))]
        for module_name, attr, _ in TRACED:
            module = listed[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans, stats, passes: int) -> dict:
    """Per-layer counts and self times, per pass of the workload's inputs.

    A span's self time is its duration minus the durations of its direct
    child spans.  ``germs.gate_share`` is the time in ``is_isolated`` under
    a branch-counting call divided by the time of the outermost
    branch-counting calls."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_s = defaultdict(float)
    under_bc = []
    gate = outer = 0.0
    for i, (name, start, end, parent, _, raised) in enumerate(spans):
        inside = parent is not None and (spans[parent][0] in BRANCH_COUNTING
                                         or under_bc[parent])
        under_bc.append(inside)
        if name == INSPECT_SPAN:
            continue
        calls[name] += 1
        errors[name] += raised
        self_s[name] += end - start - child[i]
        if name == "germs.is_isolated" and inside:
            gate += end - start
        elif name in BRANCH_COUNTING and not inside:
            outer += end - start
    per_pass = max(passes, 1)
    out = {}
    for module_name, attr, wanted in TRACED:
        name = span_name(module_name, attr)
        for stat in wanted:
            if stat == "calls":
                value = calls[name] / per_pass
            elif stat == "errors":
                value = errors[name] / per_pass
            elif stat == "self_ms":
                value = self_s[name] * 1000 / per_pass
            else:
                value = stats.get(f"{name}.{stat}", 0)
                if stat == "paths":
                    value /= per_pass
            out[f"{name}.{stat}"] = value
    out["germs.gate_share"] = gate / outer if outer else 0.0
    return out
