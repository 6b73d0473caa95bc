"""One traced `kminusone` invocation, for the traced cli-cold run.

Usage: python bench/cli_child.py <kminusone arguments...>

Records when the interpreter reached this script and when `kminusone.cli`
was imported, runs `run_cli` with the timing wrappers of tracing.py
installed, and writes the timestamps and spans as JSON to the file named
by KMINUSONE_BENCH_TRACE_OUT.  Exits with the CLI's exit code.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import kminusone.cli  # noqa: E402

t_imported = time.perf_counter()

import tracing  # noqa: E402

tracer = tracing.Tracer()
try:
    with tracer:
        code = kminusone.cli.run_cli(sys.argv[1:])
finally:
    # written even when run_cli escapes with a traceback, which the parent
    # then reports as a failure
    sys.stdout.flush()
    with open(os.environ["KMINUSONE_BENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
        json.dump({"t_start": t_start, "t_imported": t_imported,
                   "spans": tracer.spans, "stats": tracer.stats}, handle)
sys.exit(code)
