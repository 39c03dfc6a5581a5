"""``python -m webfol`` with spans: the traced child of the cli_session workload.

Usage: BENCH_TRACE_OUT=<file> python3 bench/fol_child.py <fol arguments>

Times the import of ``webfol.cli``, wraps webfol's public functions, runs
``cli.main`` on the arguments and writes the spans to BENCH_TRACE_OUT, also
when an exception escapes, which then ends the process as it would end
``python -m webfol``.
"""

import os
import sys
import time

import spans

started = time.perf_counter_ns()
import webfol.cli  # noqa: E402

tracer = spans.Tracer()
tracer.import_ns = time.perf_counter_ns() - started
spans.install(tracer)
try:
    code = webfol.cli.main(sys.argv[1:])
finally:
    spans.dump_child(tracer, os.environ["BENCH_TRACE_OUT"])
sys.exit(code)
