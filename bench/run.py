"""Benchmark of webfol: seeded workloads, independent checks, optional spans.

One workload, as a benchmark driver calls it:

    python3 bench/run.py --workload plane_foliations --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Progress goes to
standard error.

    python3 bench/run.py --all [--seed N] [--seconds S]   every workload, end to end
    python3 bench/run.py --all --trace 1                  per-layer metrics and tracing overhead
    python3 bench/run.py --smoke                          a few items per workload, every check

Runs are whole rounds of items; every item is timed alone, then checked
outside the timed region.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import items as items_mod  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "plane_foliations": "plane",
    "symmetric_webs": "webs",
    "surface_bounds": "surface",
    "cli_session": "session",
}
DEFAULT_SEED = 1
# Enough items for the 90th percentile to have ten samples beyond it.
MIN_ITEMS = 100
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Unavailable(Exception):
    """The checkout does not hold the program's source."""


def import_webfol():
    """Fresh import of webfol from this checkout's src/ (never an installed copy)."""
    if not (SRC / "webfol" / "__init__.py").is_file():
        raise Unavailable(f"no webfol package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "webfol"]:
        del sys.modules[name]
    webfol = importlib.import_module("webfol")
    if Path(webfol.__file__).resolve().parent != (SRC / "webfol").resolve():
        raise Unavailable(f"webfol imported from {webfol.__file__}, not {SRC}")
    return webfol


def set_up(workload, seed):
    """One set-up: a fresh import of webfol, the first round and the context."""
    draws = items_mod.Draws()
    t0 = time.perf_counter()
    webfol = import_webfol()
    first = workload.generate(seed, 0, draws)
    ctx = workload.Context(webfol)
    return time.perf_counter() - t0, first, ctx, draws


def attach_tracer(ctx):
    """Wrap webfol's functions (after the last import) and record into one tracer."""
    tracer = spans.Tracer()
    spans.install(tracer)
    if hasattr(ctx, "use_tracer"):
        ctx.use_tracer(tracer)
    return tracer


def run_items(workload, ctx, item_list, tracer, latencies, outcome, between=None):
    for item in item_list:
        if between:
            between()
        root = tracer.open(spans.ITEM) if tracer else None
        t0 = time.perf_counter()
        try:
            out = workload.execute(ctx, item)
            error = None
        except Exception as exc:  # an unexpected error is a failed operation
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(root)
        outcome["attempted"] += 1
        try:
            if error is not None:
                raise items_mod.CheckFailed(f"{type(error).__name__}: {error}")
            workload.check(item, out)
        except Exception as exc:  # a rejected or malformed answer is a failed operation
            outcome["failed"] += 1
            known = item.kind in getattr(workload, "KNOWN_FAILURES", ())
            if not known:
                outcome["unexpected"] += 1
            if outcome["failed"] <= 5 or not known:
                print(f"  failed {item.kind}: {exc!r}", file=sys.stderr)


def run_workload(name, seed, seconds, trace):
    workload = importlib.import_module(WORKLOADS[name])
    setup_time, first, ctx, draws = set_up(workload, seed)
    setup_times = [setup_time]
    tracer = attach_tracer(ctx) if trace else None
    latencies = []
    outcome = {"attempted": 0, "failed": 0, "unexpected": 0}
    started = time.perf_counter()

    def set_up_again():
        # Set-ups spread over the run sample the machine's speed as the items
        # do; the items keep the context of the first one.
        if len(setup_times) < SETUP_REPEATS and (
            time.perf_counter() - started >= len(setup_times) * seconds / SETUP_REPEATS
        ):
            setup_times.append(set_up(workload, seed)[0])

    round_index = 0
    current = first
    try:
        while True:
            run_items(workload, ctx, current, tracer, latencies, outcome,
                      None if trace else set_up_again)
            round_index += 1
            if trace:
                if round_index >= workload.TRACE_ROUNDS:
                    break
            elif time.perf_counter() - started >= seconds and outcome["attempted"] >= MIN_ITEMS:
                break
            current = workload.generate(seed, round_index, draws)
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(set_up(workload, seed)[0])
    finally:
        if hasattr(ctx, "close"):
            ctx.close()
    elapsed = time.perf_counter() - started
    print(
        f"{name}: seed {seed}, {round_index} rounds, {outcome['attempted']} items, "
        f"{outcome['failed']} failed, {draws.discarded} draws discarded, {elapsed:.1f} s",
        file=sys.stderr,
    )
    items_per_s = len(latencies) / sum(latencies)
    if trace:
        metrics = per_layer_metrics(tracer, items_per_s)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        ms = sorted(v * 1000 for v in latencies)
        rss_kib = resource.getrusage(
            resource.RUSAGE_CHILDREN if getattr(workload, "CHILD_PROCESSES", False)
            else resource.RUSAGE_SELF
        ).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": items_per_s,
            "item_p50_ms": statistics.median(ms),
            "item_p90_ms": statistics.quantiles(ms, n=10)[8],
            "peak_rss_mb": rss_kib / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return {
        "correct": outcome["unexpected"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def per_layer_names():
    names = []
    for metric, *_ in spans.TARGETS:
        names += [(f"{metric}.calls", "count"), (f"{metric}.self_ms", "ms")]
    names += [
        ("cli.import_ms", "ms"),
        ("cli.process_ms", "ms"),
        ("projective.preserves.true_ratio", "ratio"),
        ("forms.validate.refused_ratio", "ratio"),
        ("bounds.digits_rendered", "count"),
        ("trace.items_per_s", "1/s"),
    ]
    return names


def per_layer_metrics(tracer, items_per_s):
    totals = tracer.totals()
    values = {}
    for metric, *_ in spans.TARGETS:
        calls, self_ns = totals.get(metric, (0, 0))
        values[f"{metric}.calls"] = calls
        values[f"{metric}.self_ms"] = self_ns / 1e6
    values["cli.import_ms"] = tracer.import_ns / 1e6
    values["cli.process_ms"] = tracer.process_ns / 1e6
    preserves = totals.get("projective.preserves", (0, 0))[0]
    validate = totals.get("forms.validate", (0, 0))[0]
    values["projective.preserves.true_ratio"] = tracer.preserves_true / preserves if preserves else 0.0
    values["forms.validate.refused_ratio"] = tracer.validate_refused / validate if validate else 0.0
    values["bounds.digits_rendered"] = tracer.digits_rendered
    values["trace.items_per_s"] = items_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


# -- several workloads from one command ---------------------------------------------


def child_run(name, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed, seconds, trace):
    ok = True
    for name in WORKLOADS:
        plain = child_run(name, seed, seconds, 0)
        ok &= plain["correct"]
        print(f"== {name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}")
        for metric, entry in plain["metrics"].items():
            print(f"   {metric:<16} {entry['value']:>12.4f} {entry['unit']}")
        print(json.dumps({"workload": name, "trace": 0, **plain}))
        if not trace:
            continue
        traced = child_run(name, seed, seconds, 1)
        ok &= traced["correct"]
        untraced_rate = plain["metrics"]["items_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.items_per_s"]["value"]
        overhead = untraced_rate / traced_rate - 1
        print(f"   traced run: attempted {traced['attempted']}, tracing overhead "
              f"{100 * overhead:.1f}% (untraced {untraced_rate:.3f} vs traced {traced_rate:.3f} items/s)")
        for metric, entry in traced["metrics"].items():
            print(f"   {metric:<40} {entry['value']:>14.3f} {entry['unit']}")
        print(json.dumps({"workload": name, "trace": 1, "tracing_overhead": overhead, **traced}))
    return 0 if ok else 1


def run_smoke(seed):
    """Each workload on a few items with every check, traced and untraced."""
    ok = True
    for name, module in WORKLOADS.items():
        workload = importlib.import_module(module)
        for trace in (0, 1):
            _, first, ctx, _ = set_up(workload, seed)
            tracer = attach_tracer(ctx) if trace else None
            outcome = {"attempted": 0, "failed": 0, "unexpected": 0}
            try:
                run_items(workload, ctx, workload.smoke(first), tracer, [], outcome)
            finally:
                if hasattr(ctx, "close"):
                    ctx.close()
            calls = sum(c for c, _ in tracer.totals().values()) if tracer else None
            good = outcome["unexpected"] == 0 and (not trace or calls > outcome["attempted"])
            ok &= good
            print(f"smoke {name} trace={trace}: {outcome['attempted']} items, "
                  f"{outcome['failed']} failed, ok={good}", file=sys.stderr)
    print(json.dumps({"smoke": True, "correct": ok}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--smoke", action="store_true", help="a few items per workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return run_smoke(args.seed)
        if args.all:
            return run_all(args.seed, args.seconds, args.trace)
        if not args.workload:
            parser.error("one of --workload, --all, --smoke is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except Unavailable as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
