"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py, never by hand. It imports embsearch from the checkout,
synthesizes the dataset with `data.generate_synthetic`, warms up and prints
`ready`; the parent times set-up up to that line. With --setup-only it stops
there. Otherwise it repeats the workload's operation while the next one is
expected to end within --seconds (at least twice), verifies each
operation's files outside the timed region, and writes its result as JSON
to <dir>/result.json.

With --trace 1 one operation records spans with tracemalloc for peak
allocations, and the others alternate between untraced and spans only, so
one run gives the per-layer numbers, the peaks and the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import embsearch
import verify
import workloads
from spans import Tracer, layer_self_times, self_times

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--sizes", help="JSON object overriding the workload's sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def setup(args):
    src = ROOT / "src"
    if Path(embsearch.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"embsearch imported from {embsearch.__file__}, not from {src}")
    sizes = dict(workloads.SIZES[args.workload])
    if args.sizes:
        sizes.update(json.loads(args.sizes))
    ctx = workloads.Context(args.workload, sizes, args.seed, args.dir)
    if args.seed == verify.DEFAULT_SEED and not args.sizes:
        ctx.digests = verify.recorded_digests(args.workload)
    workloads.synthesize(ctx)
    workloads.warm_up()
    return ctx


def run_op(ctx, index: int, tracer=None, memory: bool = False):
    """Time one operation, then verify it; returns (seconds, OpResult).

    With a tracer the operation records spans; with memory also each span's
    peak allocation, which slows Python-heavy code several times over, so
    those operations give peaks only, never times.
    """
    op = workloads.OPS[ctx.workload]
    # every operation starts from the same collector state, so the program's
    # own garbage collections fall at the same points in each of them
    gc.collect()
    if tracer is not None:
        tracer.run = index
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        if tracer is not None and ctx.workload != "cli-small":
            with tracer.patched(workloads.trace_targets(ctx)):
                result = op(ctx, tracer)
        else:
            result = op(ctx, tracer)
    except Exception:  # the loop must go on to report the failure
        traceback.print_exc()
        result = workloads.OpResult()
        result.failed_commands.add("exception")
        return time.perf_counter() - t0, result
    finally:
        if memory:
            tracemalloc.stop()
    seconds = time.perf_counter() - t0
    workloads.verify_op(ctx, result)
    # keep no program output alive into the next operation's peak memory
    result.outputs = {}
    return seconds, result


def fresh_import_seconds() -> float:
    """Median wall time of a fresh process that only imports embsearch.cli."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import embsearch.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    # for cli-small the work is done by the children; ru_maxrss is the
    # largest of them, in KiB on Linux
    who = resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


PEAKS = {"similarity.topk": "similarity.topk_peak_mb", "resolver.resolve": "resolver.peak_mb",
         "objective.train": "objective.peak_mb"}


def layer_metrics(timed, memory, wall: float, counters: dict, names: list[str]) -> dict:
    """Per-layer metrics from the spans of one timed and one memory operation.

    A span named `layer.x` gives the metric `layer.x_s`; the layer self
    times and the remainder add up to the timed operation's wall time.
    """
    metrics = dict.fromkeys(names, 0.0)
    for s in timed:
        if f"{s.name}_s" in metrics:
            metrics[f"{s.name}_s"] += s.duration
    for s in memory:
        if s.name in PEAKS:
            metrics[PEAKS[s.name]] = max(metrics[PEAKS[s.name]], s.peak_bytes / 2**20)
    metrics["resolver.detect_calls"] = sum(1 for s in timed if s.name == "resolver.detect")
    own = self_times(timed)
    metrics["objective.update_s"] = sum(own[s.id] for s in timed if s.name == "objective.train")
    layers, remainder = layer_self_times(timed, wall)
    metrics.update({f"{layer}.self_s": seconds for layer, seconds in layers.items()})
    metrics["trace.remainder_s"] = remainder
    metrics["trace.wall_s"] = wall
    metrics.update({k: v for k, v in counters.items() if k in metrics})
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = setup(args)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    # traced runs go: plain, memory, then timed and plain by turns
    ops = {"plain": [], "memory": [], "timed": []}  # kind -> [(seconds, OpResult, index)]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        kind = "plain"
        if args.trace and index > 0:
            kind = "memory" if index == 1 else ("timed" if index % 2 == 0 else "plain")
        seconds, result = run_op(ctx, index, tracer if kind != "plain" else None,
                                 memory=kind == "memory")
        ops[kind].append((seconds, result, index))
        index += 1
        if "exception" in result.failed_commands:
            break
        # stop before an operation that would end past the deadline, so a
        # run lasts about --seconds whatever one operation takes, but take
        # two plain operations, or one of each kind when tracing
        enough = ops["timed"] if args.trace else len(ops["plain"]) >= 2
        if enough and time.perf_counter() + seconds > deadline:
            break

    done = [op for kind in ops.values() for op in kind]
    plain = ops["plain"]
    for check in sorted({c for _, r, _ in done for c in r.failed_checks}):
        print(f"verification failed: {check}", file=sys.stderr)
    doc = {
        "attempted": sum(r.attempted for _, r, _ in done),
        "failed": sum(r.failed for _, r, _ in done),
        "failed_checks": sorted({c for _, r, _ in done for c in r.failed_checks}
                                | {c for _, r, _ in done for c in r.failed_commands}),
        "op_seconds": {kind: [s for s, _, _ in runs] for kind, runs in ops.items()},
        "wall_s": statistics.median(s for s, _, _ in plain),
        "peak_rss_mb": peak_rss_mb(ctx.workload),
        "counters": plain[-1][1].counters,
        "numpy": np.__version__,
    }
    if args.trace:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in bench["per_layer"]]
        # the timed operation of median duration stands for the run; if an
        # operation raised, there may be none and then no spans stand
        timed = sorted(ops["timed"], key=lambda t: t[0])
        seconds, _, index = timed[(len(timed) - 1) // 2] if timed else (doc["wall_s"], None, -1)
        memory = ops["memory"][0][2] if ops["memory"] else -1
        metrics = layer_metrics([s for s in tracer.spans if s.run == index],
                                [s for s in tracer.spans if s.run == memory],
                                seconds, doc["counters"], names)
        metrics["trace.overhead_ratio"] = seconds / doc["wall_s"]
        metrics["cli.import_s"] = fresh_import_seconds()
        if ctx.workload == "cli-small":
            metrics["cli.startup_share"] = (
                len(workloads.CLI_COMMANDS) * metrics["cli.import_s"] / doc["wall_s"]
            )
        metrics["fail_ratio"] = doc["failed"] / doc["attempted"]
        doc["per_layer"] = metrics
        tracer.write(args.dir / "spans.jsonl")
    (args.dir / "result.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
