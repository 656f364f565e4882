#!/usr/bin/env python3
"""embsearch benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload search-large --seed 7 --seconds 30 --trace 0

Every workload in turn, with its end-to-end metrics and verification outcome:

    for w in cli-small search-large train-mid; do python3 perfbench/run.py --workload $w; done

Run from the root of a source checkout; the program under test is the
checkout's `src/embsearch`, imported through PYTHONPATH. BENCHMARK.json at the
root lists the workloads and metrics.

With --trace 0 the run prints the end-to-end metrics: wall_s (median seconds
of one operation), setup_s (median seconds for a fresh process to import
embsearch, synthesize the dataset and warm up, over three such processes) and
peak_rss_mb. With --trace 1 it prints the per-layer metrics of a separate,
traced run. Every operation's output files are verified outside the timed
region; the last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A full record, with the environment, goes to
.perfbench_out/ and the spans of a traced run beside it.

BLAS and OpenMP thread pools are pinned to the number of usable cores, in
the environment of every process the benchmark starts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
WORKER = Path(__file__).resolve().with_name("worker.py")
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
BUDGET_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update({var: threads for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment(seed: int) -> dict:
    """Where a result came from; the checkout may not be a git repository."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def _wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    """Block until the worker prints its `ready` line."""
    fd, buf = proc.stdout.fileno(), b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("set-up did not finish in time")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise BenchError(f"worker exited with code {proc.wait()} during set-up")
        buf += chunk
    if buf.strip() != b"ready":
        raise BenchError(f"unexpected worker output: {buf!r}")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 sizes: dict | None = None) -> dict:
    """Set up and run one workload; returns the worker's result plus set-up times."""
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", str(work)]
    if sizes:
        cmd += ["--sizes", json.dumps(sizes)]
    env = child_env()
    setups = []
    proc = None
    try:
        work.mkdir(parents=True, exist_ok=True)
        # only the end-to-end run reports set-up time, so only it repeats set-up
        repeats = SETUP_REPEATS if trace == 0 else 1
        for i in range(repeats):
            last = i == repeats - 1
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd if last else cmd + ["--setup-only"],
                                    stdout=subprocess.PIPE, env=env, cwd=ROOT)
            _wait_ready(proc, deadline)
            setups.append(time.perf_counter() - t0)
            if not last:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
                proc.stdout.close()
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("the run did not finish in time") from exc
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if trace:
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.jsonl", OUT / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s_runs"] = setups
    result["setup_s"] = sorted(setups)[len(setups) // 2]
    result["env"] = {**environment(seed), "numpy": result.pop("numpy")}
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """The contract's result object; also prints the readable summary lines."""
    bench = json.loads(BENCH.read_text(encoding="utf-8"))
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = result["per_layer"] if trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    out = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}

    counters = result["counters"]
    print(f"workload={workload} seed={seed} trace={trace} "
          f"operations={sum(len(v) for v in result['op_seconds'].values())}")
    print("env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    checks = result["failed_checks"]
    print(f"verification: {'passed' if not checks else 'FAILED ' + ', '.join(checks)}; "
          f"fail_ratio={result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    print(f"recall_at_1={counters.get('recall_at_1', 'n/a')}" + "".join(
        f" {k}={v}" for k, v in sorted(counters.items()) if k.startswith("resolver.")))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return out


def main(argv=None) -> int:
    bench = json.loads(BENCH.read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "embsearch" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'embsearch'} is missing", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = report(args.workload, args.seed, args.trace, result)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, **result, "result": out}, indent=1),
                      encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
