#!/usr/bin/env python3
"""Record the seed-7 output digests that every default-seed run checks.

    python3 perfbench/record_digests.py [workload ...]

Runs each named workload (all by default) once at seed 7 and its full sizes,
checks its outputs with every other check, and writes the sha256 of
its output files to perfbench/digests.json. Rerun it only when a change of
the outputs is intended.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

# pinned threads and the checkout's src, here and in the CLI processes
os.environ.update(run.child_env())
sys.path.insert(0, str(run.ROOT / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402

WORK = run.WORK / "digests"


def main(names: list[str]) -> int:
    recorded = json.loads(verify.DIGESTS.read_text(encoding="utf-8"))
    for name in names or list(workloads.SIZES):
        ctx = workloads.Context(name, workloads.SIZES[name], verify.DEFAULT_SEED, WORK / name)
        try:
            workloads.synthesize(ctx)
            result = workloads.OPS[name](ctx, None)
            workloads.verify_op(ctx, result)
            if result.failed:
                print(f"{name}: outputs fail verification: {result.failed_checks}",
                      file=sys.stderr)
                return 1
            recorded[name] = {f: verify.sha256(ctx.out / f) for f in workloads.DIGEST_FILES[name]}
            print(f"{name}: recorded {len(recorded[name])} digests")
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    verify.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
