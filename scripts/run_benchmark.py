#!/usr/bin/env python3
"""Run the frozen seed-7 confusable benchmark through the embsearch CLI.

Runs the README's CLI commands inside the output directory, then searches
the held-out queries without and with the trained adapter and compares
their Recall@k. Paths are relative to the output directory, so stdout is
the same wherever it lies, and every file is byte-identical across re-runs.
Stops at the first failing command and exits with its code.
"""
import argparse
import os
import sys
from pathlib import Path

from embsearch.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("benchmark_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--sigma", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    k, seed = args.k, args.seed
    ks = ",".join(str(c) for c in sorted({1, min(5, k), min(10, k)}))
    train, held = "ds/manifest.json", "ds/manifest_heldout.json"
    commands = [
        f"gen-synth --out ds --seed {seed} --n {args.n} --dim {args.dim} --sigma {args.sigma}"
        " --confusable-fraction 0.5 --confusable-gap 0.02 --heldout",
        f"validate {train}",
        f"search {train} --k {k} --out ranked.tsv",
        f"train-adapter {train} --out model.adapter --trace trace.tsv --seed {seed}",
        f"search {train} --k {k} --adapter model.adapter --out ranked_ft.tsv",
        "resolve ranked.tsv --out resolved.tsv --audit audit.tsv",
        f"eval ranked.tsv --manifest {train} --ks {ks} --out before.txt",
        f"eval resolved.tsv --manifest {train} --ks {ks} --out after.txt",
        "report before.txt after.txt",
        f"search {held} --k {k} --out heldout.tsv",
        f"search {held} --k {k} --adapter model.adapter --out heldout_ft.tsv",
        f"eval heldout.tsv --manifest {held} --ks {ks} --out heldout_before.txt",
        f"eval heldout_ft.tsv --manifest {held} --ks {ks} --out heldout_after.txt",
        "report heldout_before.txt heldout_after.txt",
    ]
    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    for command in commands:
        print(f"\n$ embsearch {command}", flush=True)
        code = run(command.split())
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
