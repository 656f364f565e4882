#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks three things and exits 0 only if all hold:

1. Self times are right on a hand-built span tree, and layer self times plus
   the remainder add up to the wall time.
2. A deliberately corrupted output file fails verification and so raises
   fail_ratio, for each kind of check: score order, tie order, the full-sort
   oracle, answers taken from the source list, recall and digests.
3. Every workload, run end to end at tiny sizes with and without tracing,
   prints every metric of BENCHMARK.json by name with its unit, verifies its
   outputs, and in the traced run its layer self times plus the remainder
   equal the traced wall time.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

import run

os.environ.update(run.child_env())
sys.path.insert(0, str(run.ROOT / "src"))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SEED = 3  # not the default seed, whose digests belong to the full sizes
TINY = {
    "cli-small": {"n": 16, "dim": 8, "k": 10},
    "search-large": {"n": 40, "dim": 8, "k": 20, "depth": 3},
    "train-mid": {"n": 40, "dim": 8, "k": 10, "epochs": 1, "batch_size": 8},
}
LAYERS = ("cli", "data", "similarity", "resolver", "objective", "evaluation")


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_self_times() -> None:
    S = spans.Span
    tree = [
        S(0, "similarity.topk", 0.0, 10.0, None, 0),
        S(1, "data.load", 1.0, 4.0, 0, 0),
        S(2, "data.load", 4.0, 5.0, 0, 0),
        S(3, "resolver.resolve", 6.0, 9.0, 0, 0),
        S(4, "resolver.detect", 6.5, 8.5, 3, 0),
        S(5, "evaluation.recall", 11.0, 12.0, None, 0),
    ]
    own = spans.self_times(tree)
    check(own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 1.0},
          "self time is duration minus the time children cover")
    layers, remainder = spans.layer_self_times(tree, 13.0)
    check(layers == {"similarity": 3.0, "data": 4.0, "resolver": 3.0, "evaluation": 1.0}
          and remainder == 2.0, "layer self times plus remainder equal the wall time")
    overlapping = [S(0, "a", 0.0, 10.0, None, 0), S(1, "b", 1.0, 4.0, 0, 0),
                   S(2, "b", 3.0, 5.0, 0, 0), S(3, "b", 9.0, 12.0, 0, 0)]
    check(spans.self_times(overlapping)[0] == 5.0,
          "children's time is counted once and only inside the parent")


def test_corruption() -> None:
    out = run.WORK / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    ctx = workloads.Context("search-large", TINY["search-large"], SEED, out)
    try:
        workloads.synthesize(ctx)
        result = workloads.OPS["search-large"](ctx, None)
        pristine = {f: (out / f).read_bytes() for f in ("ranked.tsv", "resolved.tsv", "audit.tsv")}
        ctx.digests = {f: verify.sha256(out / f) for f in pristine}
        workloads.verify_op(ctx, result)
        check(result.failed == 0 and not result.failed_checks, "pristine outputs pass")
        first = ctx.reference

        def corrupt(name: str, edit, later: bool = False) -> list[str]:
            """Verify again with `name` edited, as the first or a later operation."""
            for f, body in pristine.items():
                (out / f).write_bytes(body)
            meta, rows = verify.read_table(out / name)
            edit(rows)
            lines = [f"# {k}={v}" for k, v in meta.items()] + ["\t".join(r) for r in rows]
            (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            ctx.reference = first if later else None
            again = workloads.OpResult(outputs=result.outputs)
            workloads.verify_op(ctx, again)
            ratio = (result.failed + again.failed) / (result.attempted + again.attempted)
            check(again.failed == 1 and ratio > 0,
                  f"corrupted {name} raises fail_ratio to {ratio:g}: {again.failed_checks}")
            return again.failed_checks

        def swap_scores(rows):
            rows[[1, 2], 3] = rows[[2, 1], 3]

        def tie_order(rows):
            rows[2, 3] = rows[1, 3]  # equal scores, but ids in list order
            if int(rows[1, 2]) < int(rows[2, 2]):
                rows[[1, 2], 2] = rows[[2, 1], 2]

        def drop_best(rows):
            # shift query 0 down one rank: still ordered, but not the oracle's
            rows[0:19, 2:4] = rows[1:20, 2:4]
            rows[19, 2], rows[19, 3] = "999", "-9"

        def foreign_answer(rows):
            rows[0, 2] = "999"

        checks = corrupt("ranked.tsv", swap_scores)
        check(any("scores_non_increasing" in c for c in checks), "score order is checked")
        checks = corrupt("ranked.tsv", tie_order)
        check(any("ties_ascending_id" in c for c in checks), "tie order is checked")
        checks = corrupt("ranked.tsv", drop_best)
        check(any("full_sort_oracle" in c for c in checks), "the full-sort oracle is checked")
        checks = corrupt("resolved.tsv", foreign_answer)
        check(any("answers_from_source" in c for c in checks), "resolved answers are checked")
        checks = corrupt("audit.tsv", lambda rows: rows.__setitem__((0, 4), "0.5"))
        check(checks == ["audit.tsv:digest"], "digests are checked")
        checks = corrupt("resolved.tsv", foreign_answer, later=True)
        check(checks == ["resolved.tsv:differs_from_first_operation"],
              "a later operation must write the first one's bytes")
        result.outputs["recall_after"] += 1.0 / ctx.sizes["n"]
        checks = corrupt("audit.tsv", lambda rows: None)
        check(any("recall_at_1_matches_library" in c for c in checks),
              "recall recomputed from the files is checked against the library's")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_metrics_printed() -> None:
    bench = json.loads(run.BENCH.read_text(encoding="utf-8"))
    for workload in workloads.SIZES:
        for trace in (0, 1):
            result = run.run_workload(workload, SEED, 0.5, trace, TINY[workload])
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                out = run.report(workload, SEED, trace, result)
            declared = bench["per_layer" if trace else "end_to_end"]
            lines = text.getvalue().splitlines()
            printed = {ln.split(": ")[0]: ln.rsplit(" ", 1)[1] for ln in lines if ": " in ln}
            check(all(printed.get(m["name"]) == m["unit"] for m in declared)
                  and [(k, v["unit"]) for k, v in out["metrics"].items()]
                  == [(m["name"], m["unit"]) for m in declared],
                  f"{workload} trace={trace}: {len(declared)} metrics printed with units")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{workload} trace={trace}: outputs verified")
            if trace:
                m = {k: v["value"] for k, v in out["metrics"].items()}
                total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.remainder_s"]
                check(math.isclose(total, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9)
                      and m["trace.remainder_s"] >= 0,
                      f"{workload}: layer self times + remainder = traced wall_s")


def main() -> int:
    test_self_times()
    test_corruption()
    test_metrics_printed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
