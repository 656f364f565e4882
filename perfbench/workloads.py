"""The workloads: their sizes, set-up, timed operation and verification.

Each workload is a closed loop of one operation repeated by a single client:
the next operation starts only after the previous one has finished. An
operation is the workload's sequence of library calls, or for `cli-small`
the eight CLI commands of the README pipeline after `gen-synth`.

Library calls go through module attributes (`similarity.top_k`, not a name
imported from it) so that the traced run's wrappers see them.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import verify
from embsearch import data, evaluation, objective, resolver, similarity

SYNTH = {"noise_sigma": 0.4, "confusable_fraction": 0.5, "confusable_gap": 0.02}
KS = [1, 5, 10]

# sizes each workload runs at; why each was chosen is in BENCHMARK.json
SIZES = {
    "cli-small": {"n": 64, "dim": 32, "k": 10, "depth": 1},
    "search-large": {"n": 10000, "dim": 128, "k": 10, "depth": 1},
    "train-mid": {"n": 2000, "dim": 64, "k": 10, "epochs": 2, "batch_size": 16},
}

# the README pipeline after gen-synth, run with the output directory as cwd;
# each command's span is cli.<id>, except that both evals share cli.eval
CLI_COMMANDS = [
    ("validate", ["validate", "ds/manifest.json"]),
    ("search", ["search", "ds/manifest.json", "--k", "{k}", "--out", "ranked.tsv"]),
    ("train_adapter", ["train-adapter", "ds/manifest.json", "--out", "model.adapter",
                       "--trace", "trace.tsv"]),
    ("search_adapter", ["search", "ds/manifest.json", "--k", "{k}", "--adapter",
                        "model.adapter", "--out", "ranked_ft.tsv"]),
    ("resolve", ["resolve", "ranked.tsv", "--out", "resolved.tsv", "--audit", "audit.tsv"]),
    ("eval_before", ["eval", "ranked.tsv", "--manifest", "ds/manifest.json", "--ks", "1,5,10",
                     "--out", "before.txt"]),
    ("eval_after", ["eval", "resolved.tsv", "--manifest", "ds/manifest.json", "--ks", "1,5,10",
                    "--out", "after.txt"]),
    ("report", ["report", "before.txt", "after.txt"]),
]
CLI_TIMEOUT_S = 60

# the files whose seed-7 sha256 digests are recorded in digests.json
DIGEST_FILES = {
    "cli-small": ["ranked.tsv", "ranked_ft.tsv", "model.adapter", "trace.tsv",
                  "resolved.tsv", "audit.tsv", "before.txt", "after.txt"],
    "search-large": ["ranked.tsv", "resolved.tsv", "audit.tsv"],
    "train-mid": ["model.adapter", "trace.tsv", "adapted.tsv"],
}


@dataclass
class Context:
    workload: str
    sizes: dict
    seed: int
    out: Path
    # recorded sha256 per output file; only the default seed at full size has them
    digests: dict | None = None
    oracles: dict = field(default_factory=dict)
    # (file digests, counters) of the first operation that passed every check
    reference: tuple | None = None

    @property
    def ds(self) -> Path:
        return self.out / "ds"


@dataclass
class OpResult:
    """What one operation produced; filled by the op, then by verification."""

    outputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    attempted: int = 1
    failed_checks: list[str] = field(default_factory=list)
    failed_commands: set[str] = field(default_factory=set)

    @property
    def failed(self) -> int:
        if self.attempted > 1:
            return len(self.failed_commands)
        return 1 if self.failed_checks or self.failed_commands else 0


def synthesize(ctx: Context) -> None:
    cfg = data.SynthConfig(ctx.sizes["n"], ctx.sizes["dim"], seed=ctx.seed, **SYNTH)
    data.generate_synthetic(cfg, ctx.ds, heldout=ctx.workload in ("cli-small", "train-mid"))


def warm_up() -> None:
    """Start the BLAS thread pool before the first timed product."""
    a = np.ones((256, 256), dtype=np.float32)
    (a @ a).sum()


def trace_targets(ctx: Context):
    """(module, attribute, span name) for every public call the ops make.

    Full-dataset contrastive and match losses are the per-epoch trace
    evaluation; batch-sized ones are training steps.
    """
    n = ctx.sizes["n"]

    def loss_name(kind):
        def name(args, kwargs):
            batch = args[0] if args else kwargs["batch"]
            return "objective.trace_eval" if batch.size == n else f"objective.{kind}"
        return name

    return [
        (data, "load_manifest", "data.load"),
        (data, "load_embeddings", "data.load"),
        (data, "l2_normalize", "data.load"),
        (similarity, "similarity_matrix", "similarity.matrix"),
        (similarity, "top_k", "similarity.topk"),
        (similarity, "write_ranked_lists", "similarity.write"),
        (similarity, "read_ranked_lists", "similarity.read"),
        (resolver, "resolve", "resolver.resolve"),
        (resolver, "detect_conflicts", "resolver.detect"),
        (resolver, "resolution_to_lists", "resolver.to_lists"),
        (resolver, "write_resolution", "resolver.write"),
        (resolver, "write_audit", "resolver.write"),
        (objective, "train_adapter", "objective.train"),
        (objective, "contrastive_loss", loss_name("contrastive")),
        (objective, "match_loss", loss_name("match")),
        (objective, "sample_hard_negatives", "objective.negatives"),
        (objective, "apply_adapter", "objective.apply"),
        (evaluation, "recall_at_k", "evaluation.recall"),
        (evaluation, "compare_reports", "evaluation.report"),
        (evaluation, "render_delta_table", "evaluation.report"),
    ]


def _load(manifest) -> tuple:
    q = data.l2_normalize(data.load_embeddings(manifest, "query"))
    g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
    return q, g


def _bytes_of(manifest) -> int:
    return Path(manifest.query_path).stat().st_size + Path(manifest.gallery_path).stat().st_size


def op_search_resolve(ctx: Context, tracer) -> OpResult:
    """search-large: search, list IO, resolve, recall."""
    k, depth, out = ctx.sizes["k"], ctx.sizes["depth"], ctx.out
    manifest = data.load_manifest(ctx.ds / "manifest.json")
    q, g = _load(manifest)
    sims = similarity.similarity_matrix(q, g)
    lists = similarity.top_k(sims, k)
    del sims
    similarity.write_ranked_lists(out / "ranked.tsv", lists,
                                  meta={"dataset": manifest.name, "seed": ctx.seed, "k": k})
    lists = similarity.read_ranked_lists(out / "ranked.tsv")
    res = resolver.resolve(lists, resolver.ResolutionPolicy(depth=depth))
    meta = {"depth": depth, "source": "ranked.tsv"}
    resolver.write_resolution(out / "resolved.tsv", lists, res, meta=meta)
    resolver.write_audit(out / "audit.tsv", res, meta=meta)
    before = evaluation.recall_at_k(lists, manifest.ground_truth, KS, dataset=manifest.name)
    reordered, _ = resolver.resolution_to_lists(lists, res)
    after = evaluation.recall_at_k(reordered, manifest.ground_truth, KS, dataset=manifest.name)
    evaluation.render_delta_table(evaluation.compare_reports(before, after))
    n = ctx.sizes["n"]
    return OpResult(
        outputs={"recall_before": before.recall[1], "recall_after": after.recall[1]},
        counters={"data.bytes_read": _bytes_of(manifest), "similarity.score_bytes": n * n * 4},
    )


def op_train(ctx: Context, tracer) -> OpResult:
    """train-mid: train the adapter, adapt held-out queries, search, recall."""
    s = ctx.sizes
    manifest = data.load_manifest(ctx.ds / "manifest.json")
    q, g = _load(manifest)
    cfg = objective.TrainConfig(epochs=s["epochs"], batch_size=s["batch_size"], seed=ctx.seed)
    params, trace = objective.train_adapter(q, g, manifest.ground_truth, cfg)
    heldout = data.load_manifest(ctx.ds / "manifest_heldout.json")
    q_held = data.l2_normalize(data.load_embeddings(heldout, "query"))
    q_adapted = objective.apply_adapter(q_held, params, "text")
    g_adapted = objective.apply_adapter(g, params, "image")
    lists = similarity.top_k(similarity.similarity_matrix(q_adapted, g_adapted), s["k"])
    report = evaluation.recall_at_k(lists, heldout.ground_truth, KS, dataset=heldout.name)
    n = s["n"]
    per_epoch = sum(1 for b in range(0, n, s["batch_size"]) if min(b + s["batch_size"], n) - b >= 2)
    return OpResult(
        outputs={"params": params, "trace": trace, "lists": lists,
                 "recall_after": report.recall[1]},
        counters={
            "data.bytes_read": _bytes_of(manifest) + Path(heldout.query_path).stat().st_size,
            "similarity.score_bytes": n * n * 4,
            "objective.steps": s["epochs"] * per_epoch,
        },
    )


def op_cli(ctx: Context, tracer) -> OpResult:
    """cli-small: eight sequential `python -m embsearch.cli` processes."""
    result = OpResult(attempted=len(CLI_COMMANDS))
    for command, argv in CLI_COMMANDS:
        argv = [a.format(k=ctx.sizes["k"]) for a in argv]
        name = "eval" if command.startswith("eval_") else command
        span = tracer.begin(f"cli.{name}") if tracer else None
        try:
            code = subprocess.run([sys.executable, "-m", "embsearch.cli", *argv],
                                  cwd=ctx.out, capture_output=True,
                                  timeout=CLI_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if span:
                tracer.end(span)
        if code != 0:
            result.failed_commands.add(command)
            print(f"embsearch {' '.join(argv)} exited with {code}", file=sys.stderr)
    return result


OPS = {
    "cli-small": op_cli,
    "search-large": op_search_resolve,
    "train-mid": op_train,
}


def _oracle(ctx: Context, key, make):
    """Oracle rows depend only on the seed's inputs, so compute them once."""
    if key not in ctx.oracles:
        ctx.oracles[key] = make()
    return ctx.oracles[key]


def _plain_oracle(ctx: Context, manifest: str):
    def make():
        path = ctx.ds / manifest
        return verify.oracle_rows(verify.load_unit(path, "query"),
                                  verify.load_unit(path, "gallery"), ctx.sizes["k"], ctx.seed)
    return _oracle(ctx, manifest, make)


def _adapted_oracle(ctx: Context, manifest: str, adapter: Path):
    # keyed by the adapter's digest: a wrong adapter must not reuse an oracle
    def make():
        w_text, w_image = verify.read_adapter(adapter)
        path = ctx.ds / manifest
        return verify.oracle_rows(verify.project(verify.load_unit(path, "query"), w_text),
                                  verify.project(verify.load_unit(path, "gallery"), w_image),
                                  ctx.sizes["k"], ctx.seed)
    return _oracle(ctx, (manifest, verify.sha256(adapter)), make)


def _check_resolution(ctx: Context, result: OpResult, library_before, library_after):
    """Checks shared by every workload that resolves; returns {check: command}."""
    n, k, out = ctx.sizes["n"], ctx.sizes["k"], ctx.out
    gt = verify.ground_truth(ctx.ds / "manifest.json")
    ranked = verify.RankedFile(out / "ranked.tsv", n, k)
    resolved = verify.RankedFile(out / "resolved.tsv", n, k)
    failed = {c: "search" for c in verify.check_ranked(ranked, _plain_oracle(ctx, "manifest.json"))}
    resolve_checks = verify.check_resolved(resolved, ranked) + verify.check_audit(out / "audit.tsv")
    failed.update({c: "resolve" for c in resolve_checks})
    if not resolve_checks and ranked.layout_ok:
        result.counters.update({f"resolver.{key}": v for key, v in verify.resolver_counters(
            resolved, ranked, out / "audit.tsv", ctx.sizes["depth"]).items()})
        result.counters["similarity.tsv_bytes"] = (out / "ranked.tsv").stat().st_size
        result.counters["resolver.recall_before"] = verify.recall_at_1(ranked, gt)
        result.counters["resolver.recall_after"] = verify.recall_at_1(resolved, gt)
        result.counters["recall_at_1"] = verify.recall_at_1(resolved, gt)
    failed.update({c: "eval_before" for c in verify.check_recall(ranked, gt, library_before)})
    failed.update({c: "eval_after" for c in verify.check_recall(resolved, gt, library_after)})
    return failed


def _report_recall(path: Path) -> float:
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("recall@1: "):
            return float(line.split(": ", 1)[1])
    raise ValueError(f"{path}: no recall@1 line")


def _write_outputs(ctx: Context, result: OpResult) -> None:
    """train-mid keeps its results in memory; write them for the checks."""
    if ctx.workload == "train-mid":
        o, out = result.outputs, ctx.out
        objective.save_adapter(out / "model.adapter", o["params"])
        objective.write_trace(out / "trace.tsv", o["trace"], meta={"seed": ctx.seed})
        similarity.write_ranked_lists(out / "adapted.tsv", o["lists"],
                                      meta={"seed": ctx.seed, "k": ctx.sizes["k"]})


def _check_outputs(ctx: Context, result: OpResult) -> dict[str, str]:
    """Every check on one operation's files; returns {failed check: command}."""
    out = ctx.out
    failed: dict[str, str] = {}
    if ctx.workload == "cli-small":
        failed.update(_check_resolution(ctx, result, _report_recall(out / "before.txt"),
                                        _report_recall(out / "after.txt")))
        n, k = ctx.sizes["n"], ctx.sizes["k"]
        adapted = verify.RankedFile(out / "ranked_ft.tsv", n, k)
        oracle = _adapted_oracle(ctx, "manifest.json", out / "model.adapter")
        failed.update({c: "search_adapter" for c in verify.check_ranked(adapted, oracle)})
    elif ctx.workload == "train-mid":
        adapted = verify.RankedFile(out / "adapted.tsv", ctx.sizes["n"], ctx.sizes["k"])
        oracle = _adapted_oracle(ctx, "manifest_heldout.json", out / "model.adapter")
        gt = verify.ground_truth(ctx.ds / "manifest_heldout.json")
        failed.update({c: "train" for c in verify.check_ranked(adapted, oracle)})
        failed.update({c: "train" for c in verify.check_recall(
            adapted, gt, result.outputs["recall_after"])})
        if adapted.layout_ok:
            result.counters["recall_at_1"] = verify.recall_at_1(adapted, gt)
    else:
        failed.update(_check_resolution(ctx, result, result.outputs["recall_before"],
                                        result.outputs["recall_after"]))
    if ctx.digests is not None:
        failed.update({c: "digest" for c in verify.check_digests(ctx.digests, out)})
    return failed


def verify_op(ctx: Context, result: OpResult) -> None:
    """Check the files an operation wrote; record failures and counters.

    The first operation that passes gets every check; the program is
    deterministic, so each later one need only write the same bytes, and
    it inherits the first one's counters.
    """
    failed: dict[str, str] = {}
    try:
        _write_outputs(ctx, result)
        files = {f: verify.sha256(ctx.out / f) for f in DIGEST_FILES[ctx.workload]}
        if ctx.reference is None:
            failed = _check_outputs(ctx, result)
            if not failed:
                ctx.reference = (files, dict(result.counters))
        else:
            reference, counters = ctx.reference
            failed = {f"{f}:differs_from_first_operation": "digest"
                      for f in files if files[f] != reference[f]}
            result.counters.update(counters)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failed[f"unreadable_output:{exc}"] = "verify"
    result.failed_checks = sorted(failed)
    if ctx.workload == "cli-small":
        # a digest or unreadable file fails the command that wrote it
        by_file = {"ranked.tsv": "search", "ranked_ft.tsv": "search_adapter",
                   "model.adapter": "train_adapter", "trace.tsv": "train_adapter",
                   "resolved.tsv": "resolve", "audit.tsv": "resolve",
                   "before.txt": "eval_before", "after.txt": "eval_after"}
        for check, command in failed.items():
            if command in ("digest", "verify"):
                command = next((c for f, c in by_file.items() if f in check), "report")
            result.failed_commands.add(command)
