"""Command-line pipeline: synthesize, validate, search, train, resolve, eval.

Stages communicate only through documented files; every output embeds the
effective configuration and seed so re-runs are byte-identical.
Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data, evaluation, objective, resolver, similarity
from .errors import NotNormalized, PipelineError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the pipeline contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--ks must be comma-separated integers: {exc}") from exc
    if not ks:
        raise UsageError("--ks must name at least one cutoff")
    return ks


def _config(cls, args):
    """cls from the flags that name its fields; a flag left unset is absent
    from args (argparse.SUPPRESS), so its field keeps the class default."""
    fields = [f.name for f in dataclasses.fields(cls)]
    return cls(**{name: getattr(args, name) for name in fields if name in args})


def _load_normalized(manifest: data.DatasetManifest, split: str) -> data.EmbeddingMatrix:
    return data.l2_normalize(data.load_embeddings(manifest, split))


def cmd_gen_synth(args) -> int:
    cfg = _config(data.SynthConfig, args)
    manifest = data.generate_synthetic(cfg, args.out, name=args.name, heldout=args.heldout)
    print(f"wrote {manifest.name}: {manifest.query_count} queries, "
          f"{manifest.gallery_count} gallery rows, dim {manifest.dim} -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    """A PASS or FAIL line per check as it runs, then a WARN line per split
    that EmbeddingMatrix refuses as not unit-normalized; 2 if a check failed."""
    try:
        manifest = data.load_manifest(args.manifest)
    except PipelineError as exc:
        # the loader checks split file sizes before the split checks can report them
        print(f"FAIL  manifest  ({exc})")
        raise
    print("PASS  manifest")  # a DatasetManifest checks its rules when built
    failed, warnings = [], []
    for split in ("query", "gallery"):
        try:
            rows = data.load_embeddings(manifest, split)
        except PipelineError as exc:
            print(f"FAIL  {split}  ({exc})")
            failed.append(split)
            continue
        print(f"PASS  {split}")
        try:
            data.EmbeddingMatrix(rows)
        except NotNormalized as exc:
            warnings.append(f"WARN  {split} rows are not unit-normalized: {exc}")
    if len(np.unique(manifest.ground_truth)) == len(manifest.ground_truth):
        print("PASS  ground_truth_one_to_one")
    else:
        print("FAIL  ground_truth_one_to_one  (duplicate gallery targets)")
        failed.append("ground_truth_one_to_one")
    for warning in warnings:
        print(warning)
    return 2 if failed else 0


def cmd_search(args) -> int:
    manifest = data.load_manifest(args.manifest)
    queries = _load_normalized(manifest, "query")
    gallery = _load_normalized(manifest, "gallery")
    meta = {"dataset": manifest.name, "seed": manifest.seed, "k": args.k}
    if args.adapter:
        params = objective.load_adapter(args.adapter)
        queries = objective.apply_adapter(queries, params, "text")
        gallery = objective.apply_adapter(gallery, params, "image")
        meta["adapter"] = Path(args.adapter).name
    sims = similarity.similarity_matrix(queries, gallery)
    lists = similarity.top_k(sims, args.k)
    data._write_all([
        (args.out, lambda path: similarity.write_ranked_lists(path, lists, meta=meta))])
    print(f"wrote {len(lists)} ranked lists (k={args.k}) -> {args.out}")
    return 0


def cmd_train_adapter(args) -> int:
    data._require_distinct([args.out, args.trace])
    manifest = data.load_manifest(args.manifest)
    queries = _load_normalized(manifest, "query")
    gallery = _load_normalized(manifest, "gallery")
    cfg = _config(objective.TrainConfig, args)
    params, trace = objective.train_adapter(queries, gallery, manifest.ground_truth, cfg)
    meta = {"dataset": manifest.name, **dataclasses.asdict(cfg)}
    data._write_all([(args.out, lambda path: objective.save_adapter(path, params)),
                     (args.trace, lambda path: objective.write_trace(path, trace, meta=meta))])
    if trace:
        print(f"trained {cfg.epochs} epochs: total loss "
              f"{trace[0].total:.6f} -> {trace[-1].total:.6f}")
    print(f"wrote adapter -> {args.out}")
    return 0


def cmd_resolve(args) -> int:
    data._require_distinct([args.out, args.audit])
    lists = similarity.read_ranked_lists(args.ranked)
    policy = _config(resolver.ResolutionPolicy, args)
    query_embeddings = None
    if policy.similarity_gate is not None:
        if not args.manifest:
            raise UsageError("--gate requires --manifest for query embeddings")
        manifest = data.load_manifest(args.manifest)
        query_embeddings = _load_normalized(manifest, "query")
    resolution = resolver.resolve(lists, policy, query_embeddings)
    meta = {
        "depth": policy.depth,
        "max_rounds": policy.max_rounds if policy.max_rounds is not None else "auto",
        "gate": policy.similarity_gate if policy.similarity_gate is not None else "off",
        "source": Path(args.ranked).name,
    }
    data._write_all([
        (args.out, lambda path: resolver.write_resolution(path, lists, resolution, meta=meta)),
        (args.audit, lambda path: resolver.write_audit(path, resolution, meta=meta))])
    stopped = "" if resolution.converged else (
        f"; {'stalled' if resolution.stalled else 'stopped at the round cap'} "
        f"with {resolution.live_conflicts} conflict group(s) still live"
    )
    # gallery ids that end as the answer of two or more queries
    _, holders = np.unique(lists.ids[np.arange(len(lists)), resolution.ranks], return_counts=True)
    print(f"resolved {len(lists)} lists in {resolution.rounds} round(s); "
          f"{len(resolution.audit)} replacement(s), "
          f"{len(resolution.unresolved)} unresolved{stopped}; "
          f"{np.count_nonzero(holders > 1)} answer(s) held by more than one query")
    return 0


def cmd_eval(args) -> int:
    manifest = data.load_manifest(args.manifest)
    lists = similarity.read_ranked_lists(args.ranked)
    ks = _parse_ks(args.ks)
    report = evaluation.recall_at_k(
        lists,
        manifest.ground_truth,
        ks,
        dataset=manifest.name,
        config={"seed": manifest.seed, "source": Path(args.ranked).name},
    )
    data._write_all([(args.out, lambda path: evaluation.write_report(path, report))])
    for k in report.k_values:
        print(f"recall@{k}: {report.recall[k]:.4f}")
    return 0


def cmd_report(args) -> int:
    before = evaluation.read_report(args.before)
    after = evaluation.read_report(args.after)
    delta = evaluation.compare_reports(before, after)
    table = evaluation.render_delta_table(delta)
    data._write_all([(args.out, lambda path: path.write_text(table + "\n", encoding="utf-8"))])
    print(table)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="embsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a config flag's default is SUPPRESS, so _config keeps its field's default
    unset = argparse.SUPPRESS
    p = sub.add_parser("gen-synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, dest="n_identities", metavar="N", default=unset)
    p.add_argument("--dim", type=int, default=unset)
    p.add_argument("--sigma", type=float, dest="noise_sigma", metavar="SIGMA", default=unset)
    p.add_argument("--confusable-fraction", type=float, default=unset)
    p.add_argument("--confusable-gap", type=float, default=unset)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--heldout", action="store_true",
                   help="also write a held-out query split sharing the gallery")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("validate", help="run dataset health checks")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("search", help="rank the gallery for every query")
    p.add_argument("manifest")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--adapter", help="apply trained adapter before searching")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train-adapter", help="fit the linear adapter")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    for f in dataclasses.fields(objective.TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=unset)
    p.set_defaults(func=cmd_train_adapter)

    p = sub.add_parser("resolve", help="resolve shared-answer conflicts")
    p.add_argument("ranked")
    p.add_argument("--out", required=True)
    p.add_argument("--audit")
    p.add_argument("--depth", type=int, default=unset)
    p.add_argument("--max-rounds", type=int, default=unset)
    p.add_argument("--gate", type=float, dest="similarity_gate", metavar="GATE", default=unset,
                   help="query-query cosine threshold gating conflict groups")
    p.add_argument("--manifest", help="needed by --gate to load query embeddings")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("eval", help="compute Recall@k against ground truth")
    p.add_argument("ranked")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="diff two evaluation reports")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, OSError) as exc:  # OSError: an output the file system refuses
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
