#!/usr/bin/env python3
"""Run the frozen seed-7 confusable benchmark end to end.

Generates the synthetic dataset, searches, resolves conflicts, trains the
adapter, and prints the before/after Recall@k table. All artifacts land in
the output directory and are byte-identical across re-runs.
"""
import argparse
from pathlib import Path

from embsearch import data, evaluation, objective, resolver, similarity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("benchmark_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--sigma", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    cfg = data.SynthConfig(
        n_identities=args.n,
        dim=args.dim,
        noise_sigma=args.sigma,
        confusable_fraction=0.5,
        confusable_gap=0.02,
        seed=args.seed,
    )
    manifest = data.generate_synthetic(cfg, args.out, heldout=True)
    queries = data.l2_normalize(data.load_embeddings(manifest, "query"))
    gallery = data.l2_normalize(data.load_embeddings(manifest, "gallery"))

    sims = similarity.similarity_matrix(queries, gallery)
    lists = similarity.top_k(sims, args.k)
    similarity.write_ranked_lists(args.out / "ranked.tsv", lists,
                                  meta={"seed": args.seed, "k": args.k})
    ks = [1, 5, min(args.k, 10)]
    before = evaluation.recall_at_k(lists, manifest.ground_truth, ks,
                                    dataset=manifest.name)
    evaluation.write_report(args.out / "report_before.txt", before)

    res = resolver.resolve(lists)
    resolver.write_resolution(args.out / "resolved.tsv", lists, res,
                              meta={"seed": args.seed})
    resolver.write_audit(args.out / "audit.tsv", res, meta={"seed": args.seed})
    reordered, _ = resolver.resolution_to_lists(lists, res)
    after = evaluation.recall_at_k(reordered, manifest.ground_truth, ks,
                                   dataset=manifest.name)
    evaluation.write_report(args.out / "report_after.txt", after)

    delta = evaluation.compare_reports(before, after)
    print("conflict resolution:")
    print(evaluation.render_delta_table(delta))
    stopped = "" if res.converged else (
        f"; stopped at the round cap with {res.live_conflicts} "
        "conflict group(s) still live"
    )
    print(f"rounds={res.rounds} replacements={len(res.audit)} "
          f"unresolved={sorted(res.unresolved)} converged={res.converged} "
          f"live_conflicts={res.live_conflicts}{stopped}")

    train_cfg = objective.TrainConfig(seed=args.seed)
    params, trace = objective.train_adapter(queries, gallery,
                                            manifest.ground_truth, train_cfg)
    objective.save_adapter(args.out / "model.adapter", params)
    objective.write_trace(args.out / "trace.tsv", trace,
                          meta={"seed": args.seed})
    print(f"\nadapter training: total loss {trace[0].total:.8f} -> "
          f"{trace[-1].total:.8f} over {train_cfg.epochs} epochs")

    heldout = data.load_manifest(args.out / "manifest_heldout.json")
    q_held = data.l2_normalize(data.load_embeddings(heldout, "query"))
    base_lists = similarity.top_k(similarity.similarity_matrix(q_held, gallery), args.k)
    base = evaluation.recall_at_k(base_lists, heldout.ground_truth, ks,
                                  dataset=heldout.name)
    q_adapted = objective.apply_adapter(q_held, params, "text")
    g_adapted = objective.apply_adapter(gallery, params, "image")
    adapted_lists = similarity.top_k(
        similarity.similarity_matrix(q_adapted, g_adapted), args.k
    )
    adapted = evaluation.recall_at_k(adapted_lists, heldout.ground_truth, ks,
                                     dataset=heldout.name)
    print("\nheld-out queries, identity vs trained adapter:")
    print(evaluation.render_delta_table(evaluation.compare_reports(base, adapted)))


if __name__ == "__main__":
    main()
