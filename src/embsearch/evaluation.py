"""Recall@k computation and before/after comparison reports.

With exactly one relevant gallery item per query, Recall@k is the fraction
of queries whose ground-truth id appears in their top k. Reports serialize
to key-value text with a fixed field order so diffs stay meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import _read_text
from .errors import (
    EmptyList,
    KExceedsDepth,
    KOutOfRange,
    MismatchedRuns,
    MissingGroundTruth,
    ParseError,
)
from .similarity import Ranking


@dataclass
class EvalReport:
    dataset: str
    k_values: list[int]
    recall: dict[int, float]
    n_queries: int
    config: dict = field(default_factory=dict)


@dataclass
class DeltaReport:
    dataset: str
    k_values: list[int]
    before: dict[int, float]
    after: dict[int, float]
    delta: dict[int, float]
    relative: dict[int, float]
    regressions: list[int]


def recall_at_k(
    ranking: Ranking,
    ground_truth: np.ndarray,
    ks: list[int],
    dataset: str = "",
    config: dict | None = None,
) -> EvalReport:
    """Hit rate at each cutoff in ks, averaged over queries.

    ground_truth (int64[n]) holds query q's gallery id at q, and the ranked
    query ids must be 0..n-1: a query without ground truth or without a
    ranked list is an error, so a partial file cannot report a partial recall.
    """
    if not ks or any(k < 1 for k in ks):
        raise KOutOfRange("every k must be a positive integer")
    if not len(ranking):
        raise EmptyList("no ranked lists to evaluate")
    ks = sorted(set(ks))
    if max(ks) > ranking.k:
        raise KExceedsDepth(f"k={max(ks)} exceeds retrieval depth {ranking.k}")
    qids, all_qids = ranking.query_ids, np.arange(len(ground_truth))
    if not np.array_equal(qids, all_qids):
        extra = qids[(qids < 0) | (qids >= len(ground_truth))]
        if extra.size:
            raise MissingGroundTruth(f"query {extra[0]} has no ground-truth entry")
        unranked = np.setdiff1d(all_qids, qids)[0]
        raise EmptyList(f"query {unranked} has ground truth but no ranked list")

    hits = ranking.ids == ground_truth[:, None]
    # 1-based rank of each query's first hit, k + 1 for a miss
    hit_ranks = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, ranking.k + 1)
    n = len(ranking)
    recall = {k: int(np.count_nonzero(hit_ranks <= k)) / n for k in ks}
    return EvalReport(
        dataset=dataset,
        k_values=ks,
        recall=recall,
        n_queries=n,
        config=dict(config or {}),
    )


def compare_reports(before: EvalReport, after: EvalReport) -> DeltaReport:
    """Per-k signed and relative recall change; negative deltas are flagged."""
    if before.dataset != after.dataset or before.k_values != after.k_values:
        raise MismatchedRuns("reports cover different datasets or k values")
    delta, relative, regressions = {}, {}, []
    for k in before.k_values:
        d = after.recall[k] - before.recall[k]
        delta[k] = d
        relative[k] = d / before.recall[k] if before.recall[k] else 0.0
        if d < 0:
            regressions.append(k)
    return DeltaReport(
        dataset=before.dataset,
        k_values=before.k_values,
        before=dict(before.recall),
        after=dict(after.recall),
        delta=delta,
        relative=relative,
        regressions=regressions,
    )


def write_report(path: str | Path, report: EvalReport) -> None:
    lines = [
        f"dataset: {report.dataset}",
        f"n_queries: {report.n_queries}",
        "k_values: " + ",".join(str(k) for k in report.k_values),
    ]
    for k in report.k_values:
        lines.append(f"recall@{k}: {report.recall[k]:.10g}")
    for key in sorted(report.config):
        lines.append(f"config.{key}: {report.config[key]}")
    # a constant line, kept so report files keep their bytes
    lines.append("timestamp: -")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> EvalReport:
    """Parse a report file; every k_values entry needs its recall@k line."""
    fields: dict[str, str] = {}
    config: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path, "report file").splitlines(), 1):
        if not line.strip():
            continue
        if ": " not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key: value'")
        key, value = line.split(": ", 1)
        if key.startswith("config."):
            config[key[len("config."):]] = value
        else:
            fields[key] = value
    try:
        k_values = [int(k) for k in fields["k_values"].split(",")]
        return EvalReport(
            dataset=fields["dataset"],
            k_values=k_values,
            recall={k: float(fields[f"recall@{k}"]) for k in k_values},
            n_queries=int(fields["n_queries"]),
            config=config,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed field: {exc}") from exc


def render_delta_table(delta: DeltaReport) -> str:
    """Aligned plain-text comparison table, recall as percent to 2 decimals."""
    header = f"{'k':>4}  {'before':>8}  {'after':>8}  {'delta':>8}  {'rel%':>8}"
    rows = [header, "-" * len(header)]
    for k in delta.k_values:
        flag = "  (regression)" if k in delta.regressions else ""
        rows.append(
            f"{k:>4}  {100 * delta.before[k]:>8.2f}  {100 * delta.after[k]:>8.2f}  "
            f"{100 * delta.delta[k]:>+8.2f}  {100 * delta.relative[k]:>+8.2f}{flag}"
        )
    return "\n".join(rows)
