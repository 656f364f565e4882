"""Recall@k computation and before/after comparison reports.

With exactly one relevant gallery item per query, Recall@k is the fraction
of queries whose ground-truth id appears in their top k. Reports serialize
to key-value text with a fixed field order so diffs stay meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import _read_text, _require_one_line
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
    """Two runs' recall per k, in the runs' k order; the changes are derived."""

    before: dict[int, float]
    after: dict[int, float]

    @property
    def delta(self) -> dict[int, float]:
        return {k: self.after[k] - self.before[k] for k in self.before}

    @property
    def regressions(self) -> list[int]:
        return [k for k, d in self.delta.items() if d < 0]


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
    """The pair of two runs' recall; runs over other datasets or k values raise."""
    if before.dataset != after.dataset or before.k_values != after.k_values:
        raise MismatchedRuns("reports cover different datasets or k values")
    return DeltaReport(before={k: before.recall[k] for k in before.k_values},
                       after={k: after.recall[k] for k in after.k_values})


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
    for text in lines:  # a line break in a value would add a field
        _require_one_line(text, "report line")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> EvalReport:
    """Parse a report file; a key or a k_values entry given twice, or a
    k_values entry or n_queries below 1, raises ParseError, and each k_values
    entry needs a recall@k line in [0, 1]."""
    fields: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path, "report file").splitlines(), 1):
        if not line.strip():
            continue
        if ": " not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key: value'")
        key, value = line.split(": ", 1)
        if key in fields:
            raise ParseError(f"{path}:{lineno}: {key} given twice")
        fields[key], linenos[key] = value, lineno
    try:
        k_values = [int(k) for k in fields["k_values"].split(",")]
        twice = [k for i, k in enumerate(k_values) if k in k_values[:i]]
        if twice:
            raise ParseError(f"{path}:{linenos['k_values']}: k_values gives {twice[0]} twice")
        # recall_at_k refuses a cutoff below 1, and write_report never writes one
        below = [k for k in k_values if k < 1]
        if below:
            raise ParseError(f"{path}:{linenos['k_values']}: k_values gives {below[0]}, below 1")
        n_queries = int(fields["n_queries"])
        if n_queries < 1:  # recall_at_k refuses an empty ranking
            raise ParseError(f"{path}:{linenos['n_queries']}: n_queries is {n_queries}, below 1")
        recall = {k: float(fields[f"recall@{k}"]) for k in k_values}
        for k, value in recall.items():
            if not 0.0 <= value <= 1.0:  # NaN fails the comparison
                raise ValueError(f"recall@{k} must be in [0, 1], got {value}")
        return EvalReport(
            dataset=fields["dataset"],
            k_values=k_values,
            recall=recall,
            n_queries=n_queries,
            config={key[len("config."):]: value for key, value in fields.items()
                    if key.startswith("config.")},
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed field: {exc}") from exc


def render_delta_table(delta: DeltaReport) -> str:
    """Aligned plain-text comparison table, recall as percent to 2 decimals;
    rel% is the change relative to before, 0 where before is 0."""
    header = f"{'k':>4}  {'before':>8}  {'after':>8}  {'delta':>8}  {'rel%':>8}"
    rows = [header, "-" * len(header)]
    regressions = delta.regressions
    for k, d in delta.delta.items():
        before = delta.before[k]
        relative = d / before if before else 0.0
        flag = "  (regression)" if k in regressions else ""
        rows.append(
            f"{k:>4}  {100 * before:>8.2f}  {100 * delta.after[k]:>8.2f}  "
            f"{100 * d:>+8.2f}  {100 * relative:>+8.2f}{flag}"
        )
    return "\n".join(rows)
