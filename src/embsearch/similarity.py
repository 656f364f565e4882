"""Exact batched cosine similarity and deterministic top-k retrieval.

Inputs must be unit-normalized so the dense product is cosine similarity.
Ties are always broken toward the lower gallery id, which makes ranked
lists reproducible bit-for-bit across runs.

Top-k is exact partial selection per block of query rows, after the tiled
k-selection of flat exact indexes (Johnson, Douze & Jegou, arXiv:1702.08734):
each row's k-th best score is found with a partition, every column at or
above it is kept, and the kept columns are ordered by (-score, gallery id).
Beyond the score matrix and the returned lists, its working memory is
O(BLOCK_SCORES), i.e. O(block rows x n_gallery), never O(n_queries x n_gallery).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingMatrix, _read_text
from .errors import DimensionMismatch, KOutOfRange, NonFiniteValue, NotNormalized, ParseError

# Scores top_k examines at once (1 MB of float32): a block holds
# max(1, BLOCK_SCORES // n_gallery) query rows, which bounds top_k's working
# memory independently of n_queries and keeps each block cache-sized.
BLOCK_SCORES = 1 << 18


@dataclass
class RankedList:
    """Retrieved gallery ids for one query, best first, scores non-increasing."""

    query_id: int
    entries: list[tuple[int, float]]


def similarity_matrix(queries: EmbeddingMatrix, gallery: EmbeddingMatrix) -> np.ndarray:
    """Dense n_queries x n_gallery cosine score matrix (float32)."""
    if not queries.normalized or not gallery.normalized:
        raise NotNormalized("similarity_matrix requires normalized inputs")
    if queries.dim != gallery.dim:
        raise DimensionMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    sims = queries.data @ gallery.data.T
    if not np.all(np.isfinite(sims)):
        raise NonFiniteValue("similarity matrix contains non-finite entries")
    return sims


def top_k(sims: np.ndarray, k: int) -> list[RankedList]:
    """Per-query k best gallery ids; equal scores resolve to the lower id.

    The result equals a stable sort of each row by descending score, cut to
    k, including for non-finite scores: -0.0 ties with 0.0, +inf ranks
    first, -inf after every finite score, and NaN last of all, NaNs among
    themselves in ascending id. A row that holds a NaN is ordered in full,
    because its k-th best score cannot be read from the partition.
    """
    n_queries, n_gallery = sims.shape
    if not 1 <= k <= n_gallery:
        raise KOutOfRange(f"k={k} outside [1, {n_gallery}]")
    step = max(1, BLOCK_SCORES // n_gallery)
    kth = n_gallery - k
    lists = []
    for lo in range(0, n_queries, step):
        block = sims[lo:lo + step]
        # ascending partition puts each row's k best (NaN counted as largest)
        # at kth and after, so a NaN anywhere in a row shows up in that tail
        tail = np.partition(block, kth, axis=1)[:, kth:]
        keep = block >= tail[:, :1]
        keep[np.isnan(tail).any(axis=1)] = True
        # flat indices: 2-D nonzero is several times slower on wide rows
        rows, cols = np.divmod(np.flatnonzero(keep), n_gallery)
        scores = block[rows, cols]
        order = np.lexsort((cols, -scores, rows))
        # every row keeps at least k columns; rows are contiguous in order
        starts = np.searchsorted(rows, np.arange(len(block)))
        pick = order[(starts[:, None] + np.arange(k)).ravel()]
        ids = cols[pick].reshape(-1, k).tolist()
        picked = scores[pick].reshape(-1, k).tolist()
        lists.extend(
            RankedList(query_id=lo + i, entries=list(zip(ids[i], picked[i])))
            for i in range(len(ids))
        )
    return lists


def write_ranked_lists(
    path: str | Path,
    lists: list[RankedList],
    meta: dict | None = None,
    source_ranks: dict[int, list[int]] | None = None,
) -> None:
    """Serialize lists as `query_id TAB rank TAB gallery_id TAB score` lines.

    Scores carry 9 significant digits, enough to round-trip float32 exactly.
    An optional fifth column records each entry's rank in the pre-resolution
    list. Metadata is embedded as leading `# key=value` comment lines.
    """
    out = []
    for key, value in (meta or {}).items():
        out.append(f"# {key}={value}")
    for rl in lists:
        ranks = source_ranks.get(rl.query_id) if source_ranks else None
        for j, (gid, score) in enumerate(rl.entries):
            line = f"{rl.query_id}\t{j + 1}\t{gid}\t{score:.9g}"
            if ranks is not None:
                line += f"\t{ranks[j]}"
            out.append(line)
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_ranked_lists(path: str | Path) -> list[RankedList]:
    """Parse a ranked-list file; extra columns (source_rank) are ignored."""
    lists: dict[int, list[tuple[int, float]]] = {}
    for lineno, line in enumerate(_read_text(path, "ranked-list file").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 4:
            raise ParseError(f"{path}:{lineno}: expected at least 4 tab-separated fields")
        try:
            qid, rank, gid, score = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        entries = lists.setdefault(qid, [])
        if rank != len(entries) + 1:
            raise ParseError(f"{path}:{lineno}: rank {rank} out of order for query {qid}")
        entries.append((gid, score))
    return [RankedList(query_id=q, entries=lists[q]) for q in sorted(lists)]
