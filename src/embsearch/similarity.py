"""Exact batched cosine similarity and deterministic top-k retrieval.

Inputs must be unit-normalized so the dense product is cosine similarity.
Ties are always broken toward the lower gallery id, which makes ranked
lists reproducible bit-for-bit across runs.

Top-k is exact selection per block of query rows, after the tiled
k-selection of flat exact indexes (Johnson, Douze & Jegou, arXiv:1702.08734).
Each row's columns are cut into about 4k disjoint chunks; the k-th largest
chunk maximum is a floor that at least k of the row's scores reach, so every
column at or above it holds the row's true top k. Only those columns are
ordered by (-score, gallery id). This reads each score twice (chunk maxima,
then the floor comparison) and partitions only the ~4k maxima, never a whole
row. Beyond the score matrix and the returned ranking, its working memory is
O(BLOCK_SCORES), i.e. O(block rows x n_gallery), never O(n_queries x n_gallery).

similarity_matrix proves finiteness from its inputs when it can: no dot
product of d terms can exceed d * max|q| * max|g|. Only when that bound does
not rule out overflow, or an input holds NaN or inf, does it scan the scores
block by block.

Ranked lists are held as one columnar Ranking: ascending query ids and
(n_queries, k) arrays of gallery ids and scores. Every query's list has the
same length k.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingMatrix, _read_text
from .errors import (
    DimensionMismatch,
    InvalidRanking,
    KOutOfRange,
    NonFiniteValue,
    NotNormalized,
    ParseError,
)

# Scores examined at once (1 MB of float32) by top_k and by the fallback
# finiteness scan of similarity_matrix: a block holds
# max(1, BLOCK_SCORES // n_gallery) query rows, which bounds working memory
# independently of n_queries and keeps each block cache-sized.
BLOCK_SCORES = 1 << 18

# Below 2**22 terms, float32 rounding grows a dot product's magnitude by
# less than (1 + 2**-24)**(2**22) < 2 over the exact sum of |terms|
_MAX_PROVEN_DIM = 1 << 22
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# int64 range: ids outside it cannot be stored in a Ranking
_INT64 = range(-(1 << 63), 1 << 63)


def _block_rows(n_gallery: int) -> int:
    return max(1, BLOCK_SCORES // max(1, n_gallery))


def _int64_ids(values) -> np.ndarray:
    """values as int64; InvalidRanking if the cast changes an entry (NaN, inf
    and out-of-range floats cast to garbage, their warning silenced)."""
    ids = raw = np.asarray(values)
    if raw.dtype != np.int64:
        with np.errstate(invalid="ignore"):
            ids = raw.astype(np.int64)
        if not np.array_equal(ids, raw):
            raise InvalidRanking("ids must be finite integral values within the int64 range")
    return ids


@dataclass
class Ranking:
    """Ranked lists of every query, one row per query, best entry first.

    query_ids (int64[n]) ascend strictly; ids (int64[n, k]) and scores
    (float64[n, k]) hold each query's list, so every list has the same
    length k. The fields are coerced to those dtypes (no copy when they
    already have them); input that cannot take this form, such as an id
    that is not a finite integral value, raises InvalidRanking.
    """

    query_ids: np.ndarray
    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        try:
            self.query_ids = _int64_ids(self.query_ids)
            self.ids = _int64_ids(self.ids)
            self.scores = np.asarray(self.scores, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRanking(f"ranked lists do not form int64/float64 arrays: {exc}") from None
        if (self.query_ids.ndim != 1 or self.ids.ndim != 2 or self.ids.shape != self.scores.shape
                or len(self.ids) != len(self.query_ids)):
            raise InvalidRanking(
                f"query ids {self.query_ids.shape}, ids {self.ids.shape} and scores "
                f"{self.scores.shape} do not hold one equal-length list per query"
            )
        if np.any(np.diff(self.query_ids) <= 0):
            raise InvalidRanking("query ids must be strictly ascending")

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return len(self.query_ids)


def _abs_max(a: np.ndarray) -> float:
    """max |a|, NaN if a holds one (numpy's max and min propagate NaN)."""
    return float(np.maximum(a.max(), -a.min()))


def _scores_bounded(q: np.ndarray, g: np.ndarray) -> bool:
    """Whether every entry of the float32 product q @ g.T is provably finite.

    Each entry sums d products of magnitude at most max|q| * max|g|, so it
    stays below 2 * d * max|q| * max|g| after rounding. False when an input
    is empty or not float32, holds NaN or inf, or the bound reaches
    float32's maximum.
    """
    d = q.shape[1]
    if not (q.dtype == g.dtype == np.float32 and q.size and g.size and d < _MAX_PROVEN_DIM):
        return False
    # a NaN or inf maximum makes the comparison False
    return 2.0 * d * _abs_max(q) * _abs_max(g) < _FLOAT32_MAX


def similarity_matrix(queries: EmbeddingMatrix, gallery: EmbeddingMatrix) -> np.ndarray:
    """Dense n_queries x n_gallery cosine score matrix (float32)."""
    if not queries.normalized or not gallery.normalized:
        raise NotNormalized("similarity_matrix requires normalized inputs")
    if queries.dim != gallery.dim:
        raise DimensionMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    sims = queries.data @ gallery.data.T
    if _scores_bounded(queries.data, gallery.data):
        return sims
    # per block, so the check never holds an n x n boolean mask
    step = _block_rows(sims.shape[1])
    for lo in range(0, len(sims), step):
        if not np.isfinite(sims[lo:lo + step]).all():
            raise NonFiniteValue("similarity matrix contains non-finite entries")
    return sims


def top_k(sims: np.ndarray, k: int) -> Ranking:
    """Per-query k best gallery ids; equal scores resolve to the lower id.

    The result equals a stable sort of each row by descending score, cut to
    k, including for non-finite scores: -0.0 ties with 0.0, +inf ranks
    first, -inf after every finite score, and NaN last of all, NaNs among
    themselves in ascending id. A row that holds a NaN is ordered in full,
    because its k-th best score cannot be read from the chunk maxima.
    Scores are widened to float64 exactly.
    """
    n_queries, n_gallery = sims.shape
    if not 1 <= k <= n_gallery:
        raise KOutOfRange(f"k={k} outside [1, {n_gallery}]")
    step = _block_rows(n_gallery)
    # chunks of `width` columns, the leftover columns one chunk each: at
    # least k chunks, about 4k when n_gallery >= 8k, every column when narrow
    width = max(1, n_gallery // (4 * k))
    split = n_gallery - n_gallery % width
    kth = split // width + (n_gallery - split) - k
    ids = np.empty((n_queries, k), dtype=np.int64)
    top = np.empty((n_queries, k), dtype=np.float64)
    for lo in range(0, n_queries, step):
        block = sims[lo:lo + step]
        # max propagates NaN, so a NaN anywhere in a row is a chunk maximum
        maxima = np.concatenate(
            (block[:, :split].reshape(len(block), -1, width).max(axis=2), block[:, split:]),
            axis=1,
        )
        # k distinct chunks reach the k-th largest maximum, so at least k
        # scores do and the row's top k lie at or above it; the ascending
        # partition counts NaN as largest, so a NaN row has NaN in its tail
        tail = np.partition(maxima, kth, axis=1)[:, kth:]
        keep = block >= tail[:, :1]
        keep[np.isnan(tail).any(axis=1)] = True
        # flat indices: 2-D nonzero is several times slower on wide rows
        rows, cols = np.divmod(np.flatnonzero(keep), n_gallery)
        scores = block[rows, cols]
        order = np.lexsort((cols, -scores, rows))
        # every row keeps at least k columns; rows are contiguous in order
        starts = np.searchsorted(rows, np.arange(len(block)))
        pick = order[(starts[:, None] + np.arange(k)).ravel()]
        ids[lo:lo + step] = cols[pick].reshape(-1, k)
        top[lo:lo + step] = scores[pick].reshape(-1, k)
    return Ranking(query_ids=np.arange(n_queries, dtype=np.int64), ids=ids, scores=top)


def write_ranked_lists(
    path: str | Path,
    ranking: Ranking,
    meta: dict | None = None,
    source_ranks: np.ndarray | None = None,
) -> None:
    """Serialize a ranking as `query_id TAB rank TAB gallery_id TAB score` lines.

    Scores carry 9 significant digits, enough to round-trip float32 exactly.
    An optional fifth column records each entry's rank in the pre-resolution
    list: source_ranks is an int array shaped like the ranking's ids.
    Metadata is embedded as leading `# key=value` comment lines.
    """
    n, k = ranking.ids.shape
    columns = [
        np.repeat(ranking.query_ids, k).tolist(),
        np.tile(np.arange(1, k + 1), n).tolist(),
        ranking.ids.ravel().tolist(),
        ranking.scores.ravel().tolist(),
    ]
    line = "%d\t%d\t%d\t%.9g"
    if source_ranks is not None:
        columns.append(np.asarray(source_ranks).ravel().tolist())
        line += "\t%d"
    # '%.9g' % x formats a float exactly as f"{x:.9g}"; one % call per file
    fields = [None] * (len(columns) * n * k)
    for j, column in enumerate(columns):
        fields[j::len(columns)] = column
    head = "".join(f"# {key}={value}\n" for key, value in (meta or {}).items())
    text = head + ((line + "\n") * (n * k)) % tuple(fields)
    Path(path).write_text(text or "\n", encoding="utf-8")


def _parse_error(path, lines: list[str], body: list[int]) -> ParseError:
    """The error for the first body line that cannot be parsed."""
    for i in body:
        parts = lines[i].split("\t")
        if len(parts) < 4:
            return ParseError(f"{path}:{i + 1}: expected at least 4 tab-separated fields")
        try:
            values = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            return ParseError(f"{path}:{i + 1}: {exc}")
        if any(v not in _INT64 for v in values[:3]):
            return ParseError(f"{path}:{i + 1}: integer outside the int64 range")
    return ParseError(f"{path}: malformed ranked-list file")


def read_ranked_lists(path: str | Path) -> Ranking:
    """Parse a ranked-list file; extra columns (source_rank) are ignored.

    A query's rows may be interleaved with other queries' rows but come in
    rank order. Every query needs the same number of entries and no gallery
    id twice: the first line that breaks a rule raises ParseError.
    """
    lines = _read_text(path, "ranked-list file").splitlines()
    # skip blank, whitespace-only and '#' lines
    body = [i for i, line in enumerate(lines) if line and line[0] != "#" and not line.isspace()]
    if not body:
        return Ranking(np.empty(0), np.empty((0, 0)), np.empty((0, 0)))
    rows = [lines[i] for i in body]
    tabs = [line.count("\t") for line in rows]
    if min(tabs) < 3:
        raise _parse_error(path, lines, body)
    width = tabs[0] + 1
    if max(tabs) != min(tabs):
        rows, width = ["\t".join(line.split("\t", 4)[:4]) for line in rows], 4
    # one split of the joined body, then Python's int and float per column
    fields = "\t".join(rows).split("\t")
    try:
        qids, ranks, gids = (
            np.array(list(map(int, fields[j::width])), dtype=np.int64) for j in range(3)
        )
        scores = np.array(list(map(float, fields[3::width])), dtype=np.float64)
    except (ValueError, OverflowError):
        raise _parse_error(path, lines, body) from None

    def fail(row, message):
        raise ParseError(f"{path}:{body[row] + 1}: {message}")

    # rows grouped by query, file order kept within a query
    order = np.argsort(qids, kind="stable")
    grouped = qids[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    counts = np.diff(starts, append=len(rows))
    within = np.arange(len(rows)) - np.repeat(starts, counts)
    bad = order[ranks[order] != within + 1]
    if bad.size:
        i = bad.min()
        fail(i, f"rank {ranks[i]} out of order for query {qids[i]}")
    query_ids = grouped[starts]
    k = int(counts[np.searchsorted(query_ids, qids[0])])
    uneven = np.flatnonzero(counts != k)
    if uneven.size:
        # a short list fails on its last row, a long one on row k + 1
        at = order[starts[uneven] + np.minimum(counts[uneven], k + 1) - 1]
        j = int(np.argmin(at))
        fail(at[j], f"query {query_ids[uneven[j]]} has {counts[uneven[j]]} entries, "
                    f"query {qids[0]} has {k}: every list needs the same length")
    ids = gids[order].reshape(-1, k)
    by_id = np.argsort(ids, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(ids, by_id, axis=1)
    rep_row, rep_col = np.nonzero(sorted_ids[:, 1:] == sorted_ids[:, :-1])
    if rep_row.size:
        # the repeat is the later of two equal ids, which stable order puts second
        at = order[starts[rep_row] + by_id[rep_row, rep_col + 1]]
        j = int(np.argmin(at))
        fail(at[j], f"query {query_ids[rep_row[j]]} repeats gallery id {gids[at[j]]}")
    return Ranking(query_ids=query_ids, ids=ids, scores=scores[order].reshape(-1, k))
