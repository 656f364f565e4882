"""Exact batched cosine similarity and deterministic top-k retrieval.

Inputs must be EmbeddingMatrix objects, whose constructor checks
that every row is a finite unit row, so the dense product is cosine
similarity and every score lies in [-1, 1] up to rounding.
Ties are always broken toward the lower gallery id, which makes ranked
lists reproducible bit-for-bit across runs.

Top-k is exact selection per block of query rows, after the tiled
k-selection of flat exact indexes (Johnson, Douze & Jegou, arXiv:1702.08734).
Each row is cut into chunks that start every max(1, n_gallery // 4k) columns,
the last one shorter when that width does not divide n_gallery: at least k
chunks. The k-th largest chunk maximum is a floor that k scores reach, so the
columns at or above it hold the row's top k; only they are ordered by
(-score, gallery id), and no whole row is partitioned. Beyond the score
matrix and the returned ranking, its working memory is one data._row_bounds
block, O(data.BLOCK_SCORES), never O(n_queries x n_gallery).

Ranked lists are held as one columnar Ranking: ascending query ids and
(n_queries, k) arrays of gallery ids and scores. Every query's list has the
same length k.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingMatrix, _read_text, _row_bounds, _write_table
from .errors import (
    DimensionMismatch,
    InvalidRanking,
    KOutOfRange,
    NotNormalized,
    ParseError,
)

# int64 range: ids outside it cannot be stored in a Ranking
_INT64 = range(-(1 << 63), 1 << 63)


@dataclass
class Ranking:
    """Ranked lists of every query, one row per query, best entry first.

    query_ids (int64[n]) ascend strictly; ids (int64[n, k]) and scores
    (float64[n, k]) hold each query's list, so every list has the same
    length k. It converts nothing: a field that is not an np.ndarray of
    its dtype raises InvalidRanking, and the arrays are kept as given.
    """

    query_ids: np.ndarray
    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        for name, dtype in (("query_ids", np.int64), ("ids", np.int64), ("scores", np.float64)):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.dtype == dtype):
                raise InvalidRanking(f"{name} must be an np.ndarray of {np.dtype(dtype)}, "
                                     f"got {getattr(value, 'dtype', type(value).__name__)}")
        if (self.query_ids.ndim != 1 or self.ids.ndim != 2 or self.ids.shape != self.scores.shape
                or len(self.ids) != len(self.query_ids)):
            raise InvalidRanking(
                f"query ids {self.query_ids.shape}, ids {self.ids.shape} and scores "
                f"{self.scores.shape} do not hold one equal-length list per query"
            )
        if np.any(self.query_ids[1:] <= self.query_ids[:-1]):  # np.diff can overflow
            raise InvalidRanking("query ids must be strictly ascending")

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return len(self.query_ids)


def similarity_matrix(queries: EmbeddingMatrix, gallery: EmbeddingMatrix) -> np.ndarray:
    """Dense n_queries x n_gallery cosine score matrix (float32)."""
    if not (isinstance(queries, EmbeddingMatrix) and isinstance(gallery, EmbeddingMatrix)):
        raise NotNormalized("similarity_matrix requires EmbeddingMatrix inputs")
    if queries.dim != gallery.dim:
        raise DimensionMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    return queries.data @ gallery.data.T


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
    # a chunk starts every max(1, n_gallery // 4k) columns, the last one
    # shorter when that width does not divide n_gallery: one chunk per column
    # when n_gallery < 8k, else 4k to 6k chunks, so always at least k
    chunk_starts = np.arange(0, n_gallery, max(1, n_gallery // (4 * k)))
    kth = len(chunk_starts) - k
    ids = np.empty((n_queries, k), dtype=np.int64)
    top = np.empty((n_queries, k), dtype=np.float64)
    bounds = _row_bounds(n_queries, n_gallery)
    for lo, hi in zip(bounds, bounds[1:]):
        block = sims[lo:hi]
        # max propagates NaN, so a NaN anywhere in a row is a chunk maximum
        maxima = np.maximum.reduceat(block, chunk_starts, axis=1)
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
        ids[lo:hi] = cols[pick].reshape(-1, k)
        top[lo:hi] = scores[pick].reshape(-1, k)
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
        np.repeat(ranking.query_ids, k),
        np.tile(np.arange(1, k + 1), n),
        ranking.ids.ravel(),
        ranking.scores.ravel(),
    ]
    line = "%d\t%d\t%d\t%.9g"
    if source_ranks is not None:
        columns.append(np.asarray(source_ranks).ravel())
        line += "\t%d"
    _write_table(path, meta, line, columns)


def _body(lines: list[str]) -> list[int]:
    """Indices of the lines that hold entries: not blank, whitespace-only or '#'."""
    return [i for i, line in enumerate(lines) if line and line[0] != "#" and not line.isspace()]


# the four leading fields of a line, as both parsers return them
_LINE_FIELDS = np.dtype([
    ("query_id", np.int64), ("rank", np.int64), ("gallery_id", np.int64), ("score", np.float64),
])


def _parse_columns(path, lines: list[str]) -> list[np.ndarray]:
    """Query ids, ranks, gallery ids and scores of the body lines, in file
    order, by Python's int and float per field: the grammar of the format.
    It parses line by line and raises ParseError at the first line that
    cannot be parsed."""
    rows = []
    for i in _body(lines):
        parts = lines[i].split("\t")
        if len(parts) < 4:
            raise ParseError(f"{path}:{i + 1}: expected at least 4 tab-separated fields")
        try:
            values = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{i + 1}: {exc}") from None
        if any(v not in _INT64 for v in values[:3]):
            raise ParseError(f"{path}:{i + 1}: integer outside the int64 range")
        rows.append(values)
    table = np.array(rows, dtype=_LINE_FIELDS)
    return [table[name] for name in _LINE_FIELDS.names]


def _load_columns(text: str, lines: list[str]) -> list[np.ndarray] | None:
    r"""_parse_columns' result by numpy's C text reader, or None when that
    reader could disagree with it. None leaves the file to _parse_columns,
    the per-line parser that stops at the first bad line.

    It reads the same lines, so line boundaries agree. It runs only on text
    where its grammar is known to be no wider than _parse_columns':
    - non-ASCII characters only on '#' lines, which both skip: its integer
      parser turns some non-ASCII letters into digit values ('\u01fe' reads
      as 462). Lines are scanned only when the text is not all ASCII;
    - no '\x1f', which it strips around a number and Python's int does not;
    - every '#' starts a line: it drops an inline '#...' tail.
    Whatever it rejects or warns about (an empty body, '1_0', whitespace-only
    lines, an int64 overflow, a numpy that casts '1.0' to an int with a
    DeprecationWarning) returns None.
    """
    if not ("\x1f" not in text
            and text.count("#") == text.count("\n#") + text.startswith("#")
            and (text.isascii() or all(line.isascii() or line[:1] == "#" for line in lines))):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=_LINE_FIELDS, delimiter="\t", comments="#",
                               usecols=(0, 1, 2, 3), ndmin=1)
    except Exception:  # what it raises varies with numpy's version; the parser decides
        return None
    return [table[name] for name in _LINE_FIELDS.names]


def read_ranked_lists(path: str | Path) -> Ranking:
    """Parse a ranked-list file; extra columns (source_rank) are ignored.

    Lines are those of str.splitlines. Blank, whitespace-only and '#' lines
    are skipped; every other line holds at least four tab-separated fields,
    query id, rank and gallery id as Python's int() reads them (within int64)
    and the score as float() reads it. numpy's C reader parses the file
    first, and its result is kept only when it can agree with that grammar
    (see _load_columns); else a per-line parser, which defines the grammar
    and every ParseError for a line that cannot be parsed, reads the file
    and stops at the first bad line.

    A query's rows may be interleaved with other queries' rows but come in
    rank order. Every query needs the same number of entries and no gallery
    id twice: the first line that breaks a rule raises ParseError.
    """
    text = _read_text(path, "ranked-list file")
    lines = text.splitlines()
    qids, ranks, gids, scores = _load_columns(text, lines) or _parse_columns(path, lines)
    if not len(qids):
        return Ranking(np.empty(0, np.int64), np.empty((0, 0), np.int64), np.empty((0, 0)))

    def fail(row, message):
        # row counts body lines, as both parsers return them
        raise ParseError(f"{path}:{_body(lines)[row] + 1}: {message}")

    # rows grouped by query, file order kept within a query
    order = np.argsort(qids, kind="stable")
    grouped = qids[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    counts = np.diff(starts, append=len(qids))
    within = np.arange(len(qids)) - np.repeat(starts, counts)
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
