"""Conflict resolution over ranked retrieval lists.

When several queries retrieve the same gallery answer, the member with the
highest score keeps it and every other member advances to its next-ranked
candidate; rounds repeat until no conflicts remain, or until a cap is hit
or a round would move no query, which the Resolution reports. Members that
run out of candidates keep their last entry and are flagged unresolved. A
Resolution holds arrays: each row's final rank, the unresolved query ids and
one audit record per replacement. The optional similarity gate takes the
query embeddings as an EmbeddingMatrix, whose rows are unit rows, and uses
their dot products as their cosines.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingMatrix, _check_fields, _write_table
from .errors import EmptyList, InvalidConfig, MissingEmbedding, NotNormalized, PointerOutOfBounds
from .similarity import Ranking, write_ranked_lists


@dataclass(frozen=True)
class ResolutionPolicy:
    """Knobs for conflict detection and replacement.

    depth widens detection: a query's current answer also conflicts with
    answers other queries hold within their next `depth` ranks. max_rounds
    defaults to the retrieval depth. similarity_gate, when set, keeps a
    group only if some pair of member query embeddings exceeds that cosine.
    The fields are checked when built, depth against k by resolve.
    """

    depth: int = 1
    max_rounds: int | None = None
    similarity_gate: float | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.depth < 1:
            raise InvalidConfig("depth must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise InvalidConfig("max_rounds must be >= 1")


# an audit record: winner and loser are query ids
AUDIT_DTYPE = np.dtype([("round", np.int64), ("answer_id", np.int64), ("winner", np.int64),
                        ("loser", np.int64), ("delta_s", np.float64)])


@dataclass
class Resolution:
    """The outcome of resolve, aligned with the rows of the resolved Ranking.

    ranks (int64[n]) holds each row's final 0-based pointer; unresolved the
    ascending ids of the queries that ran out of candidates; audit one
    AUDIT_DTYPE record per replacement, in the order made. live_conflicts
    counts the conflict groups among queries still in play when the run
    stopped with groups left: at the round cap, or (stalled) at a round in
    which no loser sits on its contested answer; it is 0 when resolution
    converged. Converged means no conflict among those queries only: an
    unresolved query is out of play, so it may end on an answer that
    another query also holds.
    """

    ranks: np.ndarray
    unresolved: np.ndarray
    audit: np.ndarray
    rounds: int = 0
    live_conflicts: int = 0
    stalled: bool = False

    @property
    def converged(self) -> bool:
        return self.live_conflicts == 0


def _query_cosines(query_embeddings: EmbeddingMatrix, ids: list[int]) -> np.ndarray:
    sub = query_embeddings.data[ids].astype(np.float64)
    return sub @ sub.T


def _changes(*keys: np.ndarray) -> np.ndarray:
    """True at each position whose keys differ from the previous position's."""
    changed = np.zeros(len(keys[0]), dtype=bool)
    changed[:1] = True
    for key in keys:
        changed[1:] |= key[1:] != key[:-1]
    return changed


def detect_conflicts(
    ranking: Ranking,
    policy: ResolutionPolicy,
    pos: np.ndarray,
    active: np.ndarray,
    query_embeddings: EmbeddingMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the active rows whose current answers coincide.

    pos holds each row's 0-based rank pointer and active (bool) which rows
    take part, one entry per row; pointers of a non-integer dtype, or an
    active pointer outside [0, k), raise PointerOutOfBounds. With depth > 1
    a row is also a member of a group when the answer occurs within its
    window of `depth` entries starting at its pointer. Returns (answers,
    rows, cols, starts): one entry per member, ordered by (answer id, query
    id), where cols is the member's 0-based rank of the answer and group g
    spans starts[g]:starts[g + 1]. query_embeddings, when given, must be an
    EmbeddingMatrix (NotNormalized otherwise) with a row for
    every ranked query id (MissingEmbedding otherwise).
    """
    pos, active = np.asarray(pos), np.asarray(active)
    if pos.shape != (len(ranking),) or active.shape != (len(ranking),):
        raise PointerOutOfBounds(
            f"pointers {pos.shape} and active flags {active.shape} need one entry "
            f"for each of the {len(ranking)} rows"
        )
    if pos.dtype.kind not in "iu":
        raise PointerOutOfBounds(f"pointers must be integers, got {pos.dtype}")
    live = np.flatnonzero(active)
    stray = live[(pos[live] < 0) | (pos[live] >= ranking.k)]
    if stray.size:
        row = stray[0]
        raise PointerOutOfBounds(
            f"query {ranking.query_ids[row]}: pointer {pos[row]} outside its list of {ranking.k}"
        )
    if query_embeddings is not None and not isinstance(query_embeddings, EmbeddingMatrix):
        raise NotNormalized("query embeddings must be an EmbeddingMatrix")
    gate = policy.similarity_gate
    if gate is not None:
        if query_embeddings is None:
            raise InvalidConfig("similarity_gate requires query embeddings")
        outside = (ranking.query_ids < 0) | (ranking.query_ids >= query_embeddings.rows)
        if outside.any():
            raise MissingEmbedding(
                f"query {ranking.query_ids[outside][0]} has no embedding; "
                f"the query embeddings hold {query_embeddings.rows} rows"
            )
    window = pos[live, None] + np.arange(policy.depth)
    inside = window < ranking.k
    rows = np.broadcast_to(live[:, None], window.shape)[inside]
    cols = window[inside]
    answers = ranking.ids[rows, cols]
    # one order for grouping; within a window a repeated id keeps its first rank
    order = np.lexsort((cols, rows, answers))
    answers, rows, cols = answers[order], rows[order], cols[order]
    first = _changes(answers, rows)
    answers, rows, cols = answers[first], rows[first], cols[first]
    starts = np.flatnonzero(_changes(answers))
    sizes = np.diff(starts, append=len(answers))
    keep = sizes >= 2
    if gate is not None:
        for g in np.flatnonzero(keep):
            ids = ranking.query_ids[rows[starts[g]:starts[g] + sizes[g]]].tolist()
            cos = _query_cosines(query_embeddings, ids)
            keep[g] = np.any(cos[np.triu_indices(len(ids), k=1)] > gate)
    member = np.repeat(keep, sizes)
    starts = np.r_[0, np.cumsum(sizes[keep])]
    return answers[member], rows[member], cols[member], starts


def resolve(
    ranking: Ranking,
    policy: ResolutionPolicy = ResolutionPolicy(),
    query_embeddings: EmbeddingMatrix | None = None,
) -> Resolution:
    """Iterate conflict rounds to a fixpoint and return final assignments.

    Each round runs detect_conflicts on the current pointers. Per group the
    highest-scoring member keeps the answer (score tie: lower query id);
    each loser whose pointer sits on the contested answer advances one rank.
    Exhausted queries keep their last entry, are flagged unresolved, and
    stop participating. A run that reaches max_rounds with groups still
    live records their number in live_conflicts (converged is then False).
    So does a round in which no loser sits on its contested answer, which
    only depth > 1 allows: it would move nobody, so the run ends there as
    stalled, the round neither counted nor audited. Every other round moves
    or exhausts a query, so a run ends within n * k rounds whatever the cap.
    Deterministic for a given input.
    """
    k = ranking.k
    if not len(ranking):
        raise EmptyList("no ranked lists to resolve")
    if not k:
        raise EmptyList(f"query {ranking.query_ids[0]} has an empty ranked list")
    if policy.depth > k:
        raise InvalidConfig(f"depth must be in [1, {k}]")
    max_rounds = policy.max_rounds if policy.max_rounds is not None else k

    qids = ranking.query_ids
    pos = np.zeros(len(ranking), dtype=np.int64)
    active = np.ones(len(ranking), dtype=bool)
    audit = [np.empty(0, AUDIT_DTYPE)]
    rounds = live_conflicts = 0
    stalled = False

    # one detection past the cap tells whether the run stopped with conflicts
    for round_index in range(1, max_rounds + 2):
        answers, rows, cols, starts = detect_conflicts(
            ranking, policy, pos, active, query_embeddings
        )
        if len(starts) == 1:
            break
        if round_index > max_rounds:
            live_conflicts = len(starts) - 1
            break
        scores = ranking.scores[rows, cols]
        sizes = np.diff(starts)
        group = np.repeat(np.arange(len(sizes)), sizes)
        # winner: highest score, then lower query id (NaN never wins, but a
        # group led by a NaN keeps its leader, as a running maximum would)
        leaders = starts[:-1]
        winners = np.lexsort((rows, -scores, group))[leaders]
        led_by_nan = np.isnan(scores[leaders])
        winners[led_by_nan] = leaders[led_by_nan]
        winner = winners[group]
        lose = np.flatnonzero(winner != np.arange(len(rows)))
        if not np.any(cols[lose] == pos[rows[lose]]):
            live_conflicts, stalled = len(starts) - 1, True
            break
        rounds = round_index
        made = np.empty(len(lose), AUDIT_DTYPE)
        made["round"], made["answer_id"] = round_index, answers[lose]
        made["winner"], made["loser"] = qids[rows[winner[lose]]], qids[rows[lose]]
        with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf, as Python floats give
            made["delta_s"] = scores[winner[lose]] - scores[lose]
        audit.append(made)
        # only a loser sitting on the contested answer moves; with depth > 1
        # an earlier group of this round may have moved it, so order matters
        for row, col in zip(rows[lose].tolist(), cols[lose].tolist()):
            if col == pos[row]:  # an exhausted row keeps its last entry, out of play
                pos[row], active[row] = min(col + 1, k - 1), col + 1 < k

    return Resolution(ranks=pos, unresolved=qids[~active], audit=np.concatenate(audit),
                      rounds=rounds, live_conflicts=live_conflicts, stalled=stalled)


def resolution_to_lists(ranking: Ranking, resolution: Resolution) -> tuple[Ranking, np.ndarray]:
    """Reorder each list so the final assignment leads, others keep order.

    Returns the reordered ranking and each entry's rank in the original
    list (int[n, k], the source_rank column of the resolved file).
    """
    lead = resolution.ranks[:, None]
    cols = np.arange(ranking.k)
    # new column 0 is the assigned entry; the rest keep their source order
    order = np.where(cols == 0, lead, cols - (cols <= lead))
    reordered = Ranking(
        query_ids=ranking.query_ids,
        ids=np.take_along_axis(ranking.ids, order, axis=1),
        scores=np.take_along_axis(ranking.scores, order, axis=1),
    )
    return reordered, order + 1


def write_resolution(path: str | Path, ranking: Ranking, resolution: Resolution,
                     meta: dict | None = None) -> None:
    """Resolved lists, assigned entry first, with a source_rank column and the
    unresolved query ids in a `# unresolved=` line."""
    meta = dict(meta or {})
    if resolution.unresolved.size:
        meta["unresolved"] = ",".join(map(str, resolution.unresolved.tolist()))
    reordered, source_ranks = resolution_to_lists(ranking, resolution)
    write_ranked_lists(path, reordered, meta=meta, source_ranks=source_ranks)


def write_audit(path: str | Path, resolution: Resolution, meta: dict | None = None) -> None:
    """Audit sidecar: `round TAB answer_id TAB winner TAB loser TAB delta_s`."""
    _write_table(path, meta, "%d\t%d\t%d\t%d\t%.9g",
                 [resolution.audit[name] for name in AUDIT_DTYPE.names],
                 "".join(f"# unresolved={qid}\n" for qid in resolution.unresolved.tolist()))
