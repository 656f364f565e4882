"""Conflict resolution over ranked retrieval lists.

When several queries retrieve the same gallery answer, the member with the
highest score keeps it and every other member advances to its next-ranked
candidate; rounds repeat until no conflicts remain (or a cap is hit, which
the Resolution reports). Members that run out of candidates keep their last
entry and are flagged unresolved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyList, InvalidConfig, PointerOutOfBounds
from .similarity import RankedList, write_ranked_lists


@dataclass(frozen=True)
class ResolutionPolicy:
    """Knobs for conflict detection and replacement.

    depth widens detection: a query's current answer also conflicts with
    answers other queries hold within their next `depth` ranks. max_rounds
    defaults to the retrieval depth. similarity_gate, when set, keeps a
    group only if some pair of member query embeddings exceeds that cosine.
    """

    depth: int = 1
    max_rounds: int | None = None
    similarity_gate: float | None = None

    def validate(self, list_length: int) -> None:
        if self.depth < 1 or self.depth > list_length:
            raise InvalidConfig(f"depth must be in [1, {list_length}]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise InvalidConfig("max_rounds must be >= 1")


@dataclass
class ConflictGroup:
    answer_id: int
    members: list[tuple[int, float, int]]  # (query_id, score, rank starting at 1)


@dataclass
class AuditEntry:
    round: int
    answer_id: int
    winner: int
    loser: int
    delta_s: float


@dataclass
class Resolution:
    """Final per-query assignment plus the full replacement audit trail.

    live_conflicts counts the conflict groups among queries still in play
    when the round cap stopped the run; it is 0 when resolution converged.
    """

    assignments: dict[int, tuple[int, float, int]]  # qid -> (gallery_id, score, source_rank)
    audit: list[AuditEntry] = field(default_factory=list)
    unresolved: set[int] = field(default_factory=set)
    rounds: int = 0
    live_conflicts: int = 0

    @property
    def converged(self) -> bool:
        return self.live_conflicts == 0


def _query_cosines(query_embeddings: np.ndarray, ids: list[int]) -> np.ndarray:
    sub = query_embeddings[ids].astype(np.float64)
    sub = sub / np.linalg.norm(sub, axis=1)[:, None]
    return sub @ sub.T


def detect_conflicts(
    lists: list[RankedList],
    policy: ResolutionPolicy,
    positions: dict[int, int],
    query_embeddings: np.ndarray | None = None,
    frozen: set[int] | None = None,
) -> list[ConflictGroup]:
    """Group queries whose current answers coincide, ascending by answer id.

    positions maps query_id to a 0-based rank pointer. With depth > 1 a
    query is also a member of a group when the answer occurs within its
    window of `depth` entries starting at its pointer.
    """
    frozen = frozen or set()
    by_query = {rl.query_id: rl for rl in lists}
    occurrences: dict[int, list[tuple[int, float, int]]] = {}
    for qid in sorted(positions):
        if qid in frozen:
            continue
        rl = by_query[qid]
        pos = positions[qid]
        if not 0 <= pos < len(rl.entries):
            raise PointerOutOfBounds(f"query {qid}: pointer {pos} outside its list")
        window = rl.entries[pos : pos + policy.depth]
        seen = set()
        for offset, (gid, score) in enumerate(window):
            if gid in seen:
                continue
            seen.add(gid)
            occurrences.setdefault(gid, []).append((qid, score, pos + offset + 1))

    groups = []
    for answer_id in sorted(occurrences):
        members = occurrences[answer_id]
        if len(members) < 2:
            continue
        if policy.similarity_gate is not None:
            if query_embeddings is None:
                raise InvalidConfig("similarity_gate requires query embeddings")
            ids = [qid for qid, _, _ in members]
            cos = _query_cosines(query_embeddings, ids)
            iu = np.triu_indices(len(ids), k=1)
            if not np.any(cos[iu] > policy.similarity_gate):
                continue
        groups.append(ConflictGroup(answer_id=answer_id, members=members))
    return groups


def resolve(
    lists: list[RankedList],
    policy: ResolutionPolicy = ResolutionPolicy(),
    query_embeddings: np.ndarray | None = None,
) -> Resolution:
    """Iterate conflict rounds to a fixpoint and return final assignments.

    Per group the highest-scoring member keeps the answer (score tie: lower
    query id); each loser whose pointer sits on the contested answer advances
    one rank. Exhausted queries keep their last entry, are flagged
    unresolved, and stop participating. A run that reaches max_rounds with
    groups still live records their number in live_conflicts (converged is
    then False). Deterministic for a given input.
    """
    if not lists:
        raise EmptyList("no ranked lists to resolve")
    for rl in lists:
        if not rl.entries:
            raise EmptyList(f"query {rl.query_id} has an empty ranked list")
    lists = sorted(lists, key=lambda rl: rl.query_id)

    depth_n = max(len(rl.entries) for rl in lists)
    policy.validate(depth_n)
    max_rounds = policy.max_rounds if policy.max_rounds is not None else depth_n

    by_query = {rl.query_id: rl for rl in lists}
    positions = {rl.query_id: 0 for rl in lists}
    frozen: set[int] = set()
    resolution = Resolution(assignments={})

    # one detection past the cap tells whether the run stopped with conflicts
    for round_index in range(1, max_rounds + 2):
        groups = detect_conflicts(lists, policy, positions, query_embeddings, frozen)
        if not groups:
            break
        if round_index > max_rounds:
            resolution.live_conflicts = len(groups)
            break
        resolution.rounds = round_index
        for group in groups:
            winner_qid, winner_score, _ = max(
                group.members, key=lambda m: (m[1], -m[0])
            )
            for qid, score, rank in group.members:
                if qid == winner_qid:
                    continue
                resolution.audit.append(
                    AuditEntry(
                        round=round_index,
                        answer_id=group.answer_id,
                        winner=winner_qid,
                        loser=qid,
                        delta_s=winner_score - score,
                    )
                )
                # only a loser sitting on the contested answer moves
                if rank - 1 != positions[qid]:
                    continue
                if positions[qid] + 1 >= len(by_query[qid].entries):
                    resolution.unresolved.add(qid)
                    frozen.add(qid)
                else:
                    positions[qid] += 1

    for rl in lists:
        pos = positions[rl.query_id]
        gid, score = rl.entries[pos]
        resolution.assignments[rl.query_id] = (gid, score, pos + 1)
    return resolution


def resolution_to_lists(
    lists: list[RankedList], resolution: Resolution
) -> tuple[list[RankedList], dict[int, list[int]]]:
    """Reorder each list so the final assignment leads, others keep order.

    Returns the reordered lists and, per query, the original rank of each
    entry (the source_rank column of the resolved file).
    """
    out, source_ranks = [], {}
    for rl in sorted(lists, key=lambda r: r.query_id):
        gid, score, source_rank = resolution.assignments[rl.query_id]
        entries = [(gid, score)]
        ranks = [source_rank]
        for j, (g, s) in enumerate(rl.entries):
            if j + 1 == source_rank:
                continue
            entries.append((g, s))
            ranks.append(j + 1)
        out.append(RankedList(query_id=rl.query_id, entries=entries))
        source_ranks[rl.query_id] = ranks
    return out, source_ranks


def write_resolution(
    path: str | Path,
    lists: list[RankedList],
    resolution: Resolution,
    meta: dict | None = None,
) -> None:
    meta = dict(meta or {})
    if resolution.unresolved:
        meta["unresolved"] = ",".join(str(q) for q in sorted(resolution.unresolved))
    reordered, source_ranks = resolution_to_lists(lists, resolution)
    write_ranked_lists(path, reordered, meta=meta, source_ranks=source_ranks)


def write_audit(path: str | Path, resolution: Resolution, meta: dict | None = None) -> None:
    """Audit sidecar: `round TAB answer_id TAB winner TAB loser TAB delta_s`."""
    out = [f"# {k}={v}" for k, v in (meta or {}).items()]
    for e in resolution.audit:
        out.append(f"{e.round}\t{e.answer_id}\t{e.winner}\t{e.loser}\t{e.delta_s:.9g}")
    for qid in sorted(resolution.unresolved):
        out.append(f"# unresolved={qid}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
