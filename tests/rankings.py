"""Ranked lists written as per-query rows, for building and reading Rankings
in tests: a row is (query_id, [(gallery_id, score), ...]). Resolutions are
read back per query too."""
import numpy as np

from embsearch.similarity import Ranking


def ranking(rows):
    """The Ranking of rows given in any query order."""
    rows = sorted(rows, key=lambda row: row[0])
    if not rows:
        return Ranking(np.empty(0, np.int64), np.empty((0, 0), np.int64), np.empty((0, 0)))
    return Ranking(
        query_ids=np.array([q for q, _ in rows], np.int64),
        ids=np.array([[g for g, _ in entries] for _, entries in rows], np.int64),
        scores=np.array([[s for _, s in entries] for _, entries in rows], np.float64),
    )


def rows_of(ranking):
    """The rows of a Ranking, ascending by query id."""
    return [
        (q, list(zip(ids, scores)))
        for q, ids, scores in zip(
            ranking.query_ids.tolist(), ranking.ids.tolist(), ranking.scores.tolist()
        )
    ]


def resolved(ranking, resolution):
    """A Resolution of ranking read back per query: ({query_id: (gallery_id,
    score, source_rank)}, the audit as (round, answer_id, winner, loser,
    delta_s) tuples, the set of unresolved query ids)."""
    rows, ranks = np.arange(len(ranking)), resolution.ranks
    assignments = dict(zip(ranking.query_ids.tolist(), zip(
        ranking.ids[rows, ranks].tolist(), ranking.scores[rows, ranks].tolist(),
        (ranks + 1).tolist(),
    )))
    return assignments, resolution.audit.tolist(), set(resolution.unresolved.tolist())
