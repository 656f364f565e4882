"""Ranked lists written as per-query rows, for building and reading Rankings
in tests: a row is (query_id, [(gallery_id, score), ...])."""
import numpy as np

from embsearch.similarity import Ranking


def ranking(rows):
    """The Ranking of rows given in any query order."""
    rows = sorted(rows, key=lambda row: row[0])
    if not rows:
        return Ranking(np.empty(0), np.empty((0, 0)), np.empty((0, 0)))
    return Ranking(
        query_ids=[q for q, _ in rows],
        ids=[[g for g, _ in entries] for _, entries in rows],
        scores=[[s for _, s in entries] for _, entries in rows],
    )


def rows_of(ranking):
    """The rows of a Ranking, ascending by query id."""
    return [
        (q, list(zip(ids, scores)))
        for q, ids, scores in zip(
            ranking.query_ids.tolist(), ranking.ids.tolist(), ranking.scores.tolist()
        )
    ]
