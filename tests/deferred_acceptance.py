"""Query-proposing deferred acceptance (Gale & Shapley, "College admissions
and the stability of marriage", 1962), one proposal at a time: the
sequential reference for a converged depth-1 resolve."""


def deferred_acceptance(ranking):
    """(pointers, unresolved query ids) of the query-optimal stable matching.

    Each query proposes down its ranked list. A gallery item holds the
    proposer with the higher score, then the lower query id, and rejects the
    other, which proposes its next entry; a query rejected by its last entry
    keeps that pointer and is unresolved."""
    qids, ids, scores = (a.tolist() for a in (ranking.query_ids, ranking.ids, ranking.scores))
    pos, holder, free, unresolved = [0] * len(qids), {}, list(range(len(qids))), []

    def claim(row):
        return scores[row][pos[row]], -qids[row]

    while free:
        row = free.pop()
        answer = ids[row][pos[row]]
        held = holder.setdefault(answer, row)
        if held != row:
            holder[answer], loser = (held, row) if claim(held) > claim(row) else (row, held)
            if pos[loser] + 1 < ranking.k:
                pos[loser] += 1
                free.append(loser)
            else:
                unresolved.append(qids[loser])
    return pos, sorted(unresolved)
