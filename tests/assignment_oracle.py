"""Optimal-assignment oracle that bounds the greedy resolver in tests.

Not part of the library: it needs scipy, which only the tests depend on.
"""
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from embsearch.errors import InvalidConfig, PipelineError

EXHAUSTIVE_LIMIT = 12


class TooLarge(PipelineError):
    pass


def assignment_oracle(sims: np.ndarray, mode: str = "matching"):
    """Optimal one-to-one query-to-gallery assignment maximizing total score.

    ``matching`` runs the Hungarian-style solver; ``exhaustive`` enumerates
    every injective assignment (instances capped at 12x12) and exists as an
    independent cross-check of the solver. Returns ({query: gallery}, total).
    """
    n_q, n_g = sims.shape
    if n_q > n_g:
        raise InvalidConfig("assignment_oracle requires n_queries <= n_gallery")
    sims = sims.astype(np.float64)
    if mode == "exhaustive":
        if max(n_q, n_g) > EXHAUSTIVE_LIMIT:
            raise TooLarge(f"exhaustive mode capped at {EXHAUSTIVE_LIMIT}x{EXHAUSTIVE_LIMIT}")
        best_total, best_perm = -np.inf, None
        for perm in itertools.permutations(range(n_g), n_q):
            total = float(sum(sims[i, g] for i, g in enumerate(perm)))
            if total > best_total:
                best_total, best_perm = total, perm
        return {i: int(g) for i, g in enumerate(best_perm)}, best_total
    if mode == "matching":
        rows, cols = linear_sum_assignment(-sims)
        total = float(sims[rows, cols].sum())
        return {int(r): int(c) for r, c in zip(rows, cols)}, total
    raise InvalidConfig(f"unknown oracle mode {mode!r}")
