"""Retrieval quality pinned as exact hit counts: one table of sets and
policies, each row the Recall@1 hits of one policy on one synthetic set.

Every set is n=2000 identities, d=64, sigma=0.283, the default confusable
fraction and gap, searched at k=10. A query counts as confusable when its
gallery row has another gallery row at cosine >= CONFUSABLE_COSINE (a dense
gallery-self 2-NN). The counts are deterministic, on one BLAS thread or
two; a change that moves one is a quality change, to be stated with its
before and after counts, not re-pinned silently.
"""
import numpy as np
import pytest

from embsearch import data, evaluation, resolver, similarity

N, DIM, SIGMA, K = 2000, 64, 0.283, 10
CONFUSABLE_COSINE = 0.98

# each policy maps a set's top-k Ranking to the Ranking whose first column
# it answers with
POLICIES = {
    "plain": lambda lists: lists,
    "greedy": lambda lists: resolver.resolution_to_lists(
        lists, resolver.resolve(lists, resolver.ResolutionPolicy()))[0],
}

# (seed, policy): Recall@1 hits of N queries as (all, confusable, the rest)
HITS = {
    (7, "plain"): (841, 325, 516),
    (7, "greedy"): (847, 340, 507),
    (11, "plain"): (856, 324, 532),
    (11, "greedy"): (879, 343, 536),
}
# confusable queries per set
CONFUSABLE = {7: 1000, 11: 1000}


@pytest.fixture(scope="module")
def quality_sets(tmp_path_factory):
    """seed -> (top-k Ranking, ground truth, confusable mask), built once."""
    sets = {}
    for seed in sorted(CONFUSABLE):
        cfg = data.SynthConfig(N, DIM, SIGMA, seed=seed)
        manifest = data.generate_synthetic(cfg, tmp_path_factory.mktemp(f"seed{seed}"))
        queries, gallery = (data.l2_normalize(data.load_embeddings(manifest, split))
                            for split in ("query", "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(queries, gallery), K)
        self_sims = gallery.data @ gallery.data.T
        np.fill_diagonal(self_sims, -np.inf)
        twin = self_sims.max(axis=1) >= CONFUSABLE_COSINE
        sets[seed] = lists, manifest.ground_truth, twin[manifest.ground_truth]
    return sets


@pytest.mark.parametrize("seed", sorted(CONFUSABLE))
def test_confusable_query_count(quality_sets, seed):
    _, _, confusable = quality_sets[seed]
    assert np.count_nonzero(confusable) == CONFUSABLE[seed]


@pytest.mark.parametrize("seed, policy", sorted(HITS),
                         ids=[f"seed{seed}-{policy}" for seed, policy in sorted(HITS)])
def test_hits_at_1(quality_sets, seed, policy):
    lists, ground_truth, confusable = quality_sets[seed]
    answered = POLICIES[policy](lists)
    recall = evaluation.recall_at_k(answered, ground_truth, [1]).recall[1]
    hits = answered.ids[:, 0] == ground_truth
    assert round(recall * N) == np.count_nonzero(hits)
    split = (np.count_nonzero(hits), np.count_nonzero(hits[confusable]),
             np.count_nonzero(hits[~confusable]))
    assert split == HITS[seed, policy]
