"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity so a run log doubles as a report."""
import math
import time

import numpy as np
import pytest

from embsearch import data, evaluation, objective, resolver, similarity
from embsearch.objective import AdapterParams, Batch, TrainConfig
from assignment_oracle import assignment_oracle
from conftest import SEED7_CONFIG
from rankings import ranking, resolved
from test_objective import (
    assert_gradient_matches,
    random_adapter,
    random_batch,
)

# Frozen regression values, computed once on the seed-7 confusable benchmark
# (64 identities, dim 32, sigma 0.4, confusable fraction 0.5, gap 0.02).
SEED7_BASELINE_RECALL = {1: 0.46875, 5: 0.828125, 10: 0.90625}
SEED7_RESOLVED_RECALL_AT_1 = 0.53125
SEED7_TRACE_FIRST_TOTAL = 4.5007031877
SEED7_TRACE_LAST_TOTAL = 4.5006020696
GREEDY_AT_LEAST_RAW_FRACTION = 21 / 30


def run_search(manifest, k=10):
    q = data.l2_normalize(data.load_embeddings(manifest, "query"))
    g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
    sims = similarity.similarity_matrix(q, g)
    return q, g, sims, similarity.top_k(sims, k)


def test_top_k_oracle_equivalence():
    """50 seeded instances up to 1000x1000 match a full-sort oracle exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(50):
        if trial < 3:
            n_q, n_g = 1000, 1000
        else:
            n_q = int(rng.integers(5, 300))
            n_g = int(rng.integers(5, 300))
        k = int(rng.integers(1, n_g + 1))
        # coarse quantization guarantees tie-break coverage
        sims = np.round(rng.random((n_q, n_g)), 2).astype(np.float32)
        lists = similarity.top_k(sims, k)
        for qid in range(n_q):
            expected = sorted(range(n_g), key=lambda g: (-sims[qid, g], g))[:k]
            assert lists.ids[qid].tolist() == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"\nACCEPTANCE PASS: top-k oracle equivalence, 50 instances in {elapsed:.1f}s")


def test_gradient_suite():
    """Analytical gradients of both losses match central finite differences."""
    start = time.perf_counter()
    configs = [(n, d, seed) for seed, (n, d) in enumerate(
        [(n, d) for n in (2, 4, 16) for d in (4, 32)] * 4
    )]
    assert len(configs) >= 20
    for n, dim, seed in configs:
        batch = random_batch(n, dim, seed)
        adapter = random_adapter(dim, seed)
        _, c_grads, p_i2t, p_t2i = objective.contrastive_loss(batch, adapter)
        assert_gradient_matches(
            lambda p: objective.contrastive_loss(batch, p)[0],
            c_grads, adapter, dim, np.random.default_rng(seed), n_coords=40,
        )
        negatives = objective.sample_hard_negatives(
            p_i2t, p_t2i, np.random.default_rng(seed)
        )
        _, m_grads = objective.match_loss(batch, negatives, adapter)
        assert_gradient_matches(
            lambda p: objective.match_loss(batch, negatives, p)[0],
            m_grads, adapter, dim, np.random.default_rng(seed + 1), n_coords=40,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"\nACCEPTANCE PASS: gradient suite, {len(configs)} configs in {elapsed:.1f}s")


def test_closed_form_losses():
    """N=2 diagonal batch and all-equal batches hit their closed forms."""
    batch = Batch(image_embeddings=np.eye(2), text_embeddings=np.eye(2))
    loss, _, _, _ = objective.contrastive_loss(batch, AdapterParams.identity(2))
    assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-6)
    for n in (2, 4, 7):
        row = np.zeros((1, 3))
        row[0, 0] = 1.0
        same = np.repeat(row, n, axis=0)
        equal_batch = Batch(image_embeddings=same, text_embeddings=same.copy())
        loss_n, _, _, _ = objective.contrastive_loss(equal_batch, AdapterParams.identity(3))
        assert loss_n == pytest.approx(math.log(n), abs=1e-6)
    print("\nACCEPTANCE PASS: closed-form contrastive losses")


def test_conflict_resolution_hand_traces():
    """Two-query and cascading three-query fixtures resolve exactly as traced."""
    two = ranking([
        (1, [(100, 0.9), (102, 0.6)]),
        (2, [(100, 0.8), (101, 0.7)]),
    ])
    res = resolver.resolve(two)
    assignments, audit, _ = resolved(two, res)
    assert assignments[1] == (100, 0.9, 1)
    assert assignments[2] == (101, 0.7, 2)
    assert len(audit) == 1 and audit[0][4] == pytest.approx(0.1)

    cascade = ranking([
        (1, [(100, 0.9), (103, 0.5), (104, 0.4)]),
        (2, [(100, 0.8), (101, 0.7), (105, 0.3)]),
        (3, [(101, 0.75), (102, 0.5), (106, 0.2)]),
    ])
    res = resolver.resolve(cascade)
    assignments, audit, _ = resolved(cascade, res)
    assert assignments[2] == (105, 0.3, 3)
    assert [(round_, winner, loser) for round_, _, winner, loser, _ in audit] == [
        (1, 1, 2), (2, 3, 2)]
    print("\nACCEPTANCE PASS: conflict-resolution hand traces")


def test_resolved_conflict_answers_distinct():
    """Full-depth seeded synthetic runs without exhaustion end pairwise distinct."""
    import tempfile

    checked = 0
    for seed in range(20):
        cfg = data.SynthConfig(24, 16, 0.35, 0.5, 0.05, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = data.generate_synthetic(cfg, tmp)
            _, _, _, lists = run_search(manifest, k=24)
        res = resolver.resolve(lists)
        assignments, audit, unresolved = resolved(lists, res)
        if unresolved:
            continue
        conflicted = {q for _, _, winner, loser, _ in audit for q in (winner, loser)}
        answers = [assignments[q][0] for q in conflicted]
        assert len(answers) == len(set(answers)), f"seed {seed}"
        checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE PASS: conflict-set uniqueness on {checked} runs")


def test_seed7_resolution_gain(seed7_dataset):
    """Resolution strictly lifts Recall@1 on the frozen confusable benchmark."""
    start = time.perf_counter()
    _, manifest = seed7_dataset
    _, _, sims, lists = run_search(manifest, k=10)
    before = evaluation.recall_at_k(lists, manifest.ground_truth, [1, 5, 10])
    assert before.recall == SEED7_BASELINE_RECALL
    assert before.recall[1] < 1.0

    res = resolver.resolve(lists)
    reordered, _ = resolver.resolution_to_lists(lists, res)
    after = evaluation.recall_at_k(reordered, manifest.ground_truth, [1, 5, 10])
    assert after.recall[1] == SEED7_RESOLVED_RECALL_AT_1
    assert after.recall[1] > before.recall[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(
        f"\nACCEPTANCE PASS: resolution gain R@1 {before.recall[1]:.4f} -> "
        f"{after.recall[1]:.4f} in {elapsed:.1f}s"
    )


def test_greedy_bounded_by_optimal_assignment():
    """On 30 seeded small instances the greedy total never beats the optimum,
    and greedy R@1 >= raw R@1 at least as often as the frozen fraction."""
    at_least_raw = 0
    for s in range(30):
        rng = np.random.default_rng(1000 + s)
        n = int(rng.integers(4, 13))
        sims = rng.random((n, n)).astype(np.float32)
        lists = similarity.top_k(sims, n)
        res = resolver.resolve(lists)
        greedy_total = sum(v[1] for v in resolved(lists, res)[0].values())
        _, optimal = assignment_oracle(sims, "matching")
        if n <= 8:
            _, exhaustive = assignment_oracle(sims, "exhaustive")
            assert optimal == pytest.approx(exhaustive, abs=1e-9)
        assert greedy_total <= optimal + 1e-6
        gt = np.arange(n)
        raw = evaluation.recall_at_k(lists, gt, [1]).recall[1]
        reordered, _ = resolver.resolution_to_lists(lists, res)
        greedy = evaluation.recall_at_k(reordered, gt, [1]).recall[1]
        if greedy >= raw:
            at_least_raw += 1
    assert at_least_raw / 30 >= GREEDY_AT_LEAST_RAW_FRACTION
    print(
        f"\nACCEPTANCE PASS: greedy <= optimal on 30 instances; "
        f"R@1 not below raw on {at_least_raw}/30"
    )


def test_adapter_training_regression(seed7_dataset):
    """Default training on seed 7 lowers the loss and holds held-out R@1."""
    out, manifest = seed7_dataset
    q = data.l2_normalize(data.load_embeddings(manifest, "query"))
    g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
    cfg = TrainConfig(epochs=10, batch_size=16, step_size=3e-5,
                      weight_decay=0.01, lambda_match=1.0, seed=7)
    params, trace = objective.train_adapter(q, g, manifest.ground_truth, cfg)
    assert trace[-1].total < trace[0].total
    assert trace[0].total == pytest.approx(SEED7_TRACE_FIRST_TOTAL, abs=1e-8)
    assert trace[-1].total == pytest.approx(SEED7_TRACE_LAST_TOTAL, abs=1e-8)

    heldout = data.load_manifest(out / "manifest_heldout.json")
    qh = data.l2_normalize(data.load_embeddings(heldout, "query"))
    base_lists = similarity.top_k(similarity.similarity_matrix(qh, g), 10)
    base = evaluation.recall_at_k(base_lists, heldout.ground_truth, [1]).recall[1]
    qa = objective.apply_adapter(qh, params, "text")
    ga = objective.apply_adapter(g, params, "image")
    adapted_lists = similarity.top_k(similarity.similarity_matrix(qa, ga), 10)
    adapted = evaluation.recall_at_k(adapted_lists, heldout.ground_truth, [1]).recall[1]
    assert adapted >= base
    print(
        f"\nACCEPTANCE PASS: training loss {trace[0].total:.8f} -> "
        f"{trace[-1].total:.8f}; held-out R@1 {base:.4f} -> {adapted:.4f}"
    )


def test_metric_sanity_and_determinism(seed7_dataset, tmp_path):
    """Recall@k non-decreasing, zero-noise R@1 = 1, byte-identical re-runs."""
    _, manifest = seed7_dataset
    _, _, _, lists = run_search(manifest, k=10)
    report = evaluation.recall_at_k(lists, manifest.ground_truth, [1, 2, 5, 10])
    values = [report.recall[k] for k in report.k_values]
    assert all(a <= b for a, b in zip(values, values[1:]))

    clean = data.generate_synthetic(
        data.SynthConfig(16, 8, 0.0, 0.0, 0.5, seed=4), tmp_path / "clean"
    )
    _, _, _, clean_lists = run_search(clean, k=1)
    assert evaluation.recall_at_k(clean_lists, clean.ground_truth, [1]).recall[1] == 1.0

    paths = []
    for sub in ("r1", "r2"):
        base = tmp_path / sub
        base.mkdir()
        m = data.generate_synthetic(SEED7_CONFIG, base / "ds")
        _, _, _, ls = run_search(m, k=10)
        similarity.write_ranked_lists(base / "ranked.tsv", ls, meta={"seed": 7})
        res = resolver.resolve(ls)
        resolver.write_resolution(base / "resolved.tsv", ls, res)
        resolver.write_audit(base / "audit.tsv", res)
        paths.append(base)
    for fname in ("ds/gallery.f32", "ds/queries.f32", "ranked.tsv", "resolved.tsv", "audit.tsv"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes(), fname
    print("\nACCEPTANCE PASS: metric sanity and byte-identical determinism")
