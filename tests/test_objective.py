import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embsearch import data, evaluation, objective, similarity
from embsearch.errors import (
    BatchTooSmall,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingGroundTruth,
)
from embsearch.objective import (
    IMAGE_TO_TEXT,
    TEXT_TO_IMAGE,
    AdapterParams,
    Batch,
    TrainConfig,
    apply_adapter,
    contrastive_loss,
    inbatch_softmax,
    load_adapter,
    match_loss,
    sample_hard_negatives,
    save_adapter,
    train_adapter,
    write_trace,
)
from conftest import unit_rows


def random_batch(n, dim, seed):
    rng = np.random.default_rng(seed)
    return Batch(
        image_embeddings=unit_rows(n, dim, rng),
        text_embeddings=unit_rows(n, dim, rng),
    )


def random_adapter(dim, seed, scale=3.0, bias=0.2, temperature=0.7):
    rng = np.random.default_rng(seed)
    return AdapterParams(
        w_text=np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)),
        w_image=np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)),
        match_scale=scale,
        match_bias=bias,
        temperature=temperature,
    )


def flatten_params(p):
    return np.concatenate(
        [p.w_text.ravel(), p.w_image.ravel(),
         [p.match_scale, p.match_bias, p.temperature]]
    )


def unflatten_params(vec, dim):
    return AdapterParams(
        w_text=vec[: dim * dim].reshape(dim, dim).copy(),
        w_image=vec[dim * dim : 2 * dim * dim].reshape(dim, dim).copy(),
        match_scale=float(vec[-3]),
        match_bias=float(vec[-2]),
        temperature=float(vec[-1]),
    )


def flatten_grads(g):
    return np.concatenate(
        [g.w_text.ravel(), g.w_image.ravel(),
         [g.match_scale, g.match_bias, g.temperature]]
    )


def finite_difference(loss_fn, params, dim, coords, eps=1e-4):
    """Central finite differences of loss_fn at params over chosen coordinates."""
    x0 = flatten_params(params)
    out = np.zeros(len(coords))
    for i, j in enumerate(coords):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += eps
        xm[j] -= eps
        out[i] = (
            loss_fn(unflatten_params(xp, dim)) - loss_fn(unflatten_params(xm, dim))
        ) / (2 * eps)
    return out


def assert_gradient_matches(loss_fn, grads, params, dim, rng, n_coords=80, tol=1e-4):
    total = 2 * dim * dim + 3
    coords = (
        np.arange(total)
        if total <= n_coords
        else np.sort(rng.choice(total, size=n_coords, replace=False))
    )
    fd = finite_difference(loss_fn, params, dim, coords)
    analytical = flatten_grads(grads)[coords]
    rel = np.abs(analytical - fd) / np.maximum(1e-8, np.abs(analytical) + np.abs(fd))
    assert rel.max() < tol


class TestInbatchSoftmax:
    def test_hand_softmax(self):
        out = inbatch_softmax(np.array([[1.0, 0.0], [0.0, 1.0]]), IMAGE_TO_TEXT, 1.0)
        e = math.e
        np.testing.assert_allclose(out[0], [e / (e + 1), 1 / (e + 1)], atol=1e-5)
        assert out[0][0] == pytest.approx(0.73106, abs=1e-5)

    @given(c=st.floats(-50, 50))
    def test_uniform_row(self, c):
        out = inbatch_softmax(np.full((3, 3), c), IMAGE_TO_TEXT, 1.0)
        np.testing.assert_allclose(out, 1 / 3, atol=1e-12)

    def test_single_candidate(self):
        np.testing.assert_array_equal(
            inbatch_softmax(np.array([[0.4]]), IMAGE_TO_TEXT, 1.0), [[1.0]]
        )

    def test_direction_transposes(self):
        sims = np.array([[0.9, 0.1], [0.2, 0.8]])
        i2t = inbatch_softmax(sims, IMAGE_TO_TEXT, 1.0)
        t2i = inbatch_softmax(sims, TEXT_TO_IMAGE, 1.0)
        np.testing.assert_allclose(t2i, inbatch_softmax(sims.T, IMAGE_TO_TEXT, 1.0))
        assert not np.allclose(i2t, t2i)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        temperature=st.floats(0.05, 10.0),
        shift=st.floats(-5, 5),
    )
    def test_rows_sum_to_one_and_shift_invariance(self, seed, n, temperature, shift):
        sims = np.random.default_rng(seed).standard_normal((n, n))
        out = inbatch_softmax(sims, IMAGE_TO_TEXT, temperature)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        shifted = inbatch_softmax(sims + shift, IMAGE_TO_TEXT, temperature)
        np.testing.assert_allclose(out, shifted, atol=1e-9)

    def test_bad_temperature(self):
        with pytest.raises(InvalidConfig):
            inbatch_softmax(np.zeros((2, 2)), IMAGE_TO_TEXT, 0.0)


class TestContrastiveLoss:
    def test_diagonal_similarity_closed_form(self):
        batch = Batch(
            image_embeddings=np.eye(2), text_embeddings=np.eye(2)
        )
        loss, _, p_i2t, _ = contrastive_loss(batch, AdapterParams.identity(2))
        expected = -math.log(math.e / (math.e + 1))
        assert loss == pytest.approx(expected, abs=1e-6)
        assert loss == pytest.approx(0.31326, abs=1e-5)
        np.testing.assert_allclose(p_i2t.sum(axis=1), 1.0, atol=1e-9)

    def test_all_identical_embeddings_give_log_n(self):
        for n in (2, 3, 5):
            row = np.zeros((1, 4))
            row[0, 0] = 1.0
            same = np.repeat(row, n, axis=0)
            batch = Batch(image_embeddings=same, text_embeddings=same.copy())
            loss, _, _, _ = contrastive_loss(batch, AdapterParams.identity(4))
            assert loss == pytest.approx(math.log(n), abs=1e-6)

    def test_batch_too_small(self):
        batch = Batch(image_embeddings=np.eye(1), text_embeddings=np.eye(1))
        with pytest.raises(BatchTooSmall):
            contrastive_loss(batch, AdapterParams.identity(1))

    def test_loss_nonnegative(self):
        for seed in range(5):
            batch = random_batch(6, 8, seed)
            loss, _, _, _ = contrastive_loss(batch, random_adapter(8, seed))
            assert loss >= 0

    def test_permutation_invariance(self):
        batch = random_batch(6, 8, seed=42)
        adapter = random_adapter(8, seed=42)
        loss, _, _, _ = contrastive_loss(batch, adapter)
        perm = np.random.default_rng(1).permutation(6)
        permuted = Batch(
            image_embeddings=batch.image_embeddings[perm],
            text_embeddings=batch.text_embeddings[perm],
        )
        loss_p, _, _, _ = contrastive_loss(permuted, adapter)
        assert loss_p == pytest.approx(loss, abs=1e-10)

    @pytest.mark.parametrize("n,dim,seed", [(2, 4, 0), (4, 8, 1), (8, 16, 2), (16, 32, 3)])
    def test_gradient_vs_finite_difference(self, n, dim, seed):
        batch = random_batch(n, dim, seed)
        adapter = random_adapter(dim, seed)
        _, grads, _, _ = contrastive_loss(batch, adapter)
        assert_gradient_matches(
            lambda p: contrastive_loss(batch, p)[0],
            grads,
            adapter,
            dim,
            np.random.default_rng(seed),
        )


def reference_hard_negatives(p_i2t, p_t2i, rng):
    """The per-row sampling loop that sample_hard_negatives vectorises."""
    n = p_i2t.shape[0]

    def draw(probs):
        picks = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = probs[i].astype(np.float64).copy()
            row[i] = 0.0
            total = row.sum()
            if total <= 0:
                row[:] = 1.0
                row[i] = 0.0
                total = row.sum()
            cdf = np.cumsum(row / total)
            picks[i] = int(np.searchsorted(cdf, rng.random(), side="right"))
        return picks

    return draw(p_i2t), draw(p_t2i)


def sampling_probs(gen, n, dtype, empty_fraction):
    """Skewed row-stochastic matrix with exact zeros; some rows keep mass only
    on the diagonal, so they have no off-diagonal mass."""
    probs = gen.random((n, n)) ** gen.uniform(0.5, 8.0)
    probs[gen.random((n, n)) < 0.2] = 0.0
    probs[gen.random(n) < empty_fraction] = 0.0
    probs[np.arange(n), np.arange(n)] = gen.random(n) + 0.01
    return (probs / probs.sum(axis=1, keepdims=True)).astype(dtype)


class FixedUniforms:
    """Stands in for a Generator, handing out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


class TestHardNegativeSampling:
    def test_n2_forced_choice(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        neg_t, neg_i = sample_hard_negatives(probs, probs, np.random.default_rng(0))
        assert neg_t.tolist() == [1, 0]
        assert neg_i.tolist() == [1, 0]

    def test_empirical_frequencies(self):
        # off-diagonal mass of row 0 is [0.8, 0.2] after renormalization
        probs = np.array([[0.5, 0.4, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        for _ in range(10_000):
            neg_t, _ = sample_hard_negatives(probs, probs, rng)
            counts[neg_t[0]] += 1
        freq = counts / 10_000
        assert freq[1] == pytest.approx(0.8, abs=0.02)
        assert freq[2] == pytest.approx(0.2, abs=0.02)

    def test_deterministic_per_seed(self):
        probs = np.random.default_rng(5).random((8, 8))
        probs /= probs.sum(axis=1, keepdims=True)
        a = sample_hard_negatives(probs, probs.T.copy(), np.random.default_rng(77))
        b = sample_hard_negatives(probs, probs.T.copy(), np.random.default_rng(77))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_never_selects_positive(self):
        probs = np.random.default_rng(6).random((10, 10))
        for seed in range(20):
            neg_t, neg_i = sample_hard_negatives(probs, probs, np.random.default_rng(seed))
            assert np.all(neg_t != np.arange(10))
            assert np.all(neg_i != np.arange(10))

    def test_too_small(self):
        with pytest.raises(BatchTooSmall):
            sample_hard_negatives(np.ones((1, 1)), np.ones((1, 1)), np.random.default_rng(0))

    def test_uniform_on_a_cdf_step_takes_the_next_index(self):
        probs = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        uniforms = [0.5, 0.5, 0.0, 0.0, 0.0, 0.5]
        new = sample_hard_negatives(probs, probs, FixedUniforms(uniforms))
        ref = reference_hard_negatives(probs, probs, FixedUniforms(uniforms))
        assert [a.tolist() for a in new] == [a.tolist() for a in ref]
        assert new[0].tolist() == [2, 2, 0]
        assert new[1].tolist() == [1, 0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 64),
        dtype=st.sampled_from([np.float32, np.float64]),
        empty_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_matches_per_row_reference(self, seed, n, dtype, empty_fraction):
        gen = np.random.default_rng(seed)
        p_i2t = sampling_probs(gen, n, dtype, empty_fraction)
        # text_to_image softmaxes are transposed views, as in training
        p_t2i = sampling_probs(gen, n, dtype, empty_fraction).T
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = sample_hard_negatives(p_i2t, p_t2i, rng_new)
        ref = reference_hard_negatives(p_i2t, p_t2i, rng_ref)
        np.testing.assert_array_equal(new[0], ref[0])
        np.testing.assert_array_equal(new[1], ref[1])
        # the same number of draws was taken from the stream
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestMatchLoss:
    def test_uncertain_head_gives_log2(self):
        # scale 0, bias 0 puts every pair at probability 0.5
        batch = random_batch(4, 8, seed=9)
        adapter = AdapterParams.identity(8)
        adapter.match_scale, adapter.match_bias = 0.0, 0.0
        negatives = sample_hard_negatives(
            np.full((4, 4), 0.25), np.full((4, 4), 0.25), np.random.default_rng(1)
        )
        loss, _ = match_loss(batch, negatives, adapter)
        assert loss == pytest.approx(math.log(2), abs=1e-9)
        assert loss == pytest.approx(0.69315, abs=1e-5)

    def test_confident_head_drives_positive_loss_to_zero(self):
        # orthonormal rows: positives at cosine 1, negatives at cosine 0
        eye = np.eye(4)
        batch = Batch(image_embeddings=eye.copy(), text_embeddings=eye.copy())
        adapter = AdapterParams.identity(4)
        adapter.match_scale, adapter.match_bias = 50.0, -25.0
        negatives = (np.array([1, 0, 3, 2]), np.array([1, 0, 3, 2]))
        loss, _ = match_loss(batch, negatives, adapter)
        assert loss < 1e-8

    @pytest.mark.parametrize("n,dim,seed", [(2, 4, 4), (4, 8, 5), (8, 16, 6), (16, 32, 7)])
    def test_gradient_vs_finite_difference(self, n, dim, seed):
        batch = random_batch(n, dim, seed)
        adapter = random_adapter(dim, seed)
        _, _, p_i2t, p_t2i = contrastive_loss(batch, adapter)
        negatives = sample_hard_negatives(p_i2t, p_t2i, np.random.default_rng(seed))
        _, grads = match_loss(batch, negatives, adapter)
        assert_gradient_matches(
            lambda p: match_loss(batch, negatives, p)[0],
            grads,
            adapter,
            dim,
            np.random.default_rng(seed + 1),
        )


class TestTrainAdapter:
    def normalized_pair(self, make_dataset, seed=7):
        cfg = data.SynthConfig(16, 8, 0.3, 0.5, 0.05, seed=seed)
        manifest = make_dataset(cfg)
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        return manifest, q, g

    def test_zero_epochs_is_identity(self, make_dataset):
        manifest, q, g = self.normalized_pair(make_dataset)
        params, trace = train_adapter(
            q, g, manifest.ground_truth, TrainConfig(epochs=0, seed=0)
        )
        np.testing.assert_array_equal(params.w_text, np.eye(8))
        np.testing.assert_array_equal(params.w_image, np.eye(8))
        assert trace == []

    def test_loss_decreases(self, make_dataset):
        manifest, q, g = self.normalized_pair(make_dataset)
        _, trace = train_adapter(
            q, g, manifest.ground_truth, TrainConfig(epochs=5, batch_size=8, seed=1)
        )
        assert len(trace) == 6
        assert trace[-1].total < trace[0].total

    def test_same_seed_bit_identical_files(self, make_dataset, tmp_path):
        manifest, q, g = self.normalized_pair(make_dataset)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=5)
        for name in ("a.adapter", "b.adapter"):
            params, _ = train_adapter(q, g, manifest.ground_truth, cfg)
            save_adapter(tmp_path / name, params)
        assert (tmp_path / "a.adapter").read_bytes() == (tmp_path / "b.adapter").read_bytes()

    def test_one_full_dataset_forward_per_trace_entry(self, make_dataset, monkeypatch):
        manifest, q, g = self.normalized_pair(make_dataset)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4)
        seen = []  # (full batch, parameters) at each full-dataset forward
        forward = objective._adapter_forward

        def recording_forward(batch, adapter):
            if batch.size == q.rows:
                seen.append((batch, copy.deepcopy(adapter)))
            return forward(batch, adapter)

        monkeypatch.setattr(objective, "_adapter_forward", recording_forward)
        _, trace = train_adapter(q, g, manifest.ground_truth, cfg)
        monkeypatch.undo()

        assert len(seen) == cfg.epochs + 1
        full_batch, initial = seen[0]
        _, _, p_i2t, p_t2i = contrastive_loss(full_batch, initial)
        eval_negatives = sample_hard_negatives(
            p_i2t, p_t2i, np.random.default_rng([cfg.seed, 1])
        )
        for entry, (batch, params) in zip(trace, seen):
            assert entry.contrastive == contrastive_loss(batch, params)[0]
            assert entry.match == match_loss(batch, eval_negatives, params)[0]

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_ground_truth_checked_against_inputs(self, make_dataset, epochs):
        _, q, g = self.normalized_pair(make_dataset)
        cfg = TrainConfig(epochs=epochs, batch_size=8, seed=0)
        full = np.arange(q.rows)
        with pytest.raises(MissingGroundTruth, match="query row 3 "):
            train_adapter(q, g, full[:3], cfg)
        for bad in (g.rows, 9 * g.rows, -1):
            with pytest.raises(GroundTruthOutOfRange, match=f"ground_truth\\[5\\] = {bad} "):
                train_adapter(q, g, np.where(full == 5, bad, full), cfg)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=-1).validate()
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=1).validate()
        with pytest.raises(InvalidConfig):
            TrainConfig(step_size=0.0).validate()

    def test_trace_file_format(self, make_dataset, tmp_path):
        manifest, q, g = self.normalized_pair(make_dataset)
        _, trace = train_adapter(
            q, g, manifest.ground_truth, TrainConfig(epochs=2, batch_size=8, seed=2)
        )
        path = tmp_path / "trace.tsv"
        write_trace(path, trace, meta={"seed": 2})
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        for epoch, line in enumerate(lines):
            fields = line.split("\t")
            assert int(fields[0]) == epoch
            assert float(fields[3]) == pytest.approx(
                float(fields[1]) + trace[0].lambda_match * float(fields[2]), rel=1e-9
            )


class TestApplyAdapter:
    def test_identity_is_noop(self):
        rows = unit_rows(5, 6, np.random.default_rng(3)).astype(np.float32)
        m = data.EmbeddingMatrix(rows, normalized=True)
        out = apply_adapter(m, AdapterParams.identity(6), "text")
        np.testing.assert_allclose(out.data, rows, atol=1e-6)

    def test_scaled_identity_invariant_downstream(self):
        rng = np.random.default_rng(4)
        q = data.EmbeddingMatrix(unit_rows(6, 8, rng).astype(np.float32), normalized=True)
        g = data.EmbeddingMatrix(unit_rows(10, 8, rng).astype(np.float32), normalized=True)
        adapter = AdapterParams(w_text=2.0 * np.eye(8), w_image=2.0 * np.eye(8))
        q2 = apply_adapter(q, adapter, "text")
        g2 = apply_adapter(g, adapter, "image")
        base = similarity.top_k(similarity.similarity_matrix(q, g), 10)
        scaled = similarity.top_k(similarity.similarity_matrix(q2, g2), 10)
        assert np.array_equal(base.ids, scaled.ids)

    def test_bad_side(self):
        m = data.EmbeddingMatrix(np.eye(2, dtype=np.float32), normalized=True)
        with pytest.raises(InvalidConfig):
            apply_adapter(m, AdapterParams.identity(2), "audio")


class TestAdapterPersistence:
    def test_round_trip(self, tmp_path):
        params = random_adapter(8, seed=11)
        path = tmp_path / "params.adapter"
        save_adapter(path, params)
        back = load_adapter(path)
        np.testing.assert_array_equal(back.w_text, params.w_text)
        np.testing.assert_array_equal(back.w_image, params.w_image)
        assert back.match_scale == params.match_scale
        assert back.match_bias == params.match_bias
        assert back.temperature == params.temperature

    def test_float32_round_trip(self, tmp_path):
        params = random_adapter(4, seed=12)
        path = tmp_path / "params32.adapter"
        # version 1, dtype flag 0: float32 payload
        header = b"ADAP" + struct.pack("<III", 1, 4, 0)
        scalars = [params.match_scale, params.match_bias, params.temperature]
        payload = b"".join(
            np.asarray(a, dtype="<f4").tobytes()
            for a in (params.w_text, params.w_image, scalars)
        )
        path.write_bytes(header + payload)
        back = load_adapter(path)
        np.testing.assert_allclose(back.w_text, params.w_text, atol=1e-6)
