import copy
import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embsearch import data, evaluation, objective, similarity
from embsearch.errors import (
    BatchTooSmall,
    DimensionMismatch,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingGroundTruth,
    NonFiniteValue,
    ParseError,
)
from embsearch.objective import (
    AdapterParams,
    Batch,
    TrainConfig,
    apply_adapter,
    contrastive_loss,
    load_adapter,
    match_loss,
    sample_hard_negatives,
    save_adapter,
    train_adapter,
    write_trace,
)
from conftest import examples, unit_rows


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


def reference_softmax(scores, temperature):
    """Row softmax of scores / temperature, max-shifted."""
    z = scores / temperature
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestInbatchSoftmax:
    """The image-to-text and text-to-image softmaxes of contrastive_loss."""

    @pytest.mark.parametrize("images, texts", [
        (np.eye(2), np.eye(3)), (np.eye(2), np.eye(2)[:1]), (np.eye(2), np.eye(2).ravel()),
    ], ids=["dims", "rows", "one-dimensional"])
    def test_batch_of_two_shapes_is_refused(self, images, texts):
        with pytest.raises(DimensionMismatch,
                           match="^image and text batches must have identical shapes$"):
            Batch(image_embeddings=images, text_embeddings=texts)

    def test_hand_softmax(self):
        batch = Batch(image_embeddings=np.eye(2), text_embeddings=np.eye(2))
        _, _, i2t, t2i = contrastive_loss(batch, AdapterParams.identity(2))
        e = math.e
        for out in (i2t, t2i):
            np.testing.assert_allclose(out[0], [e / (e + 1), 1 / (e + 1)], atol=1e-5)
            assert out[0][0] == pytest.approx(0.73106, abs=1e-5)

    @settings(max_examples=examples(50), deadline=None)
    @given(c=st.floats(-1, 1), n=st.integers(2, 6), temperature=st.floats(0.05, 10.0))
    def test_uniform_row(self, c, n, temperature):
        # one image vector and one text vector, n copies each: every score is c
        images = np.tile([1.0, 0.0], (n, 1))
        texts = np.tile([c, math.sqrt(1 - c * c)], (n, 1))
        adapter = AdapterParams(np.eye(2), np.eye(2), temperature=temperature)
        _, _, i2t, t2i = contrastive_loss(Batch(images, texts), adapter)
        np.testing.assert_allclose(i2t, 1 / n, atol=1e-12)
        np.testing.assert_allclose(t2i, 1 / n, atol=1e-12)

    def test_direction_transposes(self):
        # contrastive_loss's text_to_image softmax is that of the transposed scores
        texts = np.array([[1.0, 0.0], [0.6, 0.8]])
        batch = Batch(image_embeddings=np.eye(2), text_embeddings=texts)
        _, _, i2t, t2i = contrastive_loss(batch, AdapterParams.identity(2))
        sims = batch.image_embeddings @ batch.text_embeddings.T
        np.testing.assert_allclose(i2t, reference_softmax(sims, 1.0), rtol=1e-12)
        np.testing.assert_allclose(t2i, reference_softmax(sims.T, 1.0), rtol=1e-12)
        assert not np.allclose(i2t, t2i)

    @settings(max_examples=examples(50), deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        temperature=st.floats(0.05, 10.0),
    )
    def test_rows_sum_to_one(self, seed, n, temperature):
        batch = random_batch(n, 4, seed)
        adapter = AdapterParams(np.eye(4), np.eye(4), temperature=temperature)
        _, _, i2t, t2i = contrastive_loss(batch, adapter)
        sims = batch.image_embeddings @ batch.text_embeddings.T
        for out, scores in ((i2t, sims), (t2i, sims.T)):
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out, reference_softmax(scores, temperature), atol=1e-9)

    def test_bad_temperature(self):
        batch = random_batch(2, 2, seed=0)
        for temperature in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidConfig):
                contrastive_loss(batch, AdapterParams(np.eye(2), np.eye(2), temperature=temperature))


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

    def test_inputs_must_be_n_by_n(self):
        square = np.full((3, 3), 0.5)
        for p_i2t, p_t2i in ((square, np.ones((3, 2))), (np.ones((3, 2)), np.ones((3, 2))),
                             (square, np.ones((2, 2))), (np.ones(3), np.ones(3))):
            with pytest.raises(DimensionMismatch):
                sample_hard_negatives(p_i2t, p_t2i, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_off_diagonal_total_is_rejected(self, bad):
        # a NaN row would invert a NaN CDF to index 0, row 0's own positive
        everywhere = np.full((3, 3), bad)
        one_entry = np.full((3, 3), 0.5)
        one_entry[1, 2] = bad
        square = np.full((3, 3), 0.5)
        for p_i2t, p_t2i, row in ((everywhere, square, 0), (square, one_entry, 1)):
            with pytest.raises(NonFiniteValue, match=f"^probability row {row} has a non-finite"):
                sample_hard_negatives(p_i2t, p_t2i, np.random.default_rng(0))

    def test_diagonal_is_not_read(self):
        probs = np.full((3, 3), 0.5)
        np.fill_diagonal(probs, math.nan)
        neg_t, neg_i = sample_hard_negatives(probs, probs, np.random.default_rng(0))
        assert np.all(neg_t != np.arange(3)) and np.all(neg_i != np.arange(3))

    def test_uniform_on_a_cdf_step_takes_the_next_index(self):
        probs = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        uniforms = [0.5, 0.5, 0.0, 0.0, 0.0, 0.5]
        new = sample_hard_negatives(probs, probs, FixedUniforms(uniforms))
        ref = reference_hard_negatives(probs, probs, FixedUniforms(uniforms))
        assert [a.tolist() for a in new] == [a.tolist() for a in ref]
        assert new[0].tolist() == [2, 2, 0]
        assert new[1].tolist() == [1, 0, 1]

    def test_uniform_beyond_a_rounded_cdf_end_stays_in_the_row(self):
        # Generator.random can return 1 - 2**-53, which is where the rounded
        # CDF of image row 1 ends here: every column's CDF is <= u, so the
        # inversion alone would pick n
        probs = np.random.default_rng(0).random((4, 4))
        neg_t, neg_i = sample_hard_negatives(probs, probs, FixedUniforms([1 - 2**-53] * 8))
        # each row's last column with mass: its own diagonal is zeroed
        assert neg_t.tolist() == neg_i.tolist() == [3, 3, 3, 2]

    @settings(max_examples=examples(200), deadline=None)
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
        adapter = dataclasses.replace(AdapterParams.identity(8), match_scale=0.0, match_bias=0.0)
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
        adapter = dataclasses.replace(AdapterParams.identity(4), match_scale=50.0, match_bias=-25.0)
        negatives = (np.array([1, 0, 3, 2]), np.array([1, 0, 3, 2]))
        loss, _ = match_loss(batch, negatives, adapter)
        assert loss < 1e-8

    def test_empty_batch_is_too_small(self):
        empty = np.empty((0, 4))
        with pytest.raises(BatchTooSmall, match="^match loss needs at least 1 pair$"):
            match_loss(Batch(empty, empty.copy()), (np.arange(0), np.arange(0)),
                       AdapterParams.identity(4))

    @pytest.mark.parametrize("bad", [[1, 0, 3], [1, 0, 3, -1], [1, 0, 3, 4], [1.0, 0.0, 3.0, 0.5]])
    def test_negatives_must_be_one_row_index_per_row(self, bad):
        batch = random_batch(4, 8, seed=9)
        good = np.array([1, 0, 3, 2])
        for negatives in ((np.array(bad), good), (good, np.array(bad))):
            with pytest.raises(InvalidConfig, match="negative"):
                match_loss(batch, negatives, AdapterParams.identity(8))

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


def assert_trace_is_the_whole_matrix_evaluation(q, g, ground_truth, cfg, block_scores=None):
    """Train with data.BLOCK_SCORES set to block_scores, if given, and
    check every trace entry and the evaluation negatives, bit for bit, against
    contrastive_loss, match_loss and sample_hard_negatives at the same
    full-dataset forward; those form each softmax whole. Returns the entry-0
    softmaxes."""
    seen = []  # (full batch, parameters) at each full-dataset forward
    drawn = []  # the negatives each full-dataset match loss was given
    forward, match_logits = objective._adapter_forward, objective._match_logits

    def recording_forward(batch, adapter):
        if batch.size == q.rows:
            seen.append((batch, copy.deepcopy(adapter)))
        return forward(batch, adapter)

    def recording_match_logits(fwd, negatives, adapter):
        if len(fwd[0]) == q.rows:
            drawn.append(negatives)
        return match_logits(fwd, negatives, adapter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objective, "_adapter_forward", recording_forward)
        mp.setattr(objective, "_match_logits", recording_match_logits)
        if block_scores is not None:
            mp.setattr(data, "BLOCK_SCORES", block_scores)
        _, trace = train_adapter(q, g, ground_truth, cfg)

    assert len(seen) == len(drawn) == cfg.epochs + 1
    full_batch, initial = seen[0]
    _, _, p_i2t, p_t2i = contrastive_loss(full_batch, initial)
    eval_negatives = sample_hard_negatives(p_i2t, p_t2i, np.random.default_rng([cfg.seed, 1]))
    for entry, (batch, params), negatives in zip(trace, seen, drawn):
        assert entry.contrastive == contrastive_loss(batch, params)[0]
        assert entry.match == match_loss(batch, eval_negatives, params)[0]
        for got, want in zip(negatives, eval_negatives, strict=True):
            np.testing.assert_array_equal(got, want)
    return p_i2t, p_t2i


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

    @pytest.mark.parametrize("temperature", [0.05, 1.0, 10.0])
    def test_one_full_dataset_forward_per_trace_entry(self, make_dataset, temperature):
        manifest, q, g = self.normalized_pair(make_dataset)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4, temperature=temperature)
        assert_trace_is_the_whole_matrix_evaluation(q, g, manifest.ground_truth, cfg)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 24),
        rows=st.integers(1, 5),
        extra=st.integers(0, 5),
        temperature=st.sampled_from([1e-3, 0.05, 1.0, 10.0]),
    )
    # a last block of one row would change these losses (numpy would sum its
    # sims.T row pairwise), as would blocks of one row
    @example(seed=0, n=16, rows=3, extra=0, temperature=0.05)
    @example(seed=0, n=16, rows=1, extra=0, temperature=0.05)
    def test_trace_in_row_blocks_is_the_whole_matrix_evaluation(
        self, seed, n, rows, extra, temperature
    ):
        gen = np.random.default_rng(seed)
        # orthonormal texts, some before the last two made confusable with
        # the row before them, and images close to their texts: at tau = 1e-3
        # a row that is not confusable, such as the last, has no off-diagonal mass
        texts = np.linalg.qr(gen.standard_normal((32, 32)))[0][:n]
        for j in np.flatnonzero(gen.random(n - 2) < 0.3)[1:]:
            texts[j] = texts[j - 1] + 0.3 * texts[j]
        texts /= np.linalg.norm(texts, axis=1, keepdims=True)
        images = texts + 0.01 * gen.standard_normal(texts.shape)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        q, g = (data.EmbeddingMatrix(m.astype(np.float32)) for m in (texts, images))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=seed, temperature=temperature)
        # blocks of `rows` rows (at least 2), the last one ragged when n says
        # so; n > 6 puts the last row beyond the first block
        p_i2t, p_t2i = assert_trace_is_the_whole_matrix_evaluation(
            q, g, np.arange(n), cfg, block_scores=rows * n + extra
        )
        if temperature == 1e-3:
            # the draw's uniform fallback runs at a non-zero row offset
            for probs in (p_i2t, p_t2i):
                assert not probs[-1, :-1].any()

    def test_peak_memory_is_about_one_score_matrix(self):
        # the trace keeps the n x n scores whole but takes both softmaxes, and
        # entry 0's negative draw, in blocks of O(BLOCK_SCORES) scores
        rng = np.random.default_rng(8)
        n = 2000
        q, g = (data.EmbeddingMatrix(unit_rows(n, 16, rng).astype(np.float32)) for _ in range(2))
        tracemalloc.start()
        try:
            train_adapter(q, g, np.arange(n), TrainConfig(epochs=2, batch_size=16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * n * n * 8

    def test_single_pair_is_too_small(self):
        q, g = (data.EmbeddingMatrix(unit_rows(1, 4, np.random.default_rng(s)).astype(np.float32))
                for s in range(2))
        with pytest.raises(BatchTooSmall, match="^hard-negative sampling needs at least 2 pairs$"):
            train_adapter(q, g, np.arange(1), TrainConfig(epochs=1))

    def test_no_pairs_are_too_small(self):
        q = data.EmbeddingMatrix(np.empty((0, 4), dtype=np.float32))
        g = data.EmbeddingMatrix(unit_rows(1, 4, np.random.default_rng(0)).astype(np.float32))
        with pytest.raises(BatchTooSmall, match="^hard-negative sampling needs at least 2 pairs$"):
            train_adapter(q, g, np.arange(0), TrainConfig(epochs=1))

    def test_small_temperature_trains(self, seed7_dataset):
        # the README set at tau = 1e-4: positives' probabilities underflow to
        # 0, but their logs, shifted score - log(rowsum), stay finite, and
        # nothing warns (pytest turns warnings into errors)
        _, manifest = seed7_dataset
        q, g = (data.l2_normalize(data.load_embeddings(manifest, split))
                for split in ("query", "gallery"))
        cfg = TrainConfig(epochs=1, temperature=1e-4, seed=7)
        _, trace = train_adapter(q, g, manifest.ground_truth, cfg)
        assert [t.total for t in trace] == pytest.approx([773.758633229, 714.133058893], abs=1e-6)

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
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=1)
        with pytest.raises(InvalidConfig):
            TrainConfig(step_size=0.0)
        with pytest.raises(InvalidConfig, match="^weight_decay must be nonnegative$"):
            TrainConfig(weight_decay=-1)

    def test_query_and_gallery_dims_must_match(self):
        rng = np.random.default_rng(0)
        q = data.EmbeddingMatrix(unit_rows(4, 4, rng).astype(np.float32))
        g = data.EmbeddingMatrix(unit_rows(4, 3, rng).astype(np.float32))
        with pytest.raises(DimensionMismatch, match="^query and gallery dims differ$"):
            train_adapter(q, g, np.arange(4), TrainConfig(epochs=1))

    def test_decay_cannot_zero_or_flip_the_weights(self):
        """A step scales the weights by 1 - lr * weight_decay, and lr starts at
        step_size: at step_size 100 the README set's first step zeroed them."""
        for step_size, weight_decay in ((100.0, 0.01), (1.0, 1.0), (1e300, 0.01),
                                        (3e-5, 1e300), (1e5, 0.01)):
            with pytest.raises(InvalidConfig, match=r"^step_size \* weight_decay must be < 1$"):
                TrainConfig(step_size=step_size, weight_decay=weight_decay)
        assert TrainConfig(step_size=99.0, weight_decay=0.01).step_size == 99.0

    def test_parameters_are_values(self, make_dataset):
        """Every AdapterParams that training projects through is left as built,
        and none can be assigned to."""
        manifest, q, g = self.normalized_pair(make_dataset)
        seen = []
        forward = objective._adapter_forward

        def recording_forward(batch, adapter):
            seen.append((adapter, copy.deepcopy(adapter)))
            return forward(batch, adapter)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objective, "_adapter_forward", recording_forward)
            params, _ = train_adapter(q, g, manifest.ground_truth,
                                      TrainConfig(epochs=2, batch_size=8, step_size=0.1, seed=3))
        assert len(seen) == 2 * 2 + 3  # two steps per epoch, three trace entries
        for adapter, built in seen:
            for field in dataclasses.fields(AdapterParams):
                np.testing.assert_array_equal(getattr(adapter, field.name),
                                              getattr(built, field.name))
        assert not np.array_equal(params.w_text, np.eye(8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.match_scale = 1.0

    def test_non_finite_step_is_refused_at_that_step(self, seed7_dataset):
        """A step that leaves the weights non-finite raises AdapterParams' own
        error, with no numpy warning (pytest turns warnings into errors)."""
        _, manifest = seed7_dataset
        q, g = (data.l2_normalize(data.load_embeddings(manifest, split))
                for split in ("query", "gallery"))
        cfg = TrainConfig(epochs=2, step_size=1e10, weight_decay=0.0, temperature=1e-306, seed=7)
        with pytest.raises(NonFiniteValue, match="^w_text contains non-finite entries$"):
            train_adapter(q, g, manifest.ground_truth, cfg)

    def test_non_finite_trace_total_is_refused(self, seed7_dataset):
        """lambda_match * match overflows at entry 1 (its match loss is about
        2e294) while every weight stays finite; training used to return that
        trace with an inf total."""
        _, manifest = seed7_dataset
        q, g = (data.l2_normalize(data.load_embeddings(manifest, split))
                for split in ("query", "gallery"))
        cfg = TrainConfig(epochs=2, lambda_match=1e300, seed=7)
        with pytest.raises(NonFiniteValue, match="^trace entry 1 has a non-finite total loss$"):
            train_adapter(q, g, manifest.ground_truth, cfg)

    @pytest.mark.parametrize("tau, message", [
        (0.0, "temperature must be positive"),
        (-1.0, "temperature must be positive"),
        (1e-310, "temperature must keep 2 / temperature finite, got 1e-310"),
    ])
    def test_one_temperature_rule(self, tau, message):
        """TrainConfig and AdapterParams refuse the same temperatures alike."""
        for build in (lambda: TrainConfig(temperature=tau),
                      lambda: AdapterParams(np.eye(2), np.eye(2), temperature=tau)):
            with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
                build()

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


class TestAdapterParams:
    @pytest.mark.parametrize("name", ["w_text", "w_image"])
    def test_weights_are_read_only(self, name):
        """An assignment into a weight would skip the finiteness check."""
        params = AdapterParams.identity(4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(params, name)[0, 0] = math.inf
        np.testing.assert_array_equal(getattr(params, name), np.eye(4))

    def test_writes_to_the_input_do_not_reach_the_params(self):
        w_text, w_image = np.eye(4), 2 * np.eye(4)
        params = AdapterParams(w_text, w_image)
        w_text[0, 0] = w_image[1, 1] = math.inf
        np.testing.assert_array_equal(params.w_text, np.eye(4))
        np.testing.assert_array_equal(params.w_image, 2 * np.eye(4))


class TestApplyAdapter:
    def test_identity_is_noop(self):
        rows = unit_rows(5, 6, np.random.default_rng(3)).astype(np.float32)
        m = data.EmbeddingMatrix(rows)
        out = apply_adapter(m, AdapterParams.identity(6), "text")
        np.testing.assert_allclose(out.data, rows, atol=1e-6)

    def test_scaled_identity_invariant_downstream(self):
        rng = np.random.default_rng(4)
        q = data.EmbeddingMatrix(unit_rows(6, 8, rng).astype(np.float32))
        g = data.EmbeddingMatrix(unit_rows(10, 8, rng).astype(np.float32))
        adapter = AdapterParams(w_text=2.0 * np.eye(8), w_image=2.0 * np.eye(8))
        q2 = apply_adapter(q, adapter, "text")
        g2 = apply_adapter(g, adapter, "image")
        base = similarity.top_k(similarity.similarity_matrix(q, g), 10)
        scaled = similarity.top_k(similarity.similarity_matrix(q2, g2), 10)
        assert np.array_equal(base.ids, scaled.ids)

    def test_bad_side(self):
        m = data.EmbeddingMatrix(np.eye(2, dtype=np.float32))
        with pytest.raises(InvalidConfig):
            apply_adapter(m, AdapterParams.identity(2), "audio")

    @pytest.mark.parametrize("side", ["text", "image"])
    def test_non_finite_weight_is_the_adapters_fault(self, side):
        w = np.eye(4)
        w[0, 0] = math.inf
        m = data.EmbeddingMatrix(np.eye(4, dtype=np.float32))
        with pytest.raises(NonFiniteValue, match=f"w_{side} contains non-finite entries"):
            apply_adapter(m, dataclasses.replace(AdapterParams.identity(4), **{f"w_{side}": w}),
                          side)

    def test_nan_temperature_is_rejected(self):
        m = data.EmbeddingMatrix(np.eye(4, dtype=np.float32))
        with pytest.raises(InvalidConfig, match="temperature must be finite"):
            apply_adapter(m, AdapterParams(np.eye(4), np.eye(4), temperature=math.nan), "text")

    def test_adapter_dim_must_match_the_rows(self):
        adapter = AdapterParams.identity(3)
        m = data.EmbeddingMatrix(np.eye(2, dtype=np.float32))
        batch = random_batch(4, 2, seed=1)
        negatives = (np.array([1, 0, 3, 2]), np.array([1, 0, 3, 2]))
        for call in (
            lambda: apply_adapter(m, adapter, "text"),
            lambda: apply_adapter(m, adapter, "image"),
            lambda: contrastive_loss(batch, adapter),
            lambda: match_loss(batch, negatives, adapter),
        ):
            with pytest.raises(DimensionMismatch, match="matrix dim 2 != adapter dim 3"):
                call()


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

    @pytest.mark.parametrize("w_text, w_image", [
        (np.eye(3), np.eye(4)), (np.ones((3, 4)), np.ones((3, 4))),
        (np.ones(3), np.ones(3)), (np.eye(3)[None], np.eye(3)[None]),
    ], ids=["two-dims", "not-square", "one-dimensional", "three-dimensional"])
    def test_weights_of_two_shapes_are_refused(self, tmp_path, w_text, w_image):
        """Such weights used to build, and save_adapter then wrote a file
        that load_adapter refused (`240 bytes, expected 184` for two dims)."""
        message = (f"^adapter weights must be two d x d matrices of one d, "
                   f"got w_text {re.escape(str(w_text.shape))} and w_image ")
        with pytest.raises(DimensionMismatch, match=message):
            AdapterParams(w_text, w_image)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        shapes=st.tuples(*[st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)] * 2),
        scalars=st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        draws=st.data(),
    )
    def test_every_built_adapter_round_trips_bit_for_bit(self, tmp_path, shapes, scalars, draws):
        """float64 weights of any shapes build only as two d x d matrices of
        one d, and then save_adapter writes what load_adapter reads back exactly."""
        assume(math.isfinite(2 / scalars[2]))  # the temperature rule
        w_text, w_image = (draws.draw(arrays(np.float64, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False))) for shape in shapes)
        if not (len(shapes[0]) == 2 and shapes[0][0] == shapes[0][1] and shapes[1] == shapes[0]):
            with pytest.raises(DimensionMismatch):
                AdapterParams(w_text, w_image, *scalars)
            return
        params = AdapterParams(w_text, w_image, *scalars)
        path = tmp_path / "params.adapter"
        save_adapter(path, params)
        back = load_adapter(path)
        for name in ("w_text", "w_image"):
            assert getattr(back, name).shape == getattr(params, name).shape
            assert getattr(back, name).tobytes() == getattr(params, name).tobytes()
        for name, value in zip(("match_scale", "match_bias", "temperature"), scalars):
            assert struct.pack("<d", getattr(back, name)) == struct.pack("<d", value)

    def test_non_finite_scalars_are_rejected(self, tmp_path):
        path = tmp_path / "params.adapter"
        for temperature in (math.nan, math.inf):
            # the bytes save_adapter would write, had such parameters been built
            eye = np.eye(2).ravel()
            path.write_bytes(b"ADAP" + struct.pack("<III", 1, 2, 1) + np.concatenate(
                [eye, eye, [10.0, 0.0, temperature]]).astype("<f8").tobytes())
            with pytest.raises(InvalidConfig, match="temperature must be finite"):
                load_adapter(path)
        for field in ("match_scale", "match_bias"):
            with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
                dataclasses.replace(AdapterParams.identity(2), **{field: np.float32(math.nan)})

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b"ADAQ" + b[4:], "not an adapter parameter file"),
        (lambda b: b[:15], "not an adapter parameter file"),
        (lambda b: b"", "not an adapter parameter file"),
        (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported format version 2"),
        (lambda b: b + b"\0", "105 bytes, expected 104"),
        (lambda b: b[:-8], "96 bytes, expected 104"),
    ], ids=["magic", "short-header", "empty", "version-2", "one-byte-long", "one-value-short"])
    def test_malformed_file_is_refused(self, tmp_path, edit, message):
        path = tmp_path / "params.adapter"
        save_adapter(path, AdapterParams.identity(2))  # 16 header bytes, 11 float64 values
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_adapter(path)

    def test_float32_payload_is_refused(self, tmp_path):
        """A float32 payload under dtype flag 0 is refused: float64 (flag 1),
        the form save_adapter writes, is the only one."""
        params = random_adapter(4, seed=12)
        path = tmp_path / "params32.adapter"
        header = b"ADAP" + struct.pack("<III", 1, 4, 0)
        scalars = [params.match_scale, params.match_bias, params.temperature]
        payload = b"".join(
            np.asarray(a, dtype="<f4").tobytes()
            for a in (params.w_text, params.w_image, scalars)
        )
        path.write_bytes(header + payload)
        with pytest.raises(ParseError, match=re.escape("unknown dtype flag 0, expected 1 (float64)")):
            load_adapter(path)
