"""Contrastive and match objectives over a trainable linear adapter.

Both modalities pass through a d x d projection and are re-normalized; the
contrastive term is symmetric in-batch cross-entropy over cosine scores, the
match term is binary cross-entropy on a logistic head fed the cosine of each
(image, text) pair, with one similarity-weighted hard negative per anchor.
All gradients are derived analytically and checked against central finite
differences in the test suite.

Training is plain gradient descent with decoupled weight decay and a linear
step-size decay, deterministic per seed.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EmbeddingMatrix, _normalize_rows, _require_file, _write_table
from .errors import (
    BatchTooSmall,
    DimensionMismatch,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingGroundTruth,
    NonFiniteValue,
    ParseError,
)

IMAGE_TO_TEXT = "image_to_text"
TEXT_TO_IMAGE = "text_to_image"

_ADAPTER_MAGIC = b"ADAP"
_ADAPTER_VERSION = 1


@dataclass
class AdapterParams:
    """Linear projections per modality plus the logistic match head."""

    w_text: np.ndarray
    w_image: np.ndarray
    match_scale: float = 10.0
    match_bias: float = 0.0
    temperature: float = 1.0

    @classmethod
    def identity(cls, dim: int) -> "AdapterParams":
        return cls(w_text=np.eye(dim), w_image=np.eye(dim))

    def validate(self) -> None:
        if self.temperature <= 0:
            raise InvalidConfig("temperature must be positive")
        for name, value in (("w_text", self.w_text), ("w_image", self.w_image)):
            if not np.all(np.isfinite(value)):
                raise NonFiniteValue(f"{name} contains non-finite entries")
        if not (np.isfinite(self.match_scale) and np.isfinite(self.match_bias)):
            raise NonFiniteValue("match head parameters must be finite")


@dataclass
class AdapterGradients:
    """Gradient of a loss with respect to every AdapterParams field."""

    w_text: np.ndarray
    w_image: np.ndarray
    match_scale: float = 0.0
    match_bias: float = 0.0
    temperature: float = 0.0


@dataclass
class Batch:
    """Aligned positive pairs: row i of each matrix belongs to the same item."""

    image_embeddings: np.ndarray
    text_embeddings: np.ndarray

    def __post_init__(self):
        if self.image_embeddings.shape != self.text_embeddings.shape:
            raise DimensionMismatch("image and text batches must have identical shapes")

    @property
    def size(self) -> int:
        return self.image_embeddings.shape[0]


@dataclass
class LossBreakdown:
    contrastive: float
    match: float
    lambda_match: float

    @property
    def total(self) -> float:
        return self.contrastive + self.lambda_match * self.match


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs. temperature is fixed for the whole run: its gradient
    is reported by contrastive_loss but never applied."""

    epochs: int = 10
    batch_size: int = 16
    step_size: float = 3e-5
    weight_decay: float = 0.01
    lambda_match: float = 1.0
    temperature: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if self.batch_size < 2:
            raise InvalidConfig("batch_size must be >= 2")
        if self.step_size <= 0:
            raise InvalidConfig("step_size must be positive")
        if self.weight_decay < 0:
            raise InvalidConfig("weight_decay must be nonnegative")
        if self.temperature <= 0:
            raise InvalidConfig("temperature must be positive")


def _softmax_terms(sims: np.ndarray, direction: str, temperature: float):
    """Max-shifted exponentials e and their row sums; the softmax is e / rowsum."""
    if temperature <= 0:
        raise InvalidConfig("temperature must be positive")
    if direction == TEXT_TO_IMAGE:
        sims = sims.T
    elif direction != IMAGE_TO_TEXT:
        raise InvalidConfig(f"unknown direction {direction!r}")
    if not np.all(np.isfinite(sims)):
        raise NonFiniteValue("similarity matrix contains non-finite entries")
    e = sims / temperature
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=1, keepdims=True)


def inbatch_softmax(sims: np.ndarray, direction: str, temperature: float) -> np.ndarray:
    """Row-stochastic softmax over in-batch candidates at the given temperature.

    ``image_to_text`` normalizes each image row over all text columns;
    ``text_to_image`` does the same on the transposed score matrix.
    """
    e, rowsum = _softmax_terms(sims, direction, temperature)
    e /= rowsum
    return e


def _softmax_diagonal(sims: np.ndarray, direction: str, temperature: float) -> np.ndarray:
    """The diagonal of inbatch_softmax without dividing the whole matrix."""
    e, rowsum = _softmax_terms(sims, direction, temperature)
    return np.diagonal(e) / rowsum[:, 0]


def _contrastive_value(diag_i2t: np.ndarray, diag_t2i: np.ndarray) -> float:
    """Symmetric cross-entropy from the positives' softmax probabilities."""
    n = len(diag_i2t)
    loss = -(np.log(diag_i2t).sum() + np.log(diag_t2i).sum()) / (2 * n)
    if not np.isfinite(loss):
        raise NonFiniteValue("contrastive loss is non-finite")
    return float(loss)


def _backprop_normalize(grad: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient back through y = a / ||a||."""
    return (grad - unit * np.sum(grad * unit, axis=1, keepdims=True)) / norms[:, None]


def _adapter_forward(batch: Batch, adapter: AdapterParams):
    """Validated adapter, then (texts, t_norms, images, i_norms) of the batch."""
    adapter.validate()
    texts, t_norms = _normalize_rows(batch.text_embeddings @ adapter.w_text)
    images, i_norms = _normalize_rows(batch.image_embeddings @ adapter.w_image)
    return texts, t_norms, images, i_norms


def _grads_from_embedding_grads(
    batch: Batch, d_texts: np.ndarray, d_images: np.ndarray, forward
) -> AdapterGradients:
    texts, t_norms, images, i_norms = forward
    da_text = _backprop_normalize(d_texts, texts, t_norms)
    da_image = _backprop_normalize(d_images, images, i_norms)
    return AdapterGradients(
        w_text=batch.text_embeddings.T @ da_text,
        w_image=batch.image_embeddings.T @ da_image,
    )


def _similarities(forward) -> np.ndarray:
    texts, _, images, _ = forward
    return images @ texts.T


def _contrastive_probs(sims: np.ndarray, tau: float):
    """Both in-batch softmaxes of the scores and the contrastive loss."""
    p_i2t = inbatch_softmax(sims, IMAGE_TO_TEXT, tau)
    p_t2i = inbatch_softmax(sims, TEXT_TO_IMAGE, tau)
    loss = _contrastive_value(np.diagonal(p_i2t), np.diagonal(p_t2i))
    return p_i2t, p_t2i, loss


def _diagonal_contrastive(forward, tau: float) -> float:
    """Contrastive loss of a forward from the softmax diagonals alone."""
    sims = _similarities(forward)
    return _contrastive_value(
        _softmax_diagonal(sims, IMAGE_TO_TEXT, tau),
        _softmax_diagonal(sims, TEXT_TO_IMAGE, tau),
    )


def _contrastive_loss(batch: Batch, forward, tau: float):
    texts, _, images, _ = forward
    n = batch.size
    sims = _similarities(forward)
    p_i2t, p_t2i, loss = _contrastive_probs(sims, tau)

    eye = np.eye(n)
    g_sims = ((p_i2t - eye) + (p_t2i - eye).T) / (2 * n * tau)
    d_images = g_sims @ texts
    d_texts = g_sims.T @ images

    grads = _grads_from_embedding_grads(batch, d_texts, d_images, forward)
    grads.temperature = float(-np.sum(g_sims * sims) / tau)
    return loss, grads, p_i2t, p_t2i


def contrastive_loss(batch: Batch, adapter: AdapterParams):
    """Symmetric in-batch cross-entropy loss and its adapter gradients.

    Returns (loss, AdapterGradients, image_to_text softmax, text_to_image
    softmax); the softmax matrices feed hard-negative sampling. The gradient
    includes temperature, which train_adapter never applies.
    """
    if batch.size < 2:
        raise BatchTooSmall("contrastive loss needs at least 2 pairs")
    forward = _adapter_forward(batch, adapter)
    return _contrastive_loss(batch, forward, adapter.temperature)


def sample_hard_negatives(
    p_i2t: np.ndarray, p_t2i: np.ndarray, rng: np.random.Generator
):
    """Draw one hard negative per anchor, proportionally to off-diagonal mass.

    For image i a negative text index is drawn from p_i2t row i with the
    positive excluded; symmetrically for each text from p_t2i. A row with no
    off-diagonal mass draws uniformly among the other indices. Each side
    takes n uniforms from rng, image rows first, and inverts each row's CDF.
    Returns (neg_text_idx, neg_image_idx), deterministic for a seeded
    generator.
    """
    n = p_i2t.shape[0]
    if n < 2:
        raise BatchTooSmall("hard-negative sampling needs at least 2 pairs")
    diag = np.arange(n)

    def draw(probs: np.ndarray) -> np.ndarray:
        rows = probs.astype(np.float64, order="C")
        rows[diag, diag] = 0.0
        totals = rows.sum(axis=1)
        empty = totals <= 0
        if empty.any():
            rows[empty] = 1.0
            rows[diag[empty], diag[empty]] = 0.0
            totals[empty] = rows[empty].sum(axis=1)
        rows /= totals[:, None]
        cdf = np.cumsum(rows, axis=1, out=rows)
        u = rng.random(n)
        return (cdf <= u[:, None]).sum(axis=1)

    neg_text_idx = draw(p_i2t)
    neg_image_idx = draw(p_t2i)
    return neg_text_idx, neg_image_idx


def _match_logits(forward, negatives, adapter: AdapterParams):
    """BCE of the match head, with the pair indices, labels, cosines and
    logits that its gradient needs."""
    texts, _, images, _ = forward
    n = len(texts)
    neg_text_idx, neg_image_idx = negatives
    pos = np.arange(n)
    img_idx = np.concatenate([pos, pos, neg_image_idx])
    txt_idx = np.concatenate([pos, neg_text_idx, pos])
    labels = np.concatenate([np.ones(n), np.zeros(2 * n)])

    cos = np.sum(images[img_idx] * texts[txt_idx], axis=1)
    z = adapter.match_scale * cos + adapter.match_bias
    # softplus(z) - y*z is the numerically stable BCE-on-logits form
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    if not np.isfinite(loss):
        raise NonFiniteValue("match loss is non-finite")
    return loss, (img_idx, txt_idx, labels, cos, z)


def _match_loss(batch: Batch, forward, negatives, adapter: AdapterParams):
    texts, _, images, _ = forward
    loss, (img_idx, txt_idx, labels, cos, z) = _match_logits(forward, negatives, adapter)

    p = 1.0 / (1.0 + np.exp(-z))
    dz = (p - labels) / len(labels)
    d_cos = adapter.match_scale * dz

    d_images = np.zeros_like(images)
    d_texts = np.zeros_like(texts)
    np.add.at(d_images, img_idx, d_cos[:, None] * texts[txt_idx])
    np.add.at(d_texts, txt_idx, d_cos[:, None] * images[img_idx])

    grads = _grads_from_embedding_grads(batch, d_texts, d_images, forward)
    grads.match_scale = float(np.sum(dz * cos))
    grads.match_bias = float(np.sum(dz))
    return loss, grads


def match_loss(
    batch: Batch,
    negatives: tuple[np.ndarray, np.ndarray],
    adapter: AdapterParams,
):
    """Binary cross-entropy of the logistic match head and its gradients.

    Scores N positive pairs against 2N hard-negative pairs; the head maps
    cosine(adapted image, adapted text) through scale and bias to a logit.
    """
    n = batch.size
    neg_text_idx, neg_image_idx = negatives
    if len(neg_text_idx) != n or len(neg_image_idx) != n:
        raise InvalidConfig("negatives must contain one index per batch row")
    return _match_loss(batch, _adapter_forward(batch, adapter), negatives, adapter)


def train_adapter(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    ground_truth: dict[int, int],
    cfg: TrainConfig,
):
    """Fit the adapter on (text, paired image) batches by gradient descent.

    Returns the trained AdapterParams and a LossBreakdown trace with one
    entry per epoch boundary: entry 0 is the pre-training loss, entry e the
    loss after epoch e, both measured on the full dataset with a fixed set
    of evaluation negatives so the trace reflects parameter movement rather
    than shuffle noise. The trace computes loss values only, from one
    full-dataset forward per entry; the first also draws the evaluation
    negatives. Projections start at identity, the match head at (scale=10,
    bias=0) and temperature stays at cfg.temperature: its gradient is
    computed with the others but never applied. Shuffling, hard-negative
    draws and updates all come from seeded generators, so the result is
    bit-identical per seed. Every query row needs a ground_truth entry that
    names a gallery row (MissingGroundTruth, GroundTruthOutOfRange).
    """
    cfg.validate()
    if queries.dim != gallery.dim:
        raise DimensionMismatch("query and gallery dims differ")

    missing = [q for q in range(queries.rows) if q not in ground_truth]
    if missing:
        raise MissingGroundTruth(f"query row {missing[0]} has no ground-truth entry")
    targets = np.array([ground_truth[q] for q in range(queries.rows)], dtype=np.int64)
    outside = np.flatnonzero((targets < 0) | (targets >= gallery.rows))
    if outside.size:
        q = int(outside[0])
        raise GroundTruthOutOfRange(
            f"ground_truth[{q}] = {targets[q]} outside [0, {gallery.rows})"
        )

    dim = queries.dim
    texts_all = queries.data.astype(np.float64)
    images_all = gallery.data[targets].astype(np.float64)

    params = AdapterParams.identity(dim)
    params.temperature = tau = cfg.temperature
    trace: list[LossBreakdown] = []
    if cfg.epochs == 0:
        return params, trace

    full_batch = Batch(image_embeddings=images_all, text_embeddings=texts_all)

    def record(forward, c_loss: float) -> None:
        m_loss, _ = _match_logits(forward, eval_negatives, params)
        trace.append(
            LossBreakdown(
                contrastive=c_loss, match=m_loss, lambda_match=cfg.lambda_match
            )
        )

    forward = _adapter_forward(full_batch, params)
    p_i2t, p_t2i, c_loss = _contrastive_probs(_similarities(forward), tau)
    eval_negatives = sample_hard_negatives(
        p_i2t, p_t2i, np.random.default_rng([cfg.seed, 1])
    )
    record(forward, c_loss)

    rng = np.random.default_rng([cfg.seed, 0])
    n = queries.rows
    # a final batch of fewer than 2 rows is skipped (batch_size >= 2)
    starts = [s for s in range(0, n, cfg.batch_size) if n - s >= 2]
    total_steps = cfg.epochs * len(starts)
    step = 0

    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in starts:
            idx = perm[start : start + cfg.batch_size]
            batch = Batch(
                image_embeddings=images_all[idx], text_embeddings=texts_all[idx]
            )
            forward = _adapter_forward(batch, params)
            _, c_grads, p_i2t, p_t2i = _contrastive_loss(batch, forward, tau)
            negatives = sample_hard_negatives(p_i2t, p_t2i, rng)
            _, m_grads = _match_loss(batch, forward, negatives, params)

            lr = cfg.step_size * (1.0 - step / total_steps)
            params.w_text -= lr * (
                c_grads.w_text + cfg.lambda_match * m_grads.w_text
            )
            params.w_image -= lr * (
                c_grads.w_image + cfg.lambda_match * m_grads.w_image
            )
            params.w_text -= lr * cfg.weight_decay * params.w_text
            params.w_image -= lr * cfg.weight_decay * params.w_image
            params.match_scale -= lr * cfg.lambda_match * m_grads.match_scale
            params.match_bias -= lr * cfg.lambda_match * m_grads.match_bias

            step += 1
        forward = _adapter_forward(full_batch, params)
        record(forward, _diagonal_contrastive(forward, tau))
    return params, trace


def apply_adapter(m: EmbeddingMatrix, params: AdapterParams, side: str) -> EmbeddingMatrix:
    """Project one modality's rows through its adapter matrix and renormalize."""
    if side == "text":
        w = params.w_text
    elif side == "image":
        w = params.w_image
    else:
        raise InvalidConfig(f"side must be 'text' or 'image', got {side!r}")
    if m.dim != w.shape[0]:
        raise DimensionMismatch(f"matrix dim {m.dim} != adapter dim {w.shape[0]}")
    projected, _ = _normalize_rows(m.data.astype(np.float64) @ w)
    return EmbeddingMatrix(data=projected.astype(np.float32), normalized=True)


def save_adapter(path: str | Path, params: AdapterParams) -> None:
    """Persist adapter parameters: magic, version, dim, dtype flag, payload.

    Always writes float64 (flag 1); load_adapter also reads float32 (flag 0).
    """
    dim = params.w_text.shape[0]
    header = _ADAPTER_MAGIC + struct.pack("<III", _ADAPTER_VERSION, dim, 1)
    scalars = [params.match_scale, params.match_bias, params.temperature]
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in (params.w_text, params.w_image, scalars)
    )
    Path(path).write_bytes(header + payload)


def load_adapter(path: str | Path) -> AdapterParams:
    path = _require_file(path, "adapter file")
    buf = path.read_bytes()
    if len(buf) < 16 or buf[:4] != _ADAPTER_MAGIC:
        raise ParseError(f"{path}: not an adapter parameter file")
    version, dim, f64 = struct.unpack("<III", buf[4:16])
    if version != _ADAPTER_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    dtype = np.dtype("<f8" if f64 else "<f4")
    need = 16 + (2 * dim * dim + 3) * dtype.itemsize
    if len(buf) != need:
        raise ParseError(f"{path}: {len(buf)} bytes, expected {need}")
    body = np.frombuffer(buf, dtype=dtype, offset=16)
    w_text = body[: dim * dim].reshape(dim, dim).astype(np.float64)
    w_image = body[dim * dim : 2 * dim * dim].reshape(dim, dim).astype(np.float64)
    scale, bias, temperature = (float(x) for x in body[2 * dim * dim :])
    params = AdapterParams(
        w_text=w_text,
        w_image=w_image,
        match_scale=scale,
        match_bias=bias,
        temperature=temperature,
    )
    params.validate()
    return params


def write_trace(path: str | Path, trace: list[LossBreakdown], meta: dict | None = None) -> None:
    """Training trace as `epoch TAB contrastive TAB match TAB total` lines."""
    _write_table(path, meta, "%d\t%.12g\t%.12g\t%.12g", [
        list(range(len(trace))), [t.contrastive for t in trace], [t.match for t in trace],
        [t.total for t in trace],
    ])
