"""Contrastive and match objectives over a trainable linear adapter.

Both modalities pass through a d x d projection and are re-normalized; the
contrastive term is symmetric in-batch cross-entropy over cosine scores, the
match term is binary cross-entropy on a logistic head fed the cosine of each
(image, text) pair, with one similarity-weighted hard negative per anchor.
All gradients are derived analytically and checked against central finite
differences in the test suite.

Training is plain gradient descent with decoupled weight decay and a linear
step-size decay, deterministic per seed. AdapterParams is a frozen value,
checked when built like the configs; each training step builds the next one.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    EmbeddingMatrix, _check_fields, _normalize_rows, _require_file, _row_bounds, _write_table,
    check_ground_truth,
)
from .errors import BatchTooSmall, DimensionMismatch, InvalidConfig, NonFiniteValue, ParseError

_ADAPTER_MAGIC = b"ADAP"
_ADAPTER_VERSION = 1


@dataclass(frozen=True)
class AdapterParams:
    """Linear projections per modality plus the logistic match head, checked
    when built: a NaN or infinite scalar or a temperature that breaks
    _check_temperature raises InvalidConfig, a non-finite weight NonFiniteValue,
    and weights that are not two d x d matrices of one d DimensionMismatch.
    Each weight is stored as a read-only copy of the array passed in."""

    w_text: np.ndarray
    w_image: np.ndarray
    match_scale: float = 10.0
    match_bias: float = 0.0
    temperature: float = 1.0

    @classmethod
    def identity(cls, dim: int, temperature: float = 1.0) -> "AdapterParams":
        return cls(w_text=np.eye(dim), w_image=np.eye(dim), temperature=temperature)

    def __post_init__(self):
        _check_fields(self)
        _check_temperature(self.temperature)
        for name in ("w_text", "w_image"):
            # a read-only copy: no later write, to it or to the input, skips this check
            value = np.array(getattr(self, name))
            value.flags.writeable = False
            object.__setattr__(self, name, value)
            if not np.all(np.isfinite(value)):
                raise NonFiniteValue(f"{name} contains non-finite entries")
        shape = self.w_text.shape
        if len(shape) != 2 or shape[0] != shape[1] or self.w_image.shape != shape:
            raise DimensionMismatch(f"adapter weights must be two d x d matrices of one d, "
                                    f"got w_text {shape} and w_image {self.w_image.shape}")


def _check_temperature(tau: float) -> None:
    """tau > 0, and 2 / tau (the widest max-shifted row of cosines / tau) finite."""
    if tau <= 0:
        raise InvalidConfig("temperature must be positive")
    if math.isinf(2 / float(tau)):
        raise InvalidConfig(f"temperature must keep 2 / temperature finite, got {tau}")


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
    """Training knobs, checked when built. temperature is fixed for the whole
    run: its gradient is reported by contrastive_loss but never applied."""

    epochs: int = 10
    batch_size: int = 16
    step_size: float = 3e-5
    weight_decay: float = 0.01
    lambda_match: float = 1.0
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if self.batch_size < 2:
            raise InvalidConfig("batch_size must be >= 2")
        if self.step_size <= 0:
            raise InvalidConfig("step_size must be positive")
        if self.weight_decay < 0:
            raise InvalidConfig("weight_decay must be nonnegative")
        if self.lambda_match < 0:  # a negative weight would ascend the match loss
            raise InvalidConfig("lambda_match must be nonnegative")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise InvalidConfig("seed must be >= 0")
        if self.step_size * self.weight_decay >= 1:  # a step scales weights by 1 - lr * wd
            raise InvalidConfig("step_size * weight_decay must be < 1")
        _check_temperature(self.temperature)


def _contrastive(sims: np.ndarray, tau: float, probs: bool = False, rng=None):
    """Symmetric in-batch cross-entropy of square image-by-text scores.

    Each direction's scores (sims for image-to-text, sims.T for text-to-image)
    are taken in the row blocks of data._row_bounds, each row shifted by its
    own max, so one block's exponentials are alive at a time and every value
    is bit for bit the one a whole-matrix evaluation gives. Returns (loss,
    softmaxes, negatives). softmaxes is [image_to_text, text_to_image] when
    probs is set, formed whole, and empty otherwise. negatives is
    [neg_text_idx, neg_image_idx] when rng is given, drawn block by block as
    sample_hard_negatives draws them from the whole softmaxes, and empty
    otherwise. tau must pass _check_temperature; sims are dot products of
    finite unit rows.
    """
    n = len(sims)
    bounds = [0, n] if probs else _row_bounds(n, n)
    # both uniform vectors up front, image rows first, as sample_hard_negatives takes them
    uniforms = (rng.random(n), rng.random(n)) if rng is not None else (None, None)
    positives, softmaxes, negatives = [], [], []
    for scores, u in zip((sims, sims.T), uniforms):
        picks = []
        for lo, hi in zip(bounds, bounds[1:]):
            # max-shifted exponentials: the softmax is e / rowsum, a positive's
            # log-probability its shifted score - log(rowsum). A block of sims.T
            # keeps its column-major layout, so each row sum adds the image
            # rows in sequence as the whole transpose does
            e = scores[lo:hi] / tau
            e -= e.max(axis=1, keepdims=True)
            rows = np.arange(len(e))
            shifted = e[rows, lo + rows]
            np.exp(e, out=e)
            rowsum = e.sum(axis=1, keepdims=True)
            positives.append(shifted - np.log(rowsum[:, 0]))
            if probs or u is not None:
                e /= rowsum
            if probs:
                softmaxes.append(e)
            if u is not None:
                picks.append(_draw_rows(e, lo, u[lo:hi]))
        if u is not None:
            negatives.append(np.concatenate(picks))
    logs = np.concatenate(positives)
    with np.errstate(over="ignore"):  # an overflowing sum fails the check below
        loss = -(logs[:n].sum() + logs[n:].sum()) / (2 * n)
    if not np.isfinite(loss):
        raise NonFiniteValue("contrastive loss is non-finite")
    return float(loss), softmaxes, negatives


def _project(rows: np.ndarray, w: np.ndarray):
    """rows @ w renormalized, and the norms it had; w must match the rows' dim.
    A NaN or inf row raises NonFiniteValue in _normalize_rows."""
    if rows.shape[1] != w.shape[0]:
        raise DimensionMismatch(f"matrix dim {rows.shape[1]} != adapter dim {w.shape[0]}")
    # inf * 0 is NaN only in a row that holds an inf, which _normalize_rows names
    with np.errstate(invalid="ignore"):
        return _normalize_rows(rows @ w)


def _adapter_forward(batch: Batch, adapter: AdapterParams):
    """(texts, t_norms, images, i_norms) of the batch through the adapter."""
    texts, t_norms = _project(batch.text_embeddings, adapter.w_text)
    images, i_norms = _project(batch.image_embeddings, adapter.w_image)
    return texts, t_norms, images, i_norms


def _backprop(batch: Batch, forward, d_texts, d_images) -> AdapterGradients:
    """Adapter gradients from those of the forward's texts and images, each
    pulled back through y = a / ||a|| and then a = x @ w."""
    texts, t_norms, images, i_norms = forward
    grads = [
        x.T @ ((d - y * np.sum(d * y, axis=1, keepdims=True)) / norms[:, None])
        for x, y, norms, d in (
            (batch.text_embeddings, texts, t_norms, d_texts),
            (batch.image_embeddings, images, i_norms, d_images),
        )
    ]
    return AdapterGradients(w_text=grads[0], w_image=grads[1])


def _contrastive_grads(batch: Batch, forward, tau: float):
    """Contrastive loss, adapter gradients with temperature's left at 0, both
    softmaxes, and (scores, the loss's gradient in them) for temperature's."""
    texts, _, images, _ = forward
    n = batch.size
    sims = images @ texts.T
    loss, (p_i2t, p_t2i), _ = _contrastive(sims, tau, probs=True)
    eye = np.eye(n)
    g_sims = ((p_i2t - eye) + (p_t2i - eye).T) / (2 * n * tau)
    grads = _backprop(batch, forward, g_sims.T @ images, g_sims @ texts)
    return loss, grads, (p_i2t, p_t2i), (sims, g_sims)


def contrastive_loss(batch: Batch, adapter: AdapterParams):
    """Symmetric in-batch cross-entropy loss and its adapter gradients.

    Returns (loss, AdapterGradients, image_to_text softmax, text_to_image
    softmax); the softmax matrices feed hard-negative sampling. Only this
    function computes the temperature gradient, which train_adapter never
    applies.
    """
    if batch.size < 2:
        raise BatchTooSmall("contrastive loss needs at least 2 pairs")
    tau = adapter.temperature
    forward = _adapter_forward(batch, adapter)
    loss, grads, (p_i2t, p_t2i), (sims, g_sims) = _contrastive_grads(batch, forward, tau)
    grads.temperature = float(-np.sum(g_sims * sims) / tau)
    return loss, grads, p_i2t, p_t2i


def sample_hard_negatives(
    p_i2t: np.ndarray, p_t2i: np.ndarray, rng: np.random.Generator
):
    """Draw one hard negative per anchor, proportionally to off-diagonal mass.

    For image i a negative text index is drawn from p_i2t row i with the
    positive excluded; symmetrically for each text from p_t2i. A row with no
    off-diagonal mass draws uniformly among the other indices. Each side
    takes n uniforms from rng, image rows first, and inverts each row's CDF;
    a uniform beyond a CDF's rounded end picks the row's last column with mass.
    Returns (neg_text_idx, neg_image_idx), deterministic for a seeded
    generator. Both inputs must be (n, n), and a row whose off-diagonal
    total is NaN or infinite raises NonFiniteValue.
    """
    n = len(p_i2t)
    if p_i2t.shape != (n, n) or p_t2i.shape != (n, n):
        raise DimensionMismatch(f"softmaxes {p_i2t.shape} and {p_t2i.shape} must both be (n, n)")
    # image rows draw first
    return tuple(_draw_rows(probs, 0, rng.random(n)) for probs in (p_i2t, p_t2i))


def _draw_rows(probs: np.ndarray, offset: int, u: np.ndarray) -> np.ndarray:
    """sample_hard_negatives' draw for rows offset, offset+1, ... of an n x n
    softmax, given as the (rows, n) block probs with one uniform per row in u.
    Returns global column indices; row and error numbers are global too."""
    n = probs.shape[1]
    if n < 2:
        raise BatchTooSmall("hard-negative sampling needs at least 2 pairs")
    rows = probs.astype(np.float64, order="C")
    local = np.arange(len(rows))
    diag = offset + local
    rows[local, diag] = 0.0
    totals = rows.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals) < np.inf))  # NaN fails the comparison
    if bad.size:
        raise NonFiniteValue(
            f"probability row {offset + bad[0]} has a non-finite off-diagonal total")
    empty = totals <= 0
    if empty.any():
        rows[empty] = 1.0
        rows[local[empty], diag[empty]] = 0.0
        totals[empty] = rows[empty].sum(axis=1)
    rows /= totals[:, None]
    cdf = np.cumsum(rows, axis=1, out=rows)
    picks = (cdf <= u[:, None]).sum(axis=1)
    # a rounded CDF can end below u < 1, which picks n: take the column
    # where that CDF last rises, the row's last column with mass
    over = np.flatnonzero(picks == n)
    picks[over] = np.argmax(cdf[over] >= cdf[over, -1:], axis=1)
    return picks


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
    # softplus(z) - y*z is the numerically stable BCE-on-logits form
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss fails below
        z = adapter.match_scale * cos + adapter.match_bias
        loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    if not np.isfinite(loss):
        raise NonFiniteValue("match loss is non-finite")
    return loss, (img_idx, txt_idx, labels, cos, z)


def _match_loss(batch: Batch, forward, negatives, adapter: AdapterParams):
    texts, _, images, _ = forward
    loss, (img_idx, txt_idx, labels, cos, z) = _match_logits(forward, negatives, adapter)

    with np.errstate(over="ignore"):  # exp(-z) = inf gives p = 0
        p = 1.0 / (1.0 + np.exp(-z))
    dz = (p - labels) / len(labels)
    d_cos = adapter.match_scale * dz

    d_images = np.zeros_like(images)
    d_texts = np.zeros_like(texts)
    np.add.at(d_images, img_idx, d_cos[:, None] * texts[txt_idx])
    np.add.at(d_texts, txt_idx, d_cos[:, None] * images[img_idx])

    grads = _backprop(batch, forward, d_texts, d_images)
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
    if n < 1:
        raise BatchTooSmall("match loss needs at least 1 pair")
    for idx in map(np.asarray, negatives):
        if idx.shape != (n,):
            raise InvalidConfig("negatives must contain one index per batch row")
        if idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n)):
            raise InvalidConfig(f"negative indices must be integers in [0, {n})")
    return _match_loss(batch, _adapter_forward(batch, adapter), negatives, adapter)


def train_adapter(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    ground_truth: np.ndarray,
    cfg: TrainConfig,
):
    """Fit the adapter on (text, paired image) batches by gradient descent.

    Returns the trained AdapterParams and a LossBreakdown trace with one
    entry per epoch boundary: entry 0 is the pre-training loss, entry e the
    loss after epoch e, both measured on the full dataset with a fixed set
    of evaluation negatives so the trace reflects parameter movement rather
    than shuffle noise. Each of the epochs + 1 passes ends in one full-dataset
    forward that computes loss values only; pass 0 takes no steps and draws
    the evaluation negatives, as sample_hard_negatives would from the whole
    softmaxes. Each entry keeps the n x n scores whole and takes both
    softmaxes, and that draw, in row blocks, so about one n x n float64 array
    is alive at a time. With epochs >= 1, fewer than 2 pairs raise
    BatchTooSmall, as that draw needs two. Projections start at identity, the
    match head at (scale=10, bias=0) and temperature stays at cfg.temperature.
    Each step builds new AdapterParams, so a non-finite step raises there,
    and a trace entry whose total is not finite raises NonFiniteValue naming
    the entry.
    Shuffling, hard-negative draws and updates all come from seeded
    generators, so the result is bit-identical per seed. ground_truth
    (int64[queries.rows]) names each query row's gallery row, as
    data.check_ground_truth requires.
    """
    if queries.dim != gallery.dim:
        raise DimensionMismatch("query and gallery dims differ")
    check_ground_truth(ground_truth, queries.rows, gallery.rows)

    texts_all = queries.data.astype(np.float64)
    images_all = gallery.data[ground_truth].astype(np.float64)

    params = AdapterParams.identity(queries.dim, cfg.temperature)
    trace: list[LossBreakdown] = []
    if cfg.epochs == 0:
        return params, trace
    if queries.rows < 2:
        raise BatchTooSmall("hard-negative sampling needs at least 2 pairs")

    full_batch = Batch(image_embeddings=images_all, text_embeddings=texts_all)
    rng = np.random.default_rng([cfg.seed, 0])
    n = queries.rows
    # a final batch of fewer than 2 rows is skipped (batch_size >= 2)
    starts = [s for s in range(0, n, cfg.batch_size) if n - s >= 2]
    total_steps = cfg.epochs * len(starts)
    step = 0

    for epoch in range(cfg.epochs + 1):
        perm = rng.permutation(n) if epoch else None  # pass 0 takes no steps
        for start in starts if epoch else []:
            idx = perm[start : start + cfg.batch_size]
            batch = Batch(image_embeddings=images_all[idx], text_embeddings=texts_all[idx])
            # both losses share this one forward through the private helpers; the
            # public contrastive_loss and match_loss give the same bits but project
            # each batch twice: 65 ms more per n=2000, d=64, 2-epoch run (median of
            # 16 runs on a 2-core x86_64 VM)
            forward = _adapter_forward(batch, params)
            _, c_grads, softmaxes, _ = _contrastive_grads(batch, forward, cfg.temperature)
            negatives = sample_hard_negatives(*softmaxes, rng)
            _, m_grads = _match_loss(batch, forward, negatives, params)

            lr, lam = cfg.step_size * (1.0 - step / total_steps), cfg.lambda_match
            # a step whose result is not finite is refused when its parameters are built
            with np.errstate(over="ignore", invalid="ignore"):
                w_text = params.w_text - lr * (c_grads.w_text + lam * m_grads.w_text)
                w_image = params.w_image - lr * (c_grads.w_image + lam * m_grads.w_image)
                params = AdapterParams(
                    w_text - lr * cfg.weight_decay * w_text,
                    w_image - lr * cfg.weight_decay * w_image,
                    params.match_scale - lr * lam * m_grads.match_scale,
                    params.match_bias - lr * lam * m_grads.match_bias, cfg.temperature)
            step += 1
        forward = _adapter_forward(full_batch, params)
        texts, _, images, _ = forward
        eval_rng = None if epoch else np.random.default_rng([cfg.seed, 1])
        c_loss, _, drawn = _contrastive(images @ texts.T, cfg.temperature, rng=eval_rng)
        eval_negatives = eval_negatives if epoch else drawn
        m_loss, _ = _match_logits(forward, eval_negatives, params)
        trace.append(LossBreakdown(c_loss, m_loss, cfg.lambda_match))
        if not math.isfinite(trace[-1].total):  # lambda_match * match can overflow
            raise NonFiniteValue(f"trace entry {epoch} has a non-finite total loss")
    return params, trace


def apply_adapter(m: EmbeddingMatrix, params: AdapterParams, side: str) -> EmbeddingMatrix:
    """Project one modality's rows through its adapter matrix and renormalize."""
    if side == "text":
        w = params.w_text
    elif side == "image":
        w = params.w_image
    else:
        raise InvalidConfig(f"side must be 'text' or 'image', got {side!r}")
    projected, _ = _project(m.data.astype(np.float64), w)
    return EmbeddingMatrix(data=projected.astype(np.float32))


def save_adapter(path: str | Path, params: AdapterParams) -> None:
    """Persist adapter parameters: magic, version, dim, dtype flag 1, then a
    little-endian float64 payload, the only form load_adapter reads."""
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
    version, dim, flag = struct.unpack("<III", buf[4:16])
    if version != _ADAPTER_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    if flag != 1:
        raise ParseError(f"{path}: unknown dtype flag {flag}, expected 1 (float64)")
    need = 16 + (2 * dim * dim + 3) * 8
    if len(buf) != need:
        raise ParseError(f"{path}: {len(buf)} bytes, expected {need}")
    body = np.frombuffer(buf, dtype="<f8", offset=16)
    w_text = body[: dim * dim].reshape(dim, dim)
    w_image = body[dim * dim : 2 * dim * dim].reshape(dim, dim)
    scale, bias, temperature = (float(x) for x in body[2 * dim * dim :])
    return AdapterParams(w_text, w_image, scale, bias, temperature)


def write_trace(path: str | Path, trace: list[LossBreakdown], meta: dict | None = None) -> None:
    """Training trace as `epoch TAB contrastive TAB match TAB total` lines."""
    _write_table(path, meta, "%d\t%.12g\t%.12g\t%.12g", [
        np.arange(len(trace)), np.array([t.contrastive for t in trace]),
        np.array([t.match for t in trace]), np.array([t.total for t in trace]),
    ])
