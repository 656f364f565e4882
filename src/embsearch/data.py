"""Dataset loading, validation, normalization, and synthesis.

Embedding files are headerless little-endian float32, row-major; all shape
metadata lives in a JSON manifest next to them. Ground truth is an int64
array aligned with the query rows: entry q is query row q's gallery row.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingFile,
    MissingGroundTruth,
    NonFiniteValue,
    ParseError,
    PipelineError,
    ZeroVector,
)

ZERO_NORM_THRESHOLD = 1e-12


@dataclass(frozen=True)
class DatasetManifest:
    """Shape and ground-truth metadata for one query/gallery embedding pair;
    ground_truth (int64[query_count]) holds query row q's gallery row at q."""

    name: str
    dim: int
    query_count: int
    gallery_count: int
    query_path: Path
    gallery_path: Path
    ground_truth: np.ndarray
    seed: int | None = None

    def validate(self) -> None:
        if self.dim < 1:
            raise ParseError(f"dim must be >= 1, got {self.dim}")
        if self.query_count < 1 or self.gallery_count < 1:
            raise ParseError("query_count and gallery_count must be >= 1")
        check_ground_truth(self.ground_truth, self.query_count, self.gallery_count)


def check_ground_truth(ground_truth: np.ndarray, n_queries: int, n_gallery: int) -> None:
    """The ground-truth rule: one entry per query row, each a gallery row.
    A short array raises MissingGroundTruth naming its first missing row; a
    long one, or an entry outside [0, n_gallery), GroundTruthOutOfRange."""
    if len(ground_truth) < n_queries:
        raise MissingGroundTruth(f"query row {len(ground_truth)} has no ground-truth entry")
    if len(ground_truth) > n_queries:
        raise GroundTruthOutOfRange(f"query id {n_queries} outside [0, {n_queries})")
    outside = np.flatnonzero((ground_truth < 0) | (ground_truth >= n_gallery))
    if outside.size:
        q = outside[0]
        raise GroundTruthOutOfRange(
            f"ground_truth[{q}] = {ground_truth[q]} outside [0, {n_gallery})")


@dataclass
class EmbeddingMatrix:
    """Dense row-major float32 matrix of embeddings, one vector per row."""

    data: np.ndarray
    normalized: bool = False

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for a deterministic synthetic retrieval benchmark.
    `embsearch gen-synth` takes its flag defaults from here; seed has none."""

    n_identities: int = 64
    dim: int = 32
    noise_sigma: float = 0.4
    confusable_fraction: float = 0.5
    confusable_gap: float = 0.02
    seed: int = field(kw_only=True)

    def validate(self) -> None:
        _require_finite(self)
        if self.n_identities < 1 or self.dim < 1:
            raise InvalidConfig("n_identities and dim must be >= 1")
        if self.confusable_fraction > 0 and self.n_identities < 2:
            raise InvalidConfig("n_identities must be >= 2 when confusable_fraction > 0")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be nonnegative")
        if not 0.0 <= self.confusable_fraction <= 1.0:
            raise InvalidConfig("confusable_fraction must be in [0, 1]")
        if not 0.0 < self.confusable_gap < 1.0:
            raise InvalidConfig("confusable_gap must be in (0, 1)")


def _require_finite(cfg) -> None:
    """InvalidConfig naming the first float field of cfg that is NaN or infinite."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{f.name} must be finite, got {value}")


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _require_file(path: str | Path, what: str, size: int | None = None) -> Path:
    """Return path as a Path; every reader checks its input file here.

    Raises MissingFile if it is not a file and, when size is given,
    DimensionMismatch if the file does not hold exactly that many bytes.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"{what} not found: {path}")
    actual = path.stat().st_size
    if size is not None and actual != size:
        raise DimensionMismatch(f"{what} {path} is {actual} bytes, expected {size}")
    return path


def _read_text(path: str | Path, what: str) -> str:
    """UTF-8 text of an existing file; undecodable bytes raise ParseError."""
    path = _require_file(path, what)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _json_int(value, name: str) -> int:
    if type(value) is not int:  # a bool is an int subclass: not isinstance
        raise ValueError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and fully validate a dataset manifest, including file sizes;
    an integer field that holds no JSON integer raises ParseError naming it.
    A query id outside [0, query_count) or listed twice in ground_truth raises
    GroundTruthOutOfRange; the array stops at the first query not listed."""
    path = Path(path)
    try:
        raw = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path} is not valid JSON: {exc}") from exc

    try:
        pairs = np.array([(_json_int(q, "ground_truth"), _json_int(g, "ground_truth"))
                          for q, g in raw["ground_truth"]], dtype=np.int64).reshape(-1, 2)
        parsed = dict(
            name=str(raw["name"]),
            dim=_json_int(raw["dim"], "dim"),
            query_count=_json_int(raw["query_count"], "query_count"),
            gallery_count=_json_int(raw["gallery_count"], "gallery_count"),
            query_path=(path.parent / raw["query_path"]).resolve(),
            gallery_path=(path.parent / raw["gallery_path"]).resolve(),
            seed=None if raw.get("seed") is None else _json_int(raw["seed"], "seed"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"manifest {path} has a malformed field: {exc}") from exc
    q, g = pairs[np.argsort(pairs[:, 0])].T
    twice = q[1:][q[1:] == q[:-1]]
    if twice.size:
        raise GroundTruthOutOfRange(f"query {twice[0]} is listed more than once in ground_truth")
    outside = q[(q < 0) | (q >= parsed["query_count"])]
    if outside.size:
        raise GroundTruthOutOfRange(f"query id {outside[0]} outside [0, {parsed['query_count']})")
    # q ascends inside [0, query_count): q[i] == i holds up to the first missing query
    manifest = DatasetManifest(**parsed, ground_truth=g[:np.count_nonzero(q == np.arange(len(q)))])
    manifest.validate()

    for split, fpath, rows in (
        ("query", manifest.query_path, manifest.query_count),
        ("gallery", manifest.gallery_path, manifest.gallery_count),
    ):
        _require_file(fpath, f"{split} file", rows * manifest.dim * 4)
    return manifest


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest as JSON; embedding paths are stored relative to it."""
    path = Path(path)
    doc = {
        "name": manifest.name,
        "dim": manifest.dim,
        "query_count": manifest.query_count,
        "gallery_count": manifest.gallery_count,
        "query_path": str(Path(manifest.query_path).name),
        "gallery_path": str(Path(manifest.gallery_path).name),
        "ground_truth": [[q, g] for q, g in enumerate(manifest.ground_truth.tolist())],
        "seed": manifest.seed,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_table(path: str | Path, meta: dict | None, line: str, columns: list, tail="") -> None:
    """Write `# key=value` lines for meta, `line % row` for each row of the
    equal-length columns (one `%` call over their interleaved fields; '%.9g'
    % x formats a float as f"{x:.9g}" does), then tail: else one newline."""
    fields = [None] * sum(map(len, columns))
    for j, column in enumerate(columns):
        fields[j::len(columns)] = column
    head = "".join(f"# {key}={value}\n" for key, value in (meta or {}).items())
    text = head + (line + "\n") * len(columns[0]) % tuple(fields) + tail
    Path(path).write_text(text or "\n", encoding="utf-8")


def read_embedding_file(path: str | Path, rows: int, dim: int) -> np.ndarray:
    path = _require_file(path, "embedding file", rows * dim * 4)
    arr = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(rows, dim)
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise NonFiniteValue(f"{path}: non-finite value in row {bad}")
    return np.ascontiguousarray(arr)


def write_embedding_file(path: str | Path, data: np.ndarray) -> None:
    arr = np.ascontiguousarray(data, dtype="<f4")
    Path(path).write_bytes(arr.tobytes())


def load_embeddings(manifest: DatasetManifest, split: str) -> EmbeddingMatrix:
    """Load one split (``query`` or ``gallery``) as an un-normalized matrix."""
    if split == "query":
        arr = read_embedding_file(manifest.query_path, manifest.query_count, manifest.dim)
    elif split == "gallery":
        arr = read_embedding_file(manifest.gallery_path, manifest.gallery_count, manifest.dim)
    else:
        raise InvalidConfig(f"split must be 'query' or 'gallery', got {split!r}")
    return EmbeddingMatrix(data=arr, normalized=False)


def _normalize_rows(rows: np.ndarray, ids=None, what="row") -> tuple[np.ndarray, np.ndarray]:
    """Divide the rows of a caller-owned float64 array by their L2 norms in
    place; returns (rows, norms). A row with norm <= ZERO_NORM_THRESHOLD
    raises ZeroVector, naming `what` and the row's index (or entry of ids)."""
    norms = np.linalg.norm(rows, axis=1)
    small = np.nonzero(norms <= ZERO_NORM_THRESHOLD)[0]
    if small.size:
        row = int(small[0]) if ids is None else ids[small[0]]
        raise ZeroVector(f"{what} {row} has norm <= {ZERO_NORM_THRESHOLD}")
    rows /= norms[:, None]
    return rows, norms


def l2_normalize(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm. Idempotent; rejects near-zero rows."""
    wide, _ = _normalize_rows(m.data.astype(np.float64))
    return EmbeddingMatrix(data=wide.astype(np.float32), normalized=True)


def _orthogonal_unit(rng: np.random.Generator, anchor: np.ndarray) -> np.ndarray:
    # anchor is unit-norm; rejection loop guards against a parallel draw
    while True:
        v = rng.standard_normal(anchor.shape[0])
        v -= np.dot(v, anchor) * anchor
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def generate_synthetic(
    cfg: SynthConfig,
    out_dir: str | Path,
    name: str = "synthetic",
    heldout: bool = False,
) -> DatasetManifest:
    """Write a seeded synthetic dataset to out_dir and return its manifest.

    Gallery rows are unit vectors, one per identity. A fraction of identity
    pairs is planted close together (cosine >= 1 - confusable_gap) so that
    their queries collide at rank 1. Query i is its gallery row plus isotropic
    Gaussian noise, renormalized. With heldout=True a second query set drawn
    from an independent noise stream is written alongside, sharing the
    gallery, as ``manifest_heldout.json``.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    n, dim = cfg.n_identities, cfg.dim
    rng_gallery = np.random.default_rng([cfg.seed, 0])
    gallery, _ = _normalize_rows(rng_gallery.standard_normal((n, dim)))

    n_pairs = min(int(round(cfg.confusable_fraction * n / 2)), n // 2)
    if n_pairs:
        perm = rng_gallery.permutation(n)
        # cosine of the planted pair is 1 - gap/2, safely above 1 - gap
        theta = math.acos(1.0 - cfg.confusable_gap / 2.0)
        for p in range(n_pairs):
            a, b = int(perm[2 * p]), int(perm[2 * p + 1])
            ortho = _orthogonal_unit(rng_gallery, gallery[a])
            gallery[b] = math.cos(theta) * gallery[a] + math.sin(theta) * ortho

    def make_queries(stream: int) -> np.ndarray:
        noise = np.random.default_rng([cfg.seed, stream]).standard_normal((n, dim))
        return _normalize_rows(gallery + cfg.noise_sigma * noise)[0]

    gallery_path = out_dir / "gallery.f32"
    write_embedding_file(gallery_path, gallery)

    def write_split(stream: int, qfile: str, mfile: str, dname: str) -> DatasetManifest:
        qpath = out_dir / qfile
        write_embedding_file(qpath, make_queries(stream))
        manifest = DatasetManifest(
            name=dname,
            dim=dim,
            query_count=n,
            gallery_count=n,
            query_path=qpath.resolve(),
            gallery_path=gallery_path.resolve(),
            ground_truth=np.arange(n),
            seed=cfg.seed,
        )
        save_manifest(manifest, out_dir / mfile)
        return manifest

    manifest = write_split(1, "queries.f32", "manifest.json", name)
    if heldout:
        write_split(2, "queries_heldout.f32", "manifest_heldout.json", name + "-heldout")
    return manifest


def validate_dataset(manifest: DatasetManifest) -> ValidationReport:
    """Run every dataset health check; failures become report entries.

    The manifest and each split are checked by the code that loads them, so
    a failed check's detail is that loader's error message. On top of the
    loaders, ground truth must be one-to-one; rows that are not unit-norm
    only warn.
    """
    report = ValidationReport()
    arrays = {}
    for name, load in (
        ("manifest", manifest.validate),
        ("query", lambda: load_embeddings(manifest, "query").data),
        ("gallery", lambda: load_embeddings(manifest, "gallery").data),
    ):
        try:
            arrays[name] = load()
        except PipelineError as exc:
            report.checks.append(ValidationCheck(name, False, str(exc)))
        else:
            report.checks.append(ValidationCheck(name, True))

    one_to_one = len(np.unique(manifest.ground_truth)) == len(manifest.ground_truth)
    report.checks.append(ValidationCheck(
        "ground_truth_one_to_one", one_to_one, "" if one_to_one else "duplicate gallery targets"
    ))

    for split in ("query", "gallery"):
        if split not in arrays:
            continue
        norms = np.linalg.norm(arrays[split].astype(np.float64), axis=1)
        dev = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if dev > 1e-5:
            report.warnings.append(
                f"{split} rows are not unit-normalized (max norm deviation {dev:.3g})"
            )
    return report
