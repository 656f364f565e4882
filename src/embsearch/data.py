"""Dataset loading, normalization, and synthesis.

Embedding files are headerless little-endian float32, row-major; all shape
metadata lives in a JSON manifest next to them. Ground truth is an int64
array aligned with the query rows: entry q is query row q's gallery row.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingFile,
    MissingGroundTruth,
    NonFiniteValue,
    NotNormalized,
    ParseError,
    ZeroVector,
)

ZERO_NORM_THRESHOLD = 1e-12
# largest |norm - 1| of a row of an EmbeddingMatrix
UNIT_NORM_TOLERANCE = 1e-5


@dataclass(frozen=True)
class DatasetManifest:
    """Shape and ground-truth metadata for one query/gallery embedding pair,
    checked when built; ground_truth (int64[query_count]) holds query row q's
    gallery row at q, as check_ground_truth requires."""

    name: str
    dim: int
    query_count: int
    gallery_count: int
    query_path: Path
    gallery_path: Path
    ground_truth: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        _check_fields(self)
        _require_one_line(self.name, "dataset name")
        if self.dim < 1:
            raise ParseError(f"dim must be >= 1, got {self.dim}")
        if self.query_count < 1 or self.gallery_count < 1:
            raise ParseError("query_count and gallery_count must be >= 1")
        check_ground_truth(self.ground_truth, self.query_count, self.gallery_count)


def check_ground_truth(ground_truth: np.ndarray, n_queries: int, n_gallery: int) -> None:
    """The ground-truth rule: one entry per query row, each a gallery row.
    A short array raises MissingGroundTruth naming its first missing row; a
    long one, one that is not 1-D, a non-integer dtype or an entry outside
    [0, n_gallery), GroundTruthOutOfRange."""
    if ground_truth.ndim != 1:
        raise GroundTruthOutOfRange(f"ground_truth must be 1-D, got shape {ground_truth.shape}")
    if ground_truth.dtype.kind not in "iu":
        raise GroundTruthOutOfRange(f"ground_truth must hold integers, got {ground_truth.dtype}")
    if len(ground_truth) < n_queries:
        raise MissingGroundTruth(f"query row {len(ground_truth)} has no ground-truth entry")
    if len(ground_truth) > n_queries:
        raise GroundTruthOutOfRange(f"query id {n_queries} outside [0, {n_queries})")
    outside = np.flatnonzero((ground_truth < 0) | (ground_truth >= n_gallery))
    if outside.size:
        q = outside[0]
        raise GroundTruthOutOfRange(
            f"ground_truth[{q}] = {ground_truth[q]} outside [0, {n_gallery})")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense row-major float32 matrix of unit embeddings, one vector per row.
    The constructor checks the array and its rows: anything but a 2-D float32
    np.ndarray raises NotNormalized, and the first row whose float64 norm is
    not within UNIT_NORM_TOLERANCE of 1 raises NonFiniteValue if it holds a
    NaN or inf entry, else NotNormalized, naming the row. It then holds a
    read-only view of the array, not a copy, so no write through .data skips
    that check; a write to the array passed in still reaches the rows, which
    l2_normalize and apply_adapter avoid by passing arrays nothing else holds."""

    data: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.data, np.ndarray) and self.data.dtype == np.float32
                and self.data.ndim == 2):
            got = (f"{self.data.ndim}-D {self.data.dtype}" if isinstance(self.data, np.ndarray)
                   else type(self.data).__name__)
            raise NotNormalized(f"embeddings must be a 2-D np.ndarray of float32, got {got}")
        norms = np.sqrt(np.einsum("ij,ij->i", self.data, self.data, dtype=np.float64))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))  # NaN fails
        if bad.size:
            row = int(bad[0])
            if not np.isfinite(self.data[row]).all():
                raise NonFiniteValue(f"row {row} has a non-finite norm")
            raise NotNormalized(
                f"row {row} has norm {norms[row]:.9g}, not 1 within {UNIT_NORM_TOLERANCE:g}")
        view = self.data.view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for a deterministic synthetic retrieval benchmark, checked
    when built. `embsearch gen-synth` takes its flag defaults from here; seed has none."""

    n_identities: int = 64
    dim: int = 32
    noise_sigma: float = 0.4
    confusable_fraction: float = 0.5
    confusable_gap: float = 0.02
    seed: int = field(kw_only=True)

    def __post_init__(self):
        _check_fields(self)
        if self.n_identities < 1 or self.dim < 1:
            raise InvalidConfig("n_identities and dim must be >= 1")
        # numpy refuses a larger n_identities x dim float64 array with a ValueError
        if self.n_identities * self.dim > np.iinfo(np.intp).max // 8:
            raise InvalidConfig("n_identities * dim must fit one float64 array")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise InvalidConfig("seed must be >= 0")
        # a planted pair takes two identities, and a direction orthogonal to its anchor
        for name in ("n_identities", "dim"):
            if self.confusable_fraction > 0 and getattr(self, name) < 2:
                raise InvalidConfig(f"{name} must be >= 2 when confusable_fraction > 0")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be nonnegative")
        if not 0.0 <= self.confusable_fraction <= 1.0:
            raise InvalidConfig("confusable_fraction must be in [0, 1]")
        if not 0.0 < self.confusable_gap < 1.0:
            raise InvalidConfig("confusable_gap must be in (0, 1)")


def _require_one_line(text: str, what: str) -> None:
    r"""InvalidConfig if text holds a line break as str.splitlines finds one
    ('\n', '\r', '\x0b', '\x0c', '\x1c'-'\x1e', '\x85', '\u2028', '\u2029'): in a
    `# key=value` line it would start a line of its own."""
    if text.splitlines() not in ([], [text]):
        raise InvalidConfig(f"{what} {text!r} holds a line break")


def _check_fields(cfg) -> None:
    """InvalidConfig naming the first field of cfg annotated `int` (or `int | None`)
    that holds no Python int (a bool or a numpy integer, whose arithmetic wraps, is
    none), annotated `str` that holds no str, or holding a NaN or infinite float.
    Annotations are text: every config module imports `annotations` from __future__."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in ("int", "int | None") and not (
                value is None and f.type != "int"
                or isinstance(value, int) and not isinstance(value, bool)):
            raise InvalidConfig(f"{f.name} must be an integer, got {value!r}")
        if f.type == "str" and not isinstance(value, str):
            raise InvalidConfig(f"{f.name} must be a string, got {value!r}")
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise InvalidConfig(f"{f.name} must be finite, got {value}")


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


def _json_field(value, name: str, kind: type = int):
    if type(value) is not kind:  # a bool is an int subclass: not isinstance
        kind_name = "string" if kind is str else "integer"
        raise ValueError(f"{name} must be a JSON {kind_name}, got {json.dumps(value)}")
    return value


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a dataset manifest, not its split files (load_embeddings
    checks those); each split path is os.path.realpath of the manifest's
    directory joined with it. An integer field that holds no JSON integer, a name
    or path that is no JSON string, or a key given twice raises ParseError naming
    the field. A query id outside [0, query_count) or listed twice in ground_truth
    raises GroundTruthOutOfRange; the array stops at the first query not listed."""
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"manifest {path} gives the key {json.dumps(key)} twice")
            doc[key] = value
        return doc

    try:
        raw = json.loads(_read_text(path, "manifest"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path} is not valid JSON: {exc}") from exc

    try:
        pairs = np.array([(_json_field(q, "ground_truth"), _json_field(g, "ground_truth"))
                          for q, g in raw["ground_truth"]], dtype=np.int64).reshape(-1, 2)
        parsed = dict(
            name=_json_field(raw["name"], "name", str),
            dim=_json_field(raw["dim"], "dim"),
            query_count=_json_field(raw["query_count"], "query_count"),
            gallery_count=_json_field(raw["gallery_count"], "gallery_count"),
            **{key: Path(os.path.realpath(path.parent / _json_field(raw[key], key, str)))
               for key in ("query_path", "gallery_path")},
            seed=None if raw.get("seed") is None else _json_field(raw["seed"], "seed"),
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
    return DatasetManifest(**parsed, ground_truth=g[:np.count_nonzero(q == np.arange(len(q)))])


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest as JSON. Each embedding path is stored relative to the
    saved manifest's resolved directory, as load_manifest reads it back."""
    path = Path(path)
    directory = os.path.realpath(path.parent)
    doc = {
        "name": manifest.name,
        "dim": manifest.dim,
        "query_count": manifest.query_count,
        "gallery_count": manifest.gallery_count,
        "query_path": os.path.relpath(manifest.query_path, directory),
        "gallery_path": os.path.relpath(manifest.gallery_path, directory),
        "ground_truth": [[q, g] for q, g in enumerate(manifest.ground_truth.tolist())],
        "seed": manifest.seed,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# values in one row block (1 MB of top-k's float32 scores); the table
# writer's Python objects and text then peak near 11 MB for a ranked list
BLOCK_SCORES = 1 << 18


def _row_bounds(n_rows: int, n_cols: int) -> list[int]:
    """Row-block bounds of an n_rows x n_cols array, [0] for no rows: blocks
    of BLOCK_SCORES // n_cols rows, at least 2, a last block of one row joined
    to the one before (numpy sums a one-row block of a transpose pairwise)."""
    step = max(2, BLOCK_SCORES // max(1, n_cols))
    return [*range(0, max(n_rows - 1, 1), step), n_rows] if n_rows else [0]


def _write_table(path: str | Path, meta: dict | None, line: str, columns: list, tail="") -> None:
    """Write `# key=value` lines for meta, `line % row` for each row of the
    equal-length array columns, then tail: else one newline. A meta line
    holding a line break raises InvalidConfig before the file is opened.
    Rows are formatted a _row_bounds block at a time, each by one `%` call
    over its interleaved fields ('%.9g' % x formats a float as f"{x:.9g}" does)."""
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    for text in lines:
        _require_one_line(text, "meta line")
    head = "".join(text + "\n" for text in lines)
    n = len(columns[0])
    with open(path, "w", encoding="utf-8") as out:
        out.write(head)
        # every table takes the blocks of the widest, 5 columns: sized per
        # table (65536 rows of 4 columns, then 52428 of 5), the blocks of a
        # search-and-resolve run raised its peak RSS by about 9 MB
        bounds = _row_bounds(n, 5)
        for lo, hi in zip(bounds, bounds[1:]):
            block = [column[lo:hi].tolist() for column in columns]
            fields = [None] * (len(block) * len(block[0]))
            for j, values in enumerate(block):
                fields[j::len(block)] = values
            out.write((line + "\n") * len(block[0]) % tuple(fields))
        out.write(tail if head or n or tail else "\n")


def _require_distinct(paths: list) -> None:
    """InvalidConfig if two of paths, a None path skipped, name one file by
    os.path.realpath; a command checks its outputs here before any work."""
    resolved = [os.path.realpath(path) for path in paths if path is not None]
    twice = [path for i, path in enumerate(resolved) if path in resolved[:i]]
    if twice:
        raise InvalidConfig(f"two outputs name one file: {twice[0]}")


def _write_all(outputs: list) -> None:
    """Call write(path) for each (path, write) of outputs in order, skipping a
    None path, all or nothing: two paths that name one file (_require_distinct)
    raise InvalidConfig before any write, and a write that raises removes what
    the writes before it made (a write may be Path.mkdir), last first."""
    outputs = [(Path(path), write) for path, write in outputs if path is not None]
    _require_distinct([path for path, _ in outputs])
    for i, (path, write) in enumerate(outputs):
        try:
            write(path)
        except BaseException:
            for made, _ in reversed(outputs[:i]):
                (made.rmdir if made.is_dir() else made.unlink)()
            raise


def read_embedding_file(path: str | Path, rows: int, dim: int) -> np.ndarray:
    path = _require_file(path, "embedding file", rows * dim * 4)
    arr = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(rows, dim)
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise NonFiniteValue(f"{path}: non-finite value in row {bad}")
    return arr


def write_embedding_file(path: str | Path, data: np.ndarray) -> None:
    arr = np.ascontiguousarray(data, dtype="<f4")
    Path(path).write_bytes(arr.tobytes())


def load_embeddings(manifest: DatasetManifest, split: str) -> np.ndarray:
    """One split's (``query`` or ``gallery``) float32 rows as read_embedding_file
    reads them: finite, not yet normalized (see l2_normalize); a missing file
    raises MissingFile, and one not rows * dim * 4 bytes long DimensionMismatch."""
    if split == "query":
        return read_embedding_file(manifest.query_path, manifest.query_count, manifest.dim)
    if split == "gallery":
        return read_embedding_file(manifest.gallery_path, manifest.gallery_count, manifest.dim)
    raise InvalidConfig(f"split must be 'query' or 'gallery', got {split!r}")


def _normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide the rows of a caller-owned float64 array by their L2 norms in
    place; returns (rows, norms). The one former of the package's unit rows
    (EmbeddingMatrix is their one check): the first row whose norm is <=
    ZERO_NORM_THRESHOLD raises ZeroVector, or whose norm is not finite (a NaN
    or inf entry) NonFiniteValue, naming the row; np.hypot, which does not
    square, gives the norm of a finite row whose squares overflow."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        over = np.flatnonzero(norms == np.inf)
        norms[over] = np.hypot.reduce(rows[over], axis=1)
    # NaN fails both comparisons
    bad = np.flatnonzero(~((norms > ZERO_NORM_THRESHOLD) & (norms < np.inf)))
    if bad.size:
        row = int(bad[0])
        if norms[row] <= ZERO_NORM_THRESHOLD:
            raise ZeroVector(f"row {row} has norm <= {ZERO_NORM_THRESHOLD}")
        raise NonFiniteValue(f"row {row} has a non-finite norm")
    rows /= norms[:, None]
    return rows, norms


def l2_normalize(rows: np.ndarray) -> EmbeddingMatrix:
    """The EmbeddingMatrix of rows (n x d, e.g. load_embeddings') scaled to unit
    L2 norm; rejects near-zero and non-finite rows. Divides a float64 copy."""
    wide, _ = _normalize_rows(np.array(rows, dtype=np.float64))
    return EmbeddingMatrix(data=wide.astype(np.float32))


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

    Every array and manifest is built before out_dir is made and the first
    file written, so a synthesis that fails (a name holding a line break, or
    noise that overflows to a non-finite row) writes nothing; _write_all then
    makes the directories and writes the files, all or nothing.
    """
    out_dir = Path(out_dir)
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

    gallery_path = out_dir / "gallery.f32"
    outputs = [(gallery_path, partial(write_embedding_file, data=gallery))]
    manifests = []
    splits = [(1, "", name), (2, "_heldout", name + "-heldout")]
    for stream, suffix, split_name in splits[:2 if heldout else 1]:
        query_path = out_dir / f"queries{suffix}.f32"
        paths = [Path(os.path.realpath(split_path)) for split_path in (query_path, gallery_path)]
        manifests.append(DatasetManifest(split_name, dim, n, n, *paths, np.arange(n), cfg.seed))
        noise = np.random.default_rng([cfg.seed, stream]).standard_normal((n, dim))
        with np.errstate(over="ignore"):  # an overflowing row is _normalize_rows' NonFiniteValue
            rows = gallery + cfg.noise_sigma * noise
        outputs += [(query_path, partial(write_embedding_file, data=_normalize_rows(rows)[0])),
                    (out_dir / f"manifest{suffix}.json", partial(save_manifest, manifests[-1]))]

    # mkdir(parents=True): the directories out_dir lacks, outermost first
    missing = [d for d in reversed((out_dir, *out_dir.parents)) if not os.path.isdir(os.path.realpath(d))]
    _write_all([(d, Path.mkdir) for d in missing] + outputs)
    return manifests[0]
