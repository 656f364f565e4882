"""Checks on the files a workload wrote, run outside the timed region.

Everything here reads the program's files with the harness's own parsers, so
a change of the library's in-memory types does not change what is checked.
Each check returns the names of the checks that failed; an empty list means
the outputs are correct.

- Ranked lists: one row per (query, rank), scores non-increasing, equal
  scores in ascending gallery id, and a sample of rows equal to a full stable
  sort of the score matrix, which the harness computes itself.
- Resolved lists: every row is an entry of its source list at the recorded
  source rank, and the rest keep their source order.
- Recall@1 recomputed from the final file equals the library's value.
- For the default seed, sha256 digests equal those recorded in digests.json.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
DIGESTS = Path(__file__).with_name("digests.json")
ORACLE_ROWS = 64


def read_table(path: Path) -> tuple[dict[str, str], np.ndarray]:
    """Leading `# key=value` lines and the tab-separated body as strings."""
    meta: dict[str, str] = {}
    body = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    if not body:
        return meta, np.empty((0, 0), dtype=str)
    cols = body[0].count("\t") + 1
    flat = "\t".join(body).split("\t")
    if len(flat) != cols * len(body):
        raise ValueError(f"{path}: rows have different field counts")
    return meta, np.array(flat).reshape(len(body), cols)


class RankedFile:
    """A ranked or resolved list file as (n_queries, k) arrays."""

    def __init__(self, path: Path, n_queries: int, k: int):
        self.path = Path(path)
        self.meta, rows = read_table(self.path)
        self.layout_ok = rows.shape[0] == n_queries * k and rows.shape[1] >= 4
        if not self.layout_ok:
            return
        qid = rows[:, 0].astype(np.int64)
        rank = rows[:, 1].astype(np.int64)
        self.layout_ok = bool(
            np.array_equal(qid, np.repeat(np.arange(n_queries), k))
            and np.array_equal(rank, np.tile(np.arange(1, k + 1), n_queries))
        )
        self.ids = rows[:, 2].astype(np.int64).reshape(n_queries, k)
        # 9 significant digits round-trip float32 exactly
        self.scores = rows[:, 3].astype(np.float64).astype(np.float32).reshape(n_queries, k)
        self.source_rank = (
            rows[:, 4].astype(np.int64).reshape(n_queries, k) if rows.shape[1] > 4 else None
        )


def ground_truth(manifest_path: Path) -> np.ndarray:
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    gt = np.full(int(doc["query_count"]), -1, dtype=np.int64)
    for q, g in doc["ground_truth"]:
        gt[int(q)] = int(g)
    return gt


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Row-normalize in float64 and round to float32, as the pipeline does."""
    x = x.astype(np.float64)
    return (x / np.linalg.norm(x, axis=1)[:, None]).astype(np.float32)


def load_unit(manifest_path: Path, split: str) -> np.ndarray:
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    rows = int(doc[f"{split}_count"])
    raw = np.fromfile(Path(manifest_path).parent / doc[f"{split}_path"], dtype="<f4")
    return _unit_rows(raw.reshape(rows, int(doc["dim"])))


def read_adapter(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(w_text, w_image) from an adapter file: ADAP, version, dim, dtype flag."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"ADAP":
        raise ValueError(f"{path}: bad magic")
    _, dim, f64 = struct.unpack("<III", buf[4:16])
    body = np.frombuffer(buf, dtype="<f8" if f64 else "<f4", offset=16)
    w_text = body[: dim * dim].reshape(dim, dim).astype(np.float64)
    w_image = body[dim * dim : 2 * dim * dim].reshape(dim, dim).astype(np.float64)
    return w_text, w_image


def project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adapter projection of unit float32 rows, renormalized, as float32."""
    a = x.astype(np.float64) @ w
    return (a / np.linalg.norm(a, axis=1)[:, None]).astype(np.float32)


def oracle_rows(queries: np.ndarray, gallery: np.ndarray, k: int, seed: int):
    """Full stable sort of the float32 score matrix on a seeded row sample.

    The whole matrix is computed, not only the sampled rows, because a
    product over a subset of rows may round differently in the last bit.
    Returns (rows, ids, scores) with ids and scores of shape (len(rows), k).
    """
    scores = queries @ gallery.T
    n = scores.shape[0]
    rows = np.sort(np.random.default_rng([seed, 99]).choice(n, min(n, ORACLE_ROWS), replace=False))
    picked = scores[rows]
    ids = np.argsort(-picked, axis=1, kind="stable")[:, :k]
    return rows, ids, np.take_along_axis(picked, ids, axis=1)


def check_ranked(f: RankedFile, oracle) -> list[str]:
    name = f.path.name
    if not f.layout_ok:
        return [f"{name}:layout"]
    failed = []
    step = np.diff(f.scores, axis=1)
    if np.any(step > 0):
        failed.append(f"{name}:scores_non_increasing")
    if np.any(np.diff(f.ids, axis=1)[step == 0] <= 0):
        failed.append(f"{name}:ties_ascending_id")
    rows, ids, scores = oracle
    if not (np.array_equal(f.ids[rows], ids) and np.array_equal(f.scores[rows], scores)):
        failed.append(f"{name}:full_sort_oracle")
    return failed


def check_resolved(resolved: RankedFile, source: RankedFile) -> list[str]:
    name = resolved.path.name
    if not resolved.layout_ok or resolved.source_rank is None or not source.layout_ok:
        return [f"{name}:layout"]
    sr = resolved.source_rank
    k = sr.shape[1]
    ok = np.array_equal(np.sort(sr, axis=1), np.broadcast_to(np.arange(1, k + 1), sr.shape))
    ok = ok and bool(np.all(np.diff(sr[:, 1:], axis=1) > 0))
    if ok:
        src_ids = np.take_along_axis(source.ids, sr - 1, axis=1)
        src_scores = np.take_along_axis(source.scores, sr - 1, axis=1)
        ok = np.array_equal(src_ids, resolved.ids) and np.array_equal(src_scores, resolved.scores)
    return [] if ok else [f"{name}:answers_from_source"]


def recall_at_1(f: RankedFile, gt: np.ndarray) -> float:
    return float(np.mean(f.ids[:, 0] == gt))


def check_recall(f: RankedFile, gt: np.ndarray, library_value: float) -> list[str]:
    same = f.layout_ok and f"{recall_at_1(f, gt):.10g}" == f"{library_value:.10g}"
    return [] if same else [f"{f.path.name}:recall_at_1_matches_library"]


def resolver_counters(resolved: RankedFile, source: RankedFile, audit: Path, depth: int) -> dict:
    """Outcome counters of one resolution, read from its files.

    live_groups repeats conflict detection on the final pointers, leaving
    out the unresolved queries: above 0 means the run stopped at its round
    cap with conflicts still live.
    """
    _, rows = read_table(audit)
    rounds = rows[:, 0].astype(np.int64) if rows.size else np.zeros(0, dtype=np.int64)
    unresolved = {int(q) for q in resolved.meta.get("unresolved", "").split(",") if q}
    pointers = resolved.source_rank[:, 0] - 1
    advances = int(pointers.sum())
    holders: dict[int, set[int]] = {}
    for q in range(source.ids.shape[0]):
        if q not in unresolved:
            for g in source.ids[q, pointers[q] : pointers[q] + depth]:
                holders.setdefault(int(g), set()).add(q)
    return {
        "rounds": int(rounds.max()) if rounds.size else 0,
        "replacements": int(rounds.size),
        "advances": advances,
        "useful_ratio": advances / rounds.size if rounds.size else 0.0,
        "unresolved": len(unresolved),
        "live_groups": sum(1 for members in holders.values() if len(members) > 1),
        "audit_bytes": Path(audit).stat().st_size,
    }


def check_audit(audit: Path) -> list[str]:
    _, rows = read_table(audit)
    if rows.size == 0:
        return []
    ok = rows.shape[1] == 5
    if ok:
        rounds = rows[:, 0].astype(np.int64)
        ok = bool(np.all(rounds >= 1) and np.all(np.diff(rounds) >= 0))
        ok = ok and not np.any(rows[:, 2] == rows[:, 3])
    return [] if ok else [f"{Path(audit).name}:well_formed"]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def check_digests(expected: dict[str, str], out: Path) -> list[str]:
    """Names of the files whose sha256 differs from the recorded digest."""
    if not expected:
        return ["no_recorded_digests"]
    return [
        f"{name}:digest"
        for name, digest in sorted(expected.items())
        if not (out / name).is_file() or sha256(out / name) != digest
    ]
