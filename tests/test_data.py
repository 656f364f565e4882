import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embsearch import data, objective, resolver, similarity
from embsearch.cli import run
from embsearch.errors import (
    DimensionMismatch,
    GroundTruthOutOfRange,
    InvalidConfig,
    MissingFile,
    MissingGroundTruth,
    NonFiniteValue,
    NotNormalized,
    ParseError,
    PipelineError,
    ZeroVector,
)
from conftest import examples, unit_rows

# sha256 of each file generate_synthetic(SEED7_CONFIG, heldout=True) writes
SEED7_DIGESTS = {
    "gallery.f32": "a636529b8a0a40011765f5fb0a2a220f8b8a580d17b08dba56bb1268a8fe090b",
    "manifest.json": "0cca6662e265c60b9b5444ed7b3e725fd600240042df71ee83013024c80e17d6",
    "manifest_heldout.json": "e35884e6f59c539bc4a14b4bacdb5c1bd41765a0ad40d59c653d414412f76409",
    "queries.f32": "88fd3836b4cc6becd3831e0cf2283b3c52ba554947fbd3315a51c75ce26c6689",
    "queries_heldout.f32": "4c17897c97339724066d813097bcf4279d94db6011f2150b9208e40fb09b4a95",
}


def write_manifest_fixture(tmp_path, dim=8, n_query=4, n_gallery=4, gt=None):
    rng = np.random.default_rng(0)
    data.write_embedding_file(tmp_path / "q.f32", rng.standard_normal((n_query, dim)))
    data.write_embedding_file(tmp_path / "g.f32", rng.standard_normal((n_gallery, dim)))
    doc = {
        "name": "fixture",
        "dim": dim,
        "query_count": n_query,
        "gallery_count": n_gallery,
        "query_path": "q.f32",
        "gallery_path": "g.f32",
        "ground_truth": gt if gt is not None else [[i, i] for i in range(n_query)],
        "seed": None,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = write_manifest_fixture(tmp_path)
        manifest = data.load_manifest(path)
        assert manifest.dim == 8
        assert manifest.query_count == 4
        assert manifest.ground_truth.tolist() == [0, 1, 2, 3]

        data.save_manifest(manifest, tmp_path / "copy.json")
        again = data.load_manifest(tmp_path / "copy.json")
        assert again.ground_truth.tolist() == manifest.ground_truth.tolist()
        assert again.dim == manifest.dim

    def test_round_trip_across_directories(self, tmp_path):
        """save_manifest stored bare file names: a manifest whose query_path
        is sub/q.f32, saved in another directory, pointed at q.f32 and
        raised MissingFile when loaded."""
        source = tmp_path / "source"
        (source / "sub").mkdir(parents=True)
        path = write_manifest_fixture(source)
        (source / "q.f32").rename(source / "sub" / "q.f32")
        path.write_text(path.read_text().replace('"q.f32"', '"sub/q.f32"'))
        manifest = data.load_manifest(path)

        copy = tmp_path / "copy" / "manifest.json"
        copy.parent.mkdir()
        data.save_manifest(manifest, copy)
        saved = json.loads(copy.read_text())
        assert (saved["query_path"], saved["gallery_path"]) == ("../source/sub/q.f32",
                                                                "../source/g.f32")
        again = data.load_manifest(copy)
        assert (again.query_path, again.gallery_path) == (manifest.query_path,
                                                          manifest.gallery_path)

    def test_short_gallery_file(self, tmp_path):
        """load_manifest opens no split file; load_embeddings refuses the short one."""
        path = write_manifest_fixture(tmp_path)
        gfile = tmp_path / "g.f32"
        gfile.write_bytes(gfile.read_bytes()[:-1])
        manifest = data.load_manifest(path)
        message = f"^embedding file {re.escape(str(gfile))} is 127 bytes, expected 128$"
        with pytest.raises(DimensionMismatch, match=message):
            data.load_embeddings(manifest, "gallery")

    def test_ground_truth_out_of_range(self, tmp_path):
        path = write_manifest_fixture(tmp_path, gt=[[0, 4], [1, 1], [2, 2], [3, 3]])
        with pytest.raises(GroundTruthOutOfRange):
            data.load_manifest(path)

    def test_query_listed_twice(self, tmp_path, capsys):
        # a dict built from the pairs would keep only the last target of query 0
        path = write_manifest_fixture(
            tmp_path, n_query=3, n_gallery=3, gt=[[0, 2], [0, 0], [1, 1], [2, 2]]
        )
        with pytest.raises(GroundTruthOutOfRange, match="query 0 is listed more than once"):
            data.load_manifest(path)
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        error = captured.err.removeprefix("data error: ").strip()
        assert captured.out == f"FAIL  manifest  ({error})\n"

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_name_holding_a_line_break(self, tmp_path, capsys, brk):
        """The name becomes a `# dataset=` line and the report's `dataset:`
        line, so a line break in it is refused where the manifest is read."""
        path = write_manifest_fixture(tmp_path)
        doc = json.loads(path.read_text())
        doc["name"] = f"x{brk}7\t1\t9\t0.9"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="^dataset name .* holds a line break$"):
            data.load_manifest(path)
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        error = captured.err.removeprefix("data error: ").strip()
        assert captured.out == f"FAIL  manifest  ({error})\n"
        # gen-synth refuses the name before it writes a data set no stage can read
        assert run(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "1", "--n", "4",
                    "--name", doc["name"]]) == 2
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("field, value", [
        ("dim", 8.0), ("dim", True), ("dim", "8"), ("query_count", 4.0),
        ("gallery_count", False), ("seed", 7.0), ("seed", "7"),
        ("ground_truth", [[0, 0], [1, 1.9], [2, 2], [3, 3]]),
        ("ground_truth", [[0, 0], [True, 1], [2, 2], [3, 3]]),
        ("ground_truth", [[0, 0], [1, 1], ["2", 2], [3, 3]]),
    ], ids=["dim-float", "dim-bool", "dim-string", "query_count-float", "gallery_count-bool",
            "seed-float", "seed-string", "ground_truth-float", "ground_truth-bool",
            "ground_truth-string"])
    def test_integer_fields_hold_json_integers(self, tmp_path, capsys, field, value):
        """A float, bool or string is not read as an integer (a ground-truth
        pair [1, 1.9] used to load as gallery id 1)."""
        path = write_manifest_fixture(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"{field} must be a JSON integer"):
            data.load_manifest(path)
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        error = captured.err.removeprefix("data error: ").strip()
        assert captured.out == f"FAIL  manifest  ({error})\n"

    @pytest.mark.parametrize("field, value", [
        ("name", None), ("name", 5), ("name", 1.5), ("name", True), ("name", ["a"]),
        ("name", {"a": 1}), ("query_path", None), ("query_path", 5), ("query_path", ["a"]),
        ("gallery_path", None), ("gallery_path", 5), ("gallery_path", ["a"]),
    ], ids=["null", "integer", "float", "bool", "list", "object", "query_path-null",
            "query_path-integer", "query_path-list", "gallery_path-null", "gallery_path-integer",
            "gallery_path-list"])
    def test_name_holds_a_json_string(self, tmp_path, capsys, field, value):
        """So do the file paths. `search` copies the name into `# dataset=`;
        null loaded as "None". A path of 5 failed as "unsupported operand
        type(s) for /", naming no field."""
        path = write_manifest_fixture(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        message = f"{field} must be a JSON string, got {json.dumps(value)}"
        with pytest.raises(ParseError, match=re.escape(message)):
            data.load_manifest(path)
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        error = captured.err.removeprefix("data error: ").strip()
        assert captured.out == f"FAIL  manifest  ({error})\n"

    @pytest.mark.parametrize("given, twice", [
        ('"query_count": 4', '"query_count": 4, "query_count": 2'),
        ('"name": "fixture"', '"name": "fixture", "name": "other"'),
    ], ids=["query_count", "name"])
    def test_key_given_twice(self, tmp_path, given, twice):
        """json.loads keeps the last of two equal keys: query_count 2 used to
        fail later as a ground-truth query id outside [0, 2)."""
        path = write_manifest_fixture(tmp_path)
        path.write_text(path.read_text().replace(given, twice))
        key = given.split(":")[0]
        with pytest.raises(ParseError, match=re.escape(f"gives the key {key} twice")):
            data.load_manifest(path)

    def test_ground_truth_is_int64_in_query_order(self, tmp_path):
        path = write_manifest_fixture(tmp_path, gt=[[2, 2], [0, 1], [3, 0], [1, 3]])
        manifest = data.load_manifest(path)
        assert manifest.ground_truth.dtype == np.int64
        assert manifest.ground_truth.tolist() == [1, 3, 2, 0]
        data.save_manifest(manifest, tmp_path / "copy.json")
        saved = json.loads((tmp_path / "copy.json").read_text())["ground_truth"]
        assert saved == [[0, 1], [1, 3], [2, 2], [3, 0]]

    @pytest.mark.parametrize("qid", [-1, 4, 2**62])
    def test_query_id_outside_the_query_rows(self, tmp_path, qid):
        path = write_manifest_fixture(tmp_path, gt=[[0, 0], [1, 1], [2, 2], [3, 3], [qid, 0]])
        with pytest.raises(GroundTruthOutOfRange, match=rf"^query id {qid} outside \[0, 4\)$"):
            data.load_manifest(path)

    @pytest.mark.parametrize("field, value, message", [
        ("dim", 0, "dim must be >= 1, got 0"), ("dim", -3, "dim must be >= 1, got -3"),
        ("query_count", 0, "query_count and gallery_count must be >= 1"),
        ("gallery_count", 0, "query_count and gallery_count must be >= 1"),
    ], ids=["dim-0", "dim-negative", "query_count-0", "gallery_count-0"])
    def test_sizes_below_one(self, tmp_path, capsys, field, value, message):
        path = write_manifest_fixture(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        if field == "query_count":  # else load_manifest finds query 0 outside [0, 0) first
            doc["ground_truth"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{message}$"):
            data.load_manifest(path)
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"FAIL  manifest  ({message})\n"

    def test_name_must_be_a_string(self):
        """A name that is no str ended in an AttributeError from the line-break check."""
        with pytest.raises(InvalidConfig, match="^name must be a string, got 5$"):
            data.DatasetManifest(5, 4, 4, 4, Path("q"), Path("g"), np.arange(4), 7)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            data.load_manifest(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            data.load_manifest(bad)


class TestEmbeddingIO:
    def test_byte_level_fixture(self, tmp_path):
        path = tmp_path / "one.f32"
        path.write_bytes(np.array([1.0, 0.0], dtype="<f4").tobytes())
        arr = data.read_embedding_file(path, 1, 2)
        assert arr.tolist() == [[1.0, 0.0]]

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.f32"
        path.write_bytes(np.array([1.0, np.nan], dtype="<f4").tobytes())
        with pytest.raises(NonFiniteValue):
            data.read_embedding_file(path, 1, 2)

    @pytest.mark.parametrize("split", ["train", "queries", "Gallery", ""])
    def test_split_is_query_or_gallery(self, tmp_path, split):
        manifest = data.load_manifest(write_manifest_fixture(tmp_path))
        message = f"^split must be 'query' or 'gallery', got {split!r}$"
        with pytest.raises(InvalidConfig, match=message):
            data.load_embeddings(manifest, split)

    def test_3x2_round_trip_bit_exact(self, tmp_path):
        arr = np.array([[1.5, -2.25], [0.1, 3.0], [7.0, -0.0]], dtype=np.float32)
        data.write_embedding_file(tmp_path / "m.f32", arr)
        back = data.read_embedding_file(tmp_path / "m.f32", 3, 2)
        assert back.tobytes() == arr.tobytes()

    @settings(
        max_examples=examples(30),
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        arr=arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_round_trip_property(self, tmp_path, arr):
        path = tmp_path / "prop.f32"
        data.write_embedding_file(path, arr)
        back = data.read_embedding_file(path, *arr.shape)
        assert back.tobytes() == arr.tobytes()


class TestNormalize:
    def test_three_four_five(self):
        out = data.l2_normalize(np.array([[3.0, 4.0]], dtype=np.float32))
        assert isinstance(out, data.EmbeddingMatrix)
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_identity_on_unit_vector(self):
        rows = np.array([[1.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(data.l2_normalize(rows).data, [[1.0, 0.0]])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            data.l2_normalize(np.zeros((1, 2), dtype=np.float32))

    def test_first_offending_row_picks_the_error(self):
        rows = np.ones((3, 2), dtype=np.float32)
        rows[1], rows[2] = 0.0, np.nan
        with pytest.raises(ZeroVector, match="^row 1 has norm <= 1e-12$"):
            data.l2_normalize(rows)
        rows[0] = np.inf
        with pytest.raises(NonFiniteValue, match="^row 0 has a non-finite norm$"):
            data.l2_normalize(rows)

    @settings(deadline=None)
    @given(
        arr=arrays(
            np.float32,
            st.tuples(st.integers(1, 5), st.integers(1, 8)),
            elements=st.floats(-100, 100, width=32),
        )
    )
    def test_idempotent(self, arr):
        norms = np.linalg.norm(arr.astype(np.float64), axis=1)
        if np.any(norms <= 1e-6):
            return
        once = data.l2_normalize(arr)
        twice = data.l2_normalize(once.data)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-7)

    @settings(deadline=None)
    @given(
        arr=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 40)),
            elements=st.floats(-1e3, 1e3),
        ),
        e=st.integers(0, 300),
    )
    def test_scaled_rows_normalize_to_the_unit_rows(self, arr, e):
        """A finite row whose squares overflow (10^e with e >= 154) still has a
        finite norm, so rows scaled by 10^e normalize to the unscaled unit rows."""
        if np.any(np.linalg.norm(arr, axis=1) <= 1e-6):
            return
        np.testing.assert_allclose(data.l2_normalize(arr * 10.0**e).data,
                                   data.l2_normalize(arr).data, rtol=0, atol=1e-7)


class TestEmbeddingMatrix:
    """Every EmbeddingMatrix is checked for unit rows when it is built."""

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1 - 2e-5, 1 + 2e-5, 1e19, 1e37])
    def test_non_unit_row_is_named(self, scale):
        # a non-finite row raises NonFiniteValue: see test_non_finite_row_is_named
        rows = unit_rows(4, 3, np.random.default_rng(1)).astype(np.float32)
        rows[1] *= scale
        with pytest.raises(NotNormalized, match="^row 1 has norm .+, not 1 within 1e-05$"):
            data.EmbeddingMatrix(rows)

    def test_rows_within_the_tolerance_pass(self):
        rows = np.array([[1 + 0.9e-5, 0.0], [0.0, 1 - 0.9e-5]], dtype=np.float32)
        held = data.EmbeddingMatrix(rows).data
        assert held.base is rows and not held.flags.writeable  # a read-only view, no copy

    def test_no_write_through_data_skips_the_check(self):
        """The rows stayed writable: a NaN written into them after the check
        reached top_k's scores with no error."""
        m = data.l2_normalize(np.eye(3, dtype=np.float32) + 0.1)
        with pytest.raises(ValueError, match="read-only"):
            m.data[0, 0] = np.nan
        assert np.isfinite(similarity.top_k(similarity.similarity_matrix(m, m), 2).scores).all()

    @pytest.mark.parametrize("rows, got", [
        (np.array([1, 0, 0], np.float32), "1-D float32"),
        (np.eye(2, dtype=np.float32)[None], "3-D float32"),
        (np.eye(2, dtype=np.int64), "2-D int64"),
        (np.eye(2), "2-D float64"),
        ([[1.0, 0.0], [0.0, 1.0]], "list"),
    ], ids=["1-d", "3-d", "int64", "float64", "list"])
    def test_only_a_2d_float32_array_is_held(self, rows, got):
        """numpy's einsum ValueError for a 1-D or 3-D array was no
        PipelineError, and an int64 array of unit rows was accepted."""
        message = f"^embeddings must be a 2-D np.ndarray of float32, got {got}$"
        with pytest.raises(NotNormalized, match=message):
            data.EmbeddingMatrix(rows)

    def test_first_offending_row_picks_the_error(self):
        rows = np.eye(3, dtype=np.float32)
        rows[1], rows[2] = 2.0, math.nan
        with pytest.raises(NotNormalized, match="^row 1 "):
            data.EmbeddingMatrix(rows)
        rows[0, 0] = math.inf
        with pytest.raises(NonFiniteValue, match="^row 0 "):
            data.EmbeddingMatrix(rows)

    def test_frozen(self):
        m = data.l2_normalize(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.data = np.ones((2, 2), dtype=np.float32)  # checked rows stay the rows

    @settings(deadline=None)
    @given(
        arr=arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 40)),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_formers_pass_the_check(self, arr, seed):
        """l2_normalize and apply_adapter build their matrices through the
        constructor's check, and pass it, at any magnitude of the input rows."""
        try:
            unit = data.l2_normalize(arr)
            w = np.random.default_rng(seed).standard_normal((arr.shape[1],) * 2)
            objective.apply_adapter(unit, objective.AdapterParams(w, w), "text")
        except ZeroVector:
            pass


def _matrix(rows):
    """The EmbeddingMatrix of rows scaled to unit norm without _normalize_rows'
    check: the matrix's constructor is then what names a non-finite row."""
    with np.errstate(invalid="ignore"):  # inf / inf leaves the bad row NaN
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return data.EmbeddingMatrix(unit.astype(np.float32))


def _train_on(rows):
    images = np.random.default_rng(1).standard_normal(rows.shape)
    objective.train_adapter(_matrix(rows), _matrix(images), np.arange(len(rows)),
                            objective.TrainConfig(epochs=1, batch_size=2))


def _gate_on(rows):
    scores = np.array([[0.9], [0.8], [0.7], [0.6]])
    lists = similarity.Ranking(np.arange(4), np.full((4, 1), 5), scores)
    policy = resolver.ResolutionPolicy(similarity_gate=0.5)
    resolver.resolve(lists, policy, _matrix(rows))


def _batch(rows):
    images = np.random.default_rng(1).standard_normal(rows.shape)
    return objective.Batch(image_embeddings=images, text_embeddings=rows)


# every function that forms or takes unit rows, called on 4 rows of dim 3;
# each names the offending row, a taker of an EmbeddingMatrix through its
# constructor
UNIT_ROW_FORMERS = {
    "l2_normalize": data.l2_normalize,
    "apply_adapter": lambda rows: objective.apply_adapter(
        _matrix(rows), objective.AdapterParams.identity(3), "text"),
    "contrastive_loss": lambda rows: objective.contrastive_loss(
        _batch(rows), objective.AdapterParams.identity(3)),
    "match_loss": lambda rows: objective.match_loss(
        _batch(rows), (np.array([1, 2, 3, 0]),) * 2, objective.AdapterParams.identity(3)),
    "train_adapter": _train_on,
    "resolve-gate": _gate_on,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("former", UNIT_ROW_FORMERS)
def test_non_finite_row_is_named(former, bad):
    """A unit row is finite by construction: _normalize_rows, or the
    constructor of an EmbeddingMatrix, rejects the rest."""
    rows = np.random.default_rng(0).standard_normal((4, 3))
    rows[2, 1] = bad
    with pytest.raises(NonFiniteValue, match="^row 2 has a non-finite norm$"):
        UNIT_ROW_FORMERS[former](rows)


class TestSynthetic:
    def test_zero_noise_queries_match_gallery(self, make_dataset):
        cfg = data.SynthConfig(8, 16, 0.0, 0.0, 0.5, seed=3)
        manifest = make_dataset(cfg)
        q = data.load_embeddings(manifest, "query")
        g = data.load_embeddings(manifest, "gallery")
        np.testing.assert_allclose(q, g, atol=1e-6)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = data.SynthConfig(16, 8, 0.3, 0.5, 0.1, seed=11)
        for sub in ("a", "b"):
            data.generate_synthetic(cfg, tmp_path / sub)
        for fname in ("gallery.f32", "queries.f32", "manifest.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_seed7_bytes(self, seed7_dataset):
        out, _ = seed7_dataset
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == SEED7_DIGESTS

    @pytest.mark.parametrize("taken", ["queries.f32", "manifest_heldout.json"])
    def test_refused_file_leaves_no_dataset(self, tmp_path, capsys, taken):
        """A directory where a dataset file goes is refused with exit 2; it
        used to leave every file written before it (gallery.f32 at least)."""
        (tmp_path / taken).mkdir()
        assert run(["gen-synth", "--out", str(tmp_path), "--seed", "1", "--heldout"]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert [p.name for p in tmp_path.rglob("*")] == [taken]

    def test_refused_file_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def refuse(manifest, path):
            raise PermissionError(f"refused {path}")

        monkeypatch.setattr(data, "save_manifest", refuse)
        with pytest.raises(PermissionError):
            data.generate_synthetic(data.SynthConfig(seed=1), tmp_path / "new" / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_outputs_naming_one_file_are_refused_before_any_write(self, tmp_path):
        kept, link = tmp_path / "kept", tmp_path / "link"
        kept.write_bytes(b"kept")
        link.symlink_to(kept)
        written = []
        with pytest.raises(InvalidConfig, match=f"^two outputs name one file: {kept}$"):
            data._write_all([(tmp_path / "new", written.append), (kept, written.append),
                             (link, written.append)])
        assert written == [] and kept.read_bytes() == b"kept"

    def test_a_refused_write_removes_what_the_writes_before_it_made(self, tmp_path):
        def refuse(path):
            raise PermissionError(f"refused {path}")

        made = tmp_path / "a" / "b"
        with pytest.raises(PermissionError, match="refused"):
            data._write_all([(made.parent, Path.mkdir), (made, Path.mkdir),
                             (made / "f", lambda path: path.write_bytes(b"f")),
                             (None, refuse), (tmp_path / "g", refuse)])
        assert list(tmp_path.iterdir()) == []

    def test_confusable_pairs_are_close(self, make_dataset):
        cfg = data.SynthConfig(10, 12, 0.0, 1.0, 0.05, seed=5)
        manifest = make_dataset(cfg)
        g = data.load_embeddings(manifest, "gallery").astype(np.float64)
        g /= np.linalg.norm(g, axis=1)[:, None]
        cos = g @ g.T
        np.fill_diagonal(cos, -1)
        # every identity is in a planted pair, so its best neighbor is close
        assert np.all(cos.max(axis=1) >= 1 - 0.05)

    @pytest.mark.parametrize("n", [3, 7])
    def test_odd_n_at_full_fraction_plants_n_half_pairs(self, tmp_path, n):
        """Rounding fraction * n / 2 asks for more pairs than n rows hold (2
        for n=3); the count is capped at n // 2, so one row stays unpaired."""
        out = tmp_path / "ds"
        assert run(["gen-synth", "--out", str(out), "--seed", "1", "--n", str(n),
                    "--confusable-fraction", "1"]) == 0
        g = data.load_embeddings(data.load_manifest(out / "manifest.json"), "gallery")
        g = g.astype(np.float64) / np.linalg.norm(g, axis=1)[:, None]
        cos = g @ g.T
        np.fill_diagonal(cos, -1)
        assert np.count_nonzero(cos.max(axis=1) >= 1 - 0.02) == n - 1

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            data.SynthConfig(1, 4, 0.1, 0.5, 0.1, seed=0)
        with pytest.raises(InvalidConfig):
            data.SynthConfig(4, 4, -0.1, 0.0, 0.1, seed=0)
        with pytest.raises(InvalidConfig):
            data.SynthConfig(4, 4, 0.1, 0.0, 1.5, seed=0)
        for fraction in (-0.1, 1.5):
            with pytest.raises(InvalidConfig, match=r"^confusable_fraction must be in \[0, 1\]$"):
                data.SynthConfig(4, 4, 0.1, fraction, 0.1, seed=0)

    def test_confusable_pairs_need_two_dims(self, tmp_path, capsys):
        """A 1-D anchor has no orthogonal direction: gen-synth --dim 1 used to
        loop forever drawing one for its first planted pair."""
        message = "dim must be >= 2 when confusable_fraction > 0"
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            data.SynthConfig(4, 1, seed=0)
        out = tmp_path / "ds"
        argv = ["gen-synth", "--out", str(out), "--seed", "1", "--n", "4", "--dim", "1"]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()
        assert run([*argv, "--confusable-fraction", "0"]) == 0
        assert data.load_manifest(out / "manifest.json").dim == 1


def _resolve_with(tmp_path, **policy):
    lists = similarity.Ranking(np.arange(2), np.array([[0, 1], [0, 1]]),
                               np.array([[0.9, 0.8], [0.7, 0.6]]))
    resolver.resolve(lists, resolver.ResolutionPolicy(**policy))


def _train_with(tmp_path, **cfg):
    unit = data.l2_normalize(np.eye(4))
    objective.train_adapter(unit, unit, np.arange(4), objective.TrainConfig(**cfg))


def _synthesize_with(tmp_path, **cfg):
    data.generate_synthetic(data.SynthConfig(**{"seed": 0, **cfg}), tmp_path)


def _manifest_with(tmp_path, **fields):
    data.DatasetManifest(**{"name": "x", "dim": 4, "query_count": 4, "gallery_count": 4,
                            "query_path": tmp_path / "q", "gallery_path": tmp_path / "g",
                            "ground_truth": np.arange(4), "seed": 7, **fields})


@pytest.mark.parametrize("entry_point, field, value", [
    (_resolve_with, "depth", 1.5), (_resolve_with, "max_rounds", 2.5),
    (_resolve_with, "depth", True), (_train_with, "epochs", 1.5),
    (_train_with, "batch_size", 2.5), (_train_with, "seed", None),
    (_synthesize_with, "n_identities", 4.5), (_synthesize_with, "dim", 3.0),
    (_synthesize_with, "seed", np.float64(1)),
    (_resolve_with, "depth", np.int64(2)), (_resolve_with, "max_rounds", np.uint8(255)),
    (_train_with, "epochs", np.uint8(20)), (_train_with, "batch_size", np.uint8(16)),
    (_train_with, "seed", np.int16(7)), (_synthesize_with, "n_identities", np.int64(4)),
    (_synthesize_with, "dim", np.int8(3)), (_synthesize_with, "seed", np.uint64(7)),
    (_manifest_with, "dim", 2.5), (_manifest_with, "query_count", True),
    (_manifest_with, "gallery_count", np.int64(4)), (_manifest_with, "seed", 1.5),
], ids=["depth-float", "max_rounds-float", "depth-bool", "epochs-float", "batch_size-float",
        "train-seed-none", "n_identities-float", "dim-float", "synth-seed-numpy-float",
        "depth-numpy", "max_rounds-numpy", "epochs-numpy", "batch_size-numpy",
        "train-seed-numpy", "n_identities-numpy", "dim-numpy", "synth-seed-numpy",
        "manifest-dim-float", "query_count-bool", "gallery_count-numpy", "manifest-seed-float"])
def test_integer_config_fields(tmp_path, entry_point, field, value):
    """An int field holding no Python int is named before anything is
    written; depth=1.5 used to end in an IndexError, the other floats in a
    TypeError. A numpy integer wraps where a Python int grows:
    max_rounds=np.uint8(255) made zero rounds and reported convergence,
    batch_size=np.uint8(16) sent an empty batch on at 300 rows,
    epochs=np.uint8(20) sent the step size negative, and
    n_identities=np.int64(4) wrote both embedding files before the
    manifest's json.dumps failed. A DatasetManifest built with dim=2.5 or
    seed=1.5 was accepted."""
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        entry_point(tmp_path, **{field: value})
    assert list(tmp_path.iterdir()) == []


def _load(tmp_path, pairs, ground_truth):
    data.load_manifest(write_manifest_fixture(tmp_path, gt=pairs))


def _validate(tmp_path, pairs, ground_truth):
    manifest = data.load_manifest(write_manifest_fixture(tmp_path))
    dataclasses.replace(manifest, ground_truth=ground_truth)


def _train(tmp_path, pairs, ground_truth):
    manifest = data.load_manifest(write_manifest_fixture(tmp_path))
    q, g = (data.l2_normalize(data.load_embeddings(manifest, s)) for s in ("query", "gallery"))
    objective.train_adapter(q, g, ground_truth, objective.TrainConfig(epochs=1, batch_size=2))


# (JSON pairs, the same ground truth as an array, error class, message);
# the fixture has 4 query and 4 gallery rows. JSON pairs of None: a
# manifest cannot hold the fault, so load_manifest does not see it
GROUND_TRUTH_FAULTS = {
    "missing-row": ([[0, 0], [1, 1], [3, 3]], [0, 1],
                    MissingGroundTruth, "query row 2 has no ground-truth entry"),
    "beyond-last-row": ([[0, 0], [1, 1], [2, 2], [3, 3], [4, 0]], [0, 1, 2, 3, 0],
                        GroundTruthOutOfRange, "query id 4 outside [0, 4)"),
    "gallery-out-of-range": ([[0, 0], [1, 1], [2, 9], [3, 3]], [0, 1, 9, 3],
                             GroundTruthOutOfRange, "ground_truth[2] = 9 outside [0, 4)"),
    "float-entries": (None, [0.0, 1.0, 2.0, 3.0],
                      GroundTruthOutOfRange, "ground_truth must hold integers, got float64"),
    "2-d": (None, [[0], [1], [2], [3]],
            GroundTruthOutOfRange, "ground_truth must be 1-D, got shape (4, 1)"),
}
GROUND_TRUTH_ENTRY_POINTS = {
    "load_manifest": _load, "validate": _validate, "train_adapter": _train,
}


@pytest.mark.parametrize("entry_point, fault", [
    pytest.param(GROUND_TRUTH_ENTRY_POINTS[name], fault, id=f"{name}-{fault}")
    for name in GROUND_TRUTH_ENTRY_POINTS for fault in GROUND_TRUTH_FAULTS
    if name != "load_manifest" or GROUND_TRUTH_FAULTS[fault][0] is not None
])
def test_one_ground_truth_rule(tmp_path, entry_point, fault):
    """Every entry point that checks ground truth raises the same error."""
    pairs, array, error, message = GROUND_TRUTH_FAULTS[fault]
    with pytest.raises(PipelineError) as raised:
        entry_point(tmp_path, pairs, np.array(array))
    assert (type(raised.value), str(raised.value)) == (error, message)


INT64 = st.integers(-(1 << 63), (1 << 63) - 1) | st.sampled_from([-(1 << 63), (1 << 63) - 1])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
METAS = st.sampled_from([None, {}, {"dataset": "d", "seed": 7}])
WRITER_SETTINGS = settings(max_examples=examples(60), deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


def f_string_table(meta, rows, specs, tail=()):
    """The f-string formatting the writers had before they shared
    data._write_table: meta lines, one line per row with each value
    formatted by its spec, the tail lines, all joined by newlines."""
    out = [f"# {k}={v}" for k, v in (meta or {}).items()]
    out += ["\t".join(format(v, spec) for v, spec in zip(row, specs)) for row in rows]
    return "\n".join(out + list(tail)) + "\n"


class TestTableWriters:
    """Every file written through data._write_table is byte-equal to the
    f-string form, for empty bodies, non-finite and signed-zero floats and
    int64-extreme ids."""

    @WRITER_SETTINGS
    @given(qids=st.lists(INT64, unique=True, max_size=4), k=st.integers(0, 3),
           meta=METAS, with_source=st.booleans(), data_=st.data())
    def test_ranked_lists(self, tmp_path, qids, k, meta, with_source, data_):
        qids, n = sorted(qids), len(qids)
        cells = st.lists(st.lists(INT64, min_size=k, max_size=k), min_size=n, max_size=n)
        ids = data_.draw(cells)
        scores = data_.draw(st.lists(st.lists(FLOATS, min_size=k, max_size=k),
                                     min_size=n, max_size=n))
        sources = data_.draw(cells) if with_source else None
        ranking = similarity.Ranking(np.array(qids, dtype=np.int64),
                                     np.array(ids, dtype=np.int64).reshape(n, k),
                                     np.array(scores, dtype=np.float64).reshape(n, k))
        path = tmp_path / "ranked.tsv"
        similarity.write_ranked_lists(path, ranking, meta=meta, source_ranks=(
            None if sources is None else np.array(sources, dtype=np.int64).reshape(n, k)))
        rows = [
            (q, r + 1, ids[i][r], scores[i][r], *([sources[i][r]] if with_source else []))
            for i, q in enumerate(qids) for r in range(k)
        ]
        assert path.read_text() == f_string_table(meta, rows, ["", "", "", ".9g", ""])

    @WRITER_SETTINGS
    @given(records=st.lists(st.tuples(st.integers(1, 50), INT64, INT64, INT64, FLOATS),
                            max_size=5),
           unresolved=st.sets(INT64, max_size=3), meta=METAS)
    def test_audit(self, tmp_path, records, unresolved, meta):
        resolution = resolver.Resolution(
            ranks=np.zeros(0, dtype=np.int64),
            unresolved=np.array(sorted(unresolved), dtype=np.int64),
            audit=np.array(records, dtype=resolver.AUDIT_DTYPE),
        )
        path = tmp_path / "audit.tsv"
        resolver.write_audit(path, resolution, meta=meta)
        tail = [f"# unresolved={q}" for q in sorted(unresolved)]
        assert path.read_text() == f_string_table(meta, records, ["", "", "", "", ".9g"], tail)

    @WRITER_SETTINGS
    @given(losses=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=4), meta=METAS)
    def test_trace(self, tmp_path, losses, meta):
        trace = [objective.LossBreakdown(c, m, lam) for c, m, lam in losses]
        path = tmp_path / "trace.tsv"
        objective.write_trace(path, trace, meta=meta)
        rows = [(epoch, t.contrastive, t.match, t.total) for epoch, t in enumerate(trace)]
        assert path.read_text() == f_string_table(meta, rows, ["", ".12g", ".12g", ".12g"])

    @pytest.mark.parametrize("block_rows", [1, 2, 4, 5])
    def test_blocks_join_byte_identically(self, tmp_path, monkeypatch, block_rows):
        # every table in blocks of block_rows rows, at least 2
        monkeypatch.setattr(data, "BLOCK_SCORES", 5 * block_rows)
        rng = np.random.default_rng(21)
        ids, scores = rng.integers(-9, 99, (3, 2)), rng.random((3, 2))
        sources = rng.integers(1, 3, (3, 2))
        path = tmp_path / "ranked.tsv"
        similarity.write_ranked_lists(path, similarity.Ranking(np.arange(3), ids, scores),
                                      meta={"k": 2}, source_ranks=sources)
        rows = [(q, r + 1, ids[q, r].item(), scores[q, r].item(), sources[q, r].item())
                for q in range(3) for r in range(2)]
        assert path.read_text() == f_string_table({"k": 2}, rows, ["", "", "", ".9g", ""])

        records = [(r, r + 10, -r, r * 7, r / 3) for r in range(1, 6)]
        resolver.write_audit(path, resolver.Resolution(
            ranks=np.zeros(0, dtype=np.int64), unresolved=np.array([4, 8]),
            audit=np.array(records, dtype=resolver.AUDIT_DTYPE)))
        tail = ["# unresolved=4", "# unresolved=8"]
        assert path.read_text() == f_string_table(None, records, ["", "", "", "", ".9g"], tail)

        trace = [objective.LossBreakdown(e / 3, e / 7, 0.5) for e in range(5)]
        objective.write_trace(path, trace)
        rows = [(e, t.contrastive, t.match, t.total) for e, t in enumerate(trace)]
        assert path.read_text() == f_string_table(None, rows, ["", ".12g", ".12g", ".12g"])

    def test_write_memory_does_not_grow_with_rows(self, tmp_path):
        """Rows are formatted a block at a time: writing four blocks peaks
        little above writing one. What grows with the rows is the int64 rank
        and query id columns, not the Python objects and text of every row
        (about 170 bytes a row)."""
        def peak(rows, k=8):
            n = rows // k
            ranking = similarity.Ranking(np.arange(n), np.tile(np.arange(k), (n, 1)),
                                         np.random.default_rng(22).random((n, k)))
            tracemalloc.start()
            try:
                similarity.write_ranked_lists(tmp_path / "ranked.tsv", ranking)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block holds BLOCK_SCORES // 5 rows: one block, then four
        block = data.BLOCK_SCORES // 5
        one, four = peak(block), peak(4 * block)
        assert four < 1.5 * one


class TestRowBounds:
    """data._row_bounds, the one rule for row blocks: top-k, the training
    trace and the table writer loop over its bounds."""

    @given(n_rows=st.integers(0, 300), n_cols=st.integers(0, 500), budget=st.integers(1, 2000))
    def test_row_bounds_property(self, n_rows, n_cols, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "BLOCK_SCORES", budget)
            bounds = data._row_bounds(n_rows, n_cols)
        step = max(2, budget // max(1, n_cols))
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n_rows and (sizes > 0).all()
        if n_rows >= 2:
            # a one-row tail joins the block before it: at most step + 1 <= 2 step - 1
            assert (sizes[:-1] == step).all() and 2 <= sizes[-1] <= step + 1

    @pytest.mark.parametrize("n_rows,n_cols,bounds", [
        (0, 4, [0]), (1, 4, [0, 1]), (2, 4, [0, 2]), (3, 4, [0, 3]),
        # more columns than the budget still makes blocks of 2 rows
        (0, data.BLOCK_SCORES + 1, [0]), (1, data.BLOCK_SCORES + 1, [0, 1]),
        (2, data.BLOCK_SCORES + 1, [0, 2]), (3, data.BLOCK_SCORES + 1, [0, 3]),
        (4, data.BLOCK_SCORES + 1, [0, 2, 4]), (5, data.BLOCK_SCORES + 1, [0, 2, 5]),
    ])
    def test_row_bounds_cases(self, n_rows, n_cols, bounds):
        assert data._row_bounds(n_rows, n_cols) == bounds

    def test_workload_blocks(self):
        # top-k at n=10000: 385 blocks of 26 rows, the last of 16
        sizes = np.diff(data._row_bounds(10_000, 10_000)).tolist()
        assert sizes == [26] * 384 + [16]
        # the trace at n=2000, and the table writer's 5-column blocks
        assert set(np.diff(data._row_bounds(2000, 2000))[:-1]) == {131}
        assert data._row_bounds(100_000, 5)[1] == 52428
