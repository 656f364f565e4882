import dataclasses
import json
import math

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
    ParseError,
    PipelineError,
    ZeroVector,
)


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

    def test_short_gallery_file(self, tmp_path):
        path = write_manifest_fixture(tmp_path)
        gfile = tmp_path / "g.f32"
        gfile.write_bytes(gfile.read_bytes()[:-1])
        with pytest.raises(DimensionMismatch):
            data.load_manifest(path)

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

    def test_3x2_round_trip_bit_exact(self, tmp_path):
        arr = np.array([[1.5, -2.25], [0.1, 3.0], [7.0, -0.0]], dtype=np.float32)
        data.write_embedding_file(tmp_path / "m.f32", arr)
        back = data.read_embedding_file(tmp_path / "m.f32", 3, 2)
        assert back.tobytes() == arr.tobytes()

    @settings(
        max_examples=30,
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
        m = data.EmbeddingMatrix(np.array([[3.0, 4.0]], dtype=np.float32))
        out = data.l2_normalize(m)
        assert out.normalized
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_identity_on_unit_vector(self):
        m = data.EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32))
        np.testing.assert_array_equal(data.l2_normalize(m).data, [[1.0, 0.0]])

    def test_zero_vector(self):
        m = data.EmbeddingMatrix(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(ZeroVector):
            data.l2_normalize(m)

    @settings(max_examples=50, deadline=None)
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
        once = data.l2_normalize(data.EmbeddingMatrix(arr))
        twice = data.l2_normalize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-7)


class TestSynthetic:
    def test_zero_noise_queries_match_gallery(self, make_dataset):
        cfg = data.SynthConfig(8, 16, 0.0, 0.0, 0.5, seed=3)
        manifest = make_dataset(cfg)
        q = data.load_embeddings(manifest, "query").data
        g = data.load_embeddings(manifest, "gallery").data
        np.testing.assert_allclose(q, g, atol=1e-6)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = data.SynthConfig(16, 8, 0.3, 0.5, 0.1, seed=11)
        for sub in ("a", "b"):
            data.generate_synthetic(cfg, tmp_path / sub)
        for fname in ("gallery.f32", "queries.f32", "manifest.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_confusable_pairs_are_close(self, make_dataset):
        cfg = data.SynthConfig(10, 12, 0.0, 1.0, 0.05, seed=5)
        manifest = make_dataset(cfg)
        g = data.load_embeddings(manifest, "gallery").data.astype(np.float64)
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
        g = data.load_embeddings(data.load_manifest(out / "manifest.json"), "gallery").data
        g = g.astype(np.float64) / np.linalg.norm(g, axis=1)[:, None]
        cos = g @ g.T
        np.fill_diagonal(cos, -1)
        assert np.count_nonzero(cos.max(axis=1) >= 1 - 0.02) == n - 1

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            data.SynthConfig(1, 4, 0.1, 0.5, 0.1, seed=0).validate()
        with pytest.raises(InvalidConfig):
            data.SynthConfig(4, 4, -0.1, 0.0, 0.1, seed=0).validate()
        with pytest.raises(InvalidConfig):
            data.SynthConfig(4, 4, 0.1, 0.0, 1.5, seed=0).validate()


def _load(tmp_path, pairs, ground_truth):
    data.load_manifest(write_manifest_fixture(tmp_path, gt=pairs))


def _validate(tmp_path, pairs, ground_truth):
    manifest = data.load_manifest(write_manifest_fixture(tmp_path))
    dataclasses.replace(manifest, ground_truth=ground_truth).validate()


def _train(tmp_path, pairs, ground_truth):
    manifest = data.load_manifest(write_manifest_fixture(tmp_path))
    q, g = (data.l2_normalize(data.load_embeddings(manifest, s)) for s in ("query", "gallery"))
    objective.train_adapter(q, g, ground_truth, objective.TrainConfig(epochs=1, batch_size=2))


# (JSON pairs, the same ground truth as an array, error class, message);
# the fixture has 4 query and 4 gallery rows
GROUND_TRUTH_FAULTS = {
    "missing-row": ([[0, 0], [1, 1], [3, 3]], [0, 1],
                    MissingGroundTruth, "query row 2 has no ground-truth entry"),
    "beyond-last-row": ([[0, 0], [1, 1], [2, 2], [3, 3], [4, 0]], [0, 1, 2, 3, 0],
                        GroundTruthOutOfRange, "query id 4 outside [0, 4)"),
    "gallery-out-of-range": ([[0, 0], [1, 1], [2, 9], [3, 3]], [0, 1, 9, 3],
                             GroundTruthOutOfRange, "ground_truth[2] = 9 outside [0, 4)"),
}


@pytest.mark.parametrize("fault", GROUND_TRUTH_FAULTS)
@pytest.mark.parametrize("entry_point", [_load, _validate, _train],
                         ids=["load_manifest", "validate", "train_adapter"])
def test_one_ground_truth_rule(tmp_path, entry_point, fault):
    """Every entry point that checks ground truth raises the same error."""
    pairs, array, error, message = GROUND_TRUTH_FAULTS[fault]
    with pytest.raises(PipelineError) as raised:
        entry_point(tmp_path, pairs, np.array(array, dtype=np.int64))
    assert (type(raised.value), str(raised.value)) == (error, message)


class TestValidateDataset:
    def test_clean_fixture_passes(self, make_dataset):
        manifest = make_dataset(data.SynthConfig(6, 4, 0.1, 0.0, 0.5, seed=1))
        report = data.validate_dataset(manifest)
        assert report.ok
        assert not report.warnings

    def test_duplicate_ground_truth_flagged(self, tmp_path):
        path = write_manifest_fixture(tmp_path, gt=[[0, 1], [1, 1], [2, 2], [3, 3]])
        report = data.validate_dataset(data.load_manifest(path))
        failed = {c.name for c in report.checks if not c.passed}
        assert "ground_truth_one_to_one" in failed

    def test_unnormalized_data_warns_not_fails(self, tmp_path):
        path = write_manifest_fixture(tmp_path)
        report = data.validate_dataset(data.load_manifest(path))
        assert report.ok
        assert any("not unit-normalized" in w for w in report.warnings)

    def test_non_finite_gallery_fails_its_check(self, tmp_path):
        path = write_manifest_fixture(tmp_path)
        gfile = tmp_path / "g.f32"
        values = np.frombuffer(gfile.read_bytes(), dtype="<f4").copy()
        values[5] = np.nan
        gfile.write_bytes(values.tobytes())
        report = data.validate_dataset(data.load_manifest(path))
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["gallery"]
        assert "non-finite" in failed[0].detail
        assert run(["validate", str(path)]) == 2


INT64 = st.integers(-(1 << 63), (1 << 63) - 1) | st.sampled_from([-(1 << 63), (1 << 63) - 1])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
METAS = st.sampled_from([None, {}, {"dataset": "d", "seed": 7}])
WRITER_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


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
