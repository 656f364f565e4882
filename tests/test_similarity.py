import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from embsearch import data, similarity
from embsearch.errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidRanking,
    KOutOfRange,
    NonFiniteValue,
    NotNormalized,
    ParseError,
)
from conftest import examples, unit_rows
from rankings import ranking, rows_of


def norm_matrix(arr):
    return data.EmbeddingMatrix(np.asarray(arr, dtype=np.float32))


def sort_oracle(scores):
    """Naive full sort of one score row, ties toward the lower gallery id."""
    return sorted(range(len(scores)), key=lambda g: (-scores[g], g))


def reference_read_ranked_lists(path):
    """The per-line parser the columnar one replaced, kept as its reference;
    like the reader, it rejects an id that int64 cannot hold."""
    lists = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 4:
            raise ParseError(f"{path}:{lineno}: expected at least 4 tab-separated fields")
        try:
            qid, rank, gid, score = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not all(-(1 << 63) <= v < 1 << 63 for v in (qid, rank, gid)):
            raise ParseError(f"{path}:{lineno}: integer outside the int64 range")
        entries = lists.setdefault(qid, [])
        if rank != len(entries) + 1:
            raise ParseError(f"{path}:{lineno}: rank {rank} out of order for query {qid}")
        entries.append((gid, score))
    return [(q, lists[q]) for q in sorted(lists)]


def float_bits(x):
    return struct.pack("<d", x)


def assert_equals_reference(lists, sims, k):
    """top_k must reproduce a stable full argsort of the negated scores,
    NaN and signed zeros included."""
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    picked = np.take_along_axis(sims, order, axis=1)
    assert lists.query_ids.tolist() == list(range(sims.shape[0]))
    assert np.array_equal(lists.ids, order)
    # compare bit patterns so -0.0 against 0.0 and NaN count
    assert lists.scores.astype(sims.dtype).tobytes() == picked.tobytes()


@pytest.fixture
def rows_per_block(monkeypatch):
    """Shrink the score budget so a call spans several blocks of `rows`
    query rows each (at least 2, as data._row_bounds makes them); callers
    choose n_queries so the last block is partial."""

    def _set(rows, n_gallery):
        monkeypatch.setattr(data, "BLOCK_SCORES", rows * n_gallery + n_gallery - 1)

    return _set


class TestSimilarityMatrix:
    def test_orthonormal_basis(self):
        q = norm_matrix([[1.0, 0.0]])
        g = norm_matrix([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(similarity.similarity_matrix(q, g), [[1.0, 0.0]])

    def test_hand_dot_product(self):
        q = norm_matrix([[0.6, 0.8]])
        g = norm_matrix([[0.8, 0.6]])
        sims = similarity.similarity_matrix(q, g)
        assert sims[0, 0] == pytest.approx(0.96, abs=1e-7)

    def test_self_similarity(self):
        rows = unit_rows(5, 16, np.random.default_rng(2))
        m = norm_matrix(rows)
        sims = similarity.similarity_matrix(m, m)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-6)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        q = norm_matrix(unit_rows(7, 8, rng))
        g = norm_matrix(unit_rows(9, 8, rng))
        a = similarity.similarity_matrix(q, g)
        b = similarity.similarity_matrix(g, q)
        np.testing.assert_allclose(a, b.T, atol=1e-6)

    def test_requires_normalized(self):
        """Only an EmbeddingMatrix is known to hold unit rows; raw rows are refused."""
        raw = np.ones((2, 2), dtype=np.float32)
        unit = norm_matrix(np.eye(2))
        for q, g in ((raw, unit), (unit, raw), (raw, raw)):
            with pytest.raises(NotNormalized, match="^similarity_matrix requires EmbeddingMatrix"):
                similarity.similarity_matrix(q, g)

    def test_dim_mismatch(self):
        q = norm_matrix([[1.0, 0.0]])
        g = norm_matrix([[1.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            similarity.similarity_matrix(q, g)

    def test_unit_inputs_bound_scores(self):
        rng = np.random.default_rng(4)
        q = norm_matrix(unit_rows(20, 6, rng))
        g = norm_matrix(unit_rows(30, 6, rng))
        sims = similarity.similarity_matrix(q, g)
        assert np.all(sims >= -1 - 1e-5) and np.all(sims <= 1 + 1e-5)


class TestTopK:
    def test_tie_break_lower_gallery_id(self):
        sims = np.array([[0.2, 0.9, 0.9, 0.1]], dtype=np.float32)
        assert similarity.top_k(sims, 2).ids.tolist() == [[1, 2]]

    def test_full_depth_is_permutation(self):
        rng = np.random.default_rng(5)
        sims = rng.random((4, 6)).astype(np.float32)
        lists = similarity.top_k(sims, 6)
        for q, entries in rows_of(lists):
            assert sorted(g for g, _ in entries) == list(range(6))

    def test_k_out_of_range(self):
        sims = np.zeros((1, 3), dtype=np.float32)
        for k in (0, 4):
            with pytest.raises(KOutOfRange):
                similarity.top_k(sims, k)

    def test_no_queries_give_an_empty_ranking(self):
        lists = similarity.top_k(np.zeros((0, 5), dtype=np.float32), 3)
        assert len(lists) == 0 and lists.ids.shape == lists.scores.shape == (0, 3)

    def test_matches_full_sort_oracle_100x50(self):
        rng = np.random.default_rng(6)
        # quantized scores force plenty of ties
        sims = np.round(rng.random((100, 50)), 2).astype(np.float32)
        lists = similarity.top_k(sims, 10)
        for q, entries in rows_of(lists):
            expected = sort_oracle(sims[q])[:10]
            assert [g for g, _ in entries] == expected

    @settings(max_examples=examples(30), deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_q=st.integers(1, 12),
        n_g=st.integers(1, 40),
        data_=st.data(),
    )
    def test_oracle_property(self, seed, n_q, n_g, data_):
        k = data_.draw(st.integers(1, n_g))
        rng = np.random.default_rng(seed)
        sims = np.round(rng.random((n_q, n_g)), 1).astype(np.float32)
        lists = similarity.top_k(sims, k)
        for q, entries in rows_of(lists):
            assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(7)
        sims = rng.random((10, 20)).astype(np.float32)
        for scores in similarity.top_k(sims, 20).scores.tolist():
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_zero_noise_returns_ground_truth(self, make_dataset):
        cfg = data.SynthConfig(12, 8, 0.0, 0.0, 0.5, seed=9)
        manifest = make_dataset(cfg)
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(q, g), 1)
        for q, entries in rows_of(lists):
            assert entries[0][0] == manifest.ground_truth[q]


class TestTopKBlocks:
    """Block boundaries, tie boundaries and non-finite scores in blocked top-k."""

    def test_all_equal_rows(self, rows_per_block):
        rows_per_block(3, 6)
        sims = np.full((7, 6), 0.25, dtype=np.float32)
        for k in (1, 4, 6):
            lists = similarity.top_k(sims, k)
            for q, entries in rows_of(lists):
                assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]
            assert_equals_reference(lists, sims, k)

    def test_ties_straddle_rank_k(self, rows_per_block):
        rows_per_block(2, 7)
        sims = np.array(
            [
                [0.1, 0.5, 0.9, 0.5, 0.5, 0.2, 0.5],
                [0.5, 0.5, 0.5, 0.9, 0.1, 0.9, 0.3],
                [0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.9],
                [0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1],
                [0.0, 0.7, 0.7, 0.0, 0.7, 0.0, 0.7],
            ],
            dtype=np.float32,
        )
        for k in range(1, 8):
            lists = similarity.top_k(sims, k)
            for q, entries in rows_of(lists):
                assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]

    def test_signed_zero_ties(self, rows_per_block):
        rows_per_block(1, 6)
        sims = np.array(
            [
                [0.0, -0.0, -0.5, 0.0, -0.0, -0.5],
                [-0.0, 0.0, -0.0, 0.0, 0.5, -0.0],
                [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
            ],
            dtype=np.float32,
        )
        for k in range(1, 7):
            lists = similarity.top_k(sims, k)
            for q, entries in rows_of(lists):
                assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]
            assert_equals_reference(lists, sims, k)

    def test_k_extremes(self, rows_per_block):
        rng = np.random.default_rng(11)
        sims = np.round(rng.random((9, 8)), 1).astype(np.float32)
        rows_per_block(4, 8)
        for k in (1, 8):
            lists = similarity.top_k(sims, k)
            for q, entries in rows_of(lists):
                assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]
        column = sims[:, :1]
        rows_per_block(4, 1)
        lists = similarity.top_k(column, 1)
        assert [entries for _, entries in rows_of(lists)] == [[(0, float(s))] for s in column[:, 0]]

    @settings(max_examples=examples(60), deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_q=st.integers(1, 12),
        n_g=st.integers(1, 30),
        rows=st.integers(1, 5),
        data_=st.data(),
    )
    def test_blocked_oracle_property(self, seed, n_q, n_g, rows, data_):
        k = data_.draw(st.integers(1, n_g))
        rng = np.random.default_rng(seed)
        # one decimal in [-1, 1] forces ties, and rounding small negatives
        # yields -0.0 to tie with 0.0
        sims = np.round(rng.random((n_q, n_g)) * 2 - 1, 1).astype(np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "BLOCK_SCORES", rows * n_g)
            lists = similarity.top_k(sims, k)
        for q, entries in rows_of(lists):
            assert [g for g, _ in entries] == sort_oracle(sims[q])[:k]
        assert_equals_reference(lists, sims, k)

    def test_non_finite_with_finite_kth_score(self, rows_per_block):
        nan, inf = np.nan, np.inf
        sims = np.array(
            [
                [0.2, nan, 0.9, -inf, 0.5, nan, 0.1],
                [inf, 0.3, inf, 0.3, -inf, 0.7, nan],
                [-inf, 0.4, -inf, 0.4, 0.6, 0.0, -0.0],
                [nan, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            ],
            dtype=np.float32,
        )
        rows_per_block(3, 7)
        for k in (1, 2, 3):
            assert_equals_reference(similarity.top_k(sims, k), sims, k)

    def test_rows_with_fewer_than_k_non_nan_scores(self, rows_per_block):
        nan, inf = np.nan, np.inf
        sims = np.array(
            [
                [nan, 0.3, nan, nan, 0.8],
                [nan, nan, nan, nan, nan],
                [0.1, 0.2, 0.3, 0.4, 0.5],
                [-inf, nan, -inf, nan, inf],
                [nan, -0.0, nan, 0.0, nan],
            ],
            dtype=np.float32,
        )
        rows_per_block(2, 5)
        for k in range(1, 6):
            assert_equals_reference(similarity.top_k(sims, k), sims, k)

    @settings(max_examples=examples(80), deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_q=st.integers(1, 6),
        k=st.integers(1, 12),
        rows=st.integers(1, 4),
        decimals=st.sampled_from([1, 3]),
        data_=st.data(),
    )
    def test_wide_rows_with_planted_values(self, seed, n_q, k, rows, decimals, data_):
        # at least 8k columns, so chunks of n_gallery // 4k are wider than
        # one column; the n_gallery % width columns past them form a shorter
        # last chunk
        n_g = data_.draw(st.integers(8 * k, 400))
        width = n_g // (4 * k)
        split = n_g - n_g % width
        column = st.integers(0, split - 1)
        if split < n_g:
            column |= st.integers(split, n_g - 1)
        plants = data_.draw(st.lists(
            st.tuples(st.integers(0, n_q - 1), column,
                      st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])),
            max_size=8,
        ))
        rng = np.random.default_rng(seed)
        sims = np.round(rng.random((n_q, n_g)) * 2 - 1, decimals).astype(np.float32)
        for row, col, value in plants:
            sims[row, col] = value
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "BLOCK_SCORES", rows * n_g)
            lists = similarity.top_k(sims, k)
        assert_equals_reference(lists, sims, k)

    def test_only_nan_in_a_leftover_column(self):
        n_g = 103
        for k in range(1, 13):
            # width n_g // 4k does not divide n_g for any k here, so column
            # 102 lies in a last chunk shorter than the others
            assert n_g % (n_g // (4 * k)) != 0
        rng = np.random.default_rng(15)
        sims = np.round(rng.random((6, n_g)), 1).astype(np.float32)
        sims[1] = 0.5
        sims[2, :20] = np.inf
        sims[:3, 102] = np.nan
        # finite rows whose best scores lie in that short chunk: ascending
        # scores, and a tail of 1.0 tying with the row's best elsewhere
        sims[4] = np.arange(n_g) / n_g
        sims[5, 96:] = 1.0
        for k in range(1, 13):
            assert_equals_reference(similarity.top_k(sims, k), sims, k)

    def test_working_memory_stays_below_score_matrix(self, rows_per_block):
        sims = np.random.default_rng(12).random((2000, 2000)).astype(np.float32)
        rows_per_block(16, 2000)
        tracemalloc.start()
        try:
            lists = similarity.top_k(sims, 10)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lists) == 2000
        # working memory is the peak above what the returned lists keep; a
        # full argsort holds a negated copy plus int64 indices, 3x nbytes,
        # and even an n x n boolean mask would be nbytes // 4
        assert peak - kept < sims.nbytes // 16


class TestSimilarityMatrixFinite:
    """Scores are finite because the inputs are: an EmbeddingMatrix
    rejects a non-finite or non-unit row when it is built, so
    similarity_matrix neither proves nor scans anything."""

    @pytest.mark.parametrize("row", [0, 3, 4, 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_block_raises(self, row, bad):
        q = unit_rows(7, 4, np.random.default_rng(13)).astype(np.float32)
        q[row, 1] = bad
        with pytest.raises(NonFiniteValue, match=f"^row {row} has a non-finite norm$"):
            norm_matrix(q)

    def test_working_memory_stays_below_a_mask(self):
        rng = np.random.default_rng(14)
        q = norm_matrix(unit_rows(1500, 8, rng))
        g = norm_matrix(unit_rows(1500, 8, rng))
        tracemalloc.start()
        try:
            sims = similarity.similarity_matrix(q, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's boolean mask of a score scan would be about 256 KB
        assert peak - sims.nbytes < sims.nbytes // 64

    @pytest.mark.parametrize("side", ["query", "gallery"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, side, bad):
        rng = np.random.default_rng(15)
        q, g = unit_rows(6, 4, rng), unit_rows(5, 4, rng)
        (q if side == "query" else g)[2, 3] = bad
        norm_matrix(q if side == "gallery" else g)
        with pytest.raises(NonFiniteValue, match="^row 2 has a non-finite norm$"):
            norm_matrix(q if side == "query" else g)

    @pytest.mark.parametrize("q_scale, g_scale", [(1e20, 1e20), (1e37, 1e3)])
    def test_finite_inputs_whose_products_overflow_raise(self, q_scale, g_scale):
        # scaled rows cannot form an EmbeddingMatrix, so no product overflows
        rng = np.random.default_rng(16)
        for rows, scale in ((unit_rows(6, 4, rng), q_scale), (unit_rows(5, 4, rng), g_scale)):
            with pytest.raises(NotNormalized, match="^row 0 has norm .+, not 1 within 1e-05$"):
                norm_matrix(rows * scale)


def i64(values):
    return np.array(values, np.int64)


def f64(values):
    return np.array(values, np.float64)


SHAPE = "do not hold one equal-length list per query$"
ASCENDING = "^query ids must be strictly ascending$"
NOT_INT64_IDS = "^ids must be an np.ndarray of int64, got "
NOT_INT64_QUERY_IDS = "^query_ids must be an np.ndarray of int64, got "


class TestRanking:
    def test_top_k_widens_scores_exactly(self):
        sims = np.random.default_rng(15).random((4, 9)).astype(np.float32)
        ranking = similarity.top_k(sims, 3)
        assert ranking.ids.dtype == np.int64 and ranking.scores.dtype == np.float64
        assert ranking.query_ids.tolist() == [0, 1, 2, 3]
        expected = np.take_along_axis(sims, ranking.ids, axis=1)
        assert ranking.scores.tobytes() == expected.astype(np.float64).tobytes()

    def test_top_k_arrays_are_kept(self):
        ranked = similarity.top_k(np.random.default_rng(16).random((3, 5)).astype(np.float32), 2)
        again = similarity.Ranking(ranked.query_ids, ranked.ids, ranked.scores)
        assert again.query_ids is ranked.query_ids
        assert again.ids is ranked.ids and again.scores is ranked.scores

    def test_of_lists_sorts_by_query_id(self):
        lists = [(7, [(1, 0.5), (2, 0.25)]), (-2, [(3, 0.75), (1, 0.5)])]
        ranked = ranking(lists)
        assert ranked.query_ids.tolist() == [-2, 7]
        assert rows_of(ranked) == sorted(lists)
        assert ranked.ids.dtype == np.int64 and ranked.scores.dtype == np.float64

    @pytest.mark.parametrize("query_ids, ids, scores, message", [
        (i64([0, 1]), i64([[1], [2]]), f64([[0.5, 0.4], [0.5, 0.1]]), SHAPE),
        (i64([0, 0]), i64([[1], [2]]), f64([[0.5], [0.5]]), ASCENDING),
        (i64([1, 0]), i64([[1], [2]]), f64([[0.5], [0.5]]), ASCENDING),
        (i64([0, 1]), i64([[1, 2], [3, 4]]), f64([[0.5], [0.5]]), SHAPE),
        (i64([0, 1]), i64([[1, 2], [3, 4]]), f64([[0.5, 0.4], [0.5, 0.4], [0.3, 0.2]]), SHAPE),
        (i64([0, 1]), i64([[1, 2]]), f64([[0.5, 0.4]]), SHAPE),
        (i64([0, 1]), i64([1, 2]), f64([0.5, 0.4]), SHAPE),
        (i64([[0]]), i64([[1, 2]]), f64([[0.5, 0.4]]), SHAPE),
        (i64([0]), np.array([[1, "two"]]), f64([[0.5, 0.4]]), NOT_INT64_IDS),
        (i64([0, 1]), f64([[1.7, 2.2], [3.9, 4.0]]), f64([[0.5, 0.4], [0.3, 0.2]]), NOT_INT64_IDS),
        (f64([0.9, 1.2]), i64([[1, 2], [3, 4]]), f64([[0.5, 0.4], [0.3, 0.2]]),
         NOT_INT64_QUERY_IDS),
        (i64([0, 1]), f64([[np.nan, 2], [3, 4]]), f64([[0.5, 0.4], [0.3, 0.2]]), NOT_INT64_IDS),
        (f64([0, np.inf]), i64([[1, 2], [3, 4]]), f64([[0.5, 0.4], [0.3, 0.2]]),
         NOT_INT64_QUERY_IDS),
        (i64([0, 1]), f64([[1e300, 2], [3, 4]]), f64([[0.5, 0.4], [0.3, 0.2]]), NOT_INT64_IDS),
        (np.array([0, 1 << 63], np.uint64), i64([[1, 2], [3, 4]]), f64([[0.5, 0.4], [0.3, 0.2]]),
         NOT_INT64_QUERY_IDS),
    ], ids=["unequal-lengths", "repeated-query", "descending-query", "scores-narrower",
            "scores-taller", "fewer-lists-than-queries", "one-dimensional-ids",
            "two-dimensional-query-ids", "non-integer-id", "fractional-id",
            "fractional-query-id", "nan-id", "inf-query-id", "id-beyond-int64",
            "query-id-beyond-int64"])
    def test_rejects_what_it_cannot_hold(self, query_ids, ids, scores, message):
        """Each shape rule and the ascending rule, on arrays of the right
        dtypes, and arrays of another dtype, whatever values they hold."""
        with pytest.raises(InvalidRanking, match=message):
            similarity.Ranking(query_ids, ids, scores)

    def test_refuses_what_it_would_have_to_convert(self):
        """Lists, integral float ids, int32 ids and float32 scores were
        once converted; now each is refused, naming its field."""
        typed = {"query_ids": i64([0, 1]), "ids": i64([[1, 2], [3, 4]]),
                 "scores": f64([[0.5, 0.4], [0.3, 0.2]])}
        assert similarity.Ranking(**typed).k == 2
        for name, value in [
            ("query_ids", [0, 1]), ("ids", [[1, 2], [3, 4]]), ("scores", [[0.5, 0.4], [0.3, 0.2]]),
            ("query_ids", f64([0.0, 1.0])), ("ids", np.array([[1, 2], [3, 4]], np.int32)),
            ("scores", np.array([[0.5, 0.4], [0.3, 0.2]], np.float32)),
        ]:
            with pytest.raises(InvalidRanking, match=f"^{name} must be an np.ndarray of "):
                similarity.Ranking(**{**typed, name: value})
        empty = similarity.Ranking(i64([]), i64([]).reshape(0, 0), f64([]).reshape(0, 0))
        assert empty.ids.shape == (0, 0)
        with pytest.raises(InvalidRanking, match=NOT_INT64_QUERY_IDS):
            similarity.Ranking(np.empty(0), np.empty((0, 0)), np.empty((0, 0)))

    def test_query_ids_spanning_the_int64_range_ascend(self):
        # their difference, 2**64 - 1, does not fit in int64
        lo, hi = -(1 << 63), (1 << 63) - 1
        ranked = similarity.Ranking(i64([lo, hi]), i64([[1], [2]]), f64([[0.5], [0.4]]))
        assert ranked.query_ids.tolist() == [lo, hi]
        with pytest.raises(InvalidRanking, match=ASCENDING):
            similarity.Ranking(i64([hi, lo]), i64([[1], [2]]), f64([[0.5], [0.4]]))


SCORE_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(lambda x: f"{x:.9g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", "+0.5", "1e-3", "1E+2", "-2.5e-310", "inf", "-inf",
                     "Infinity", "nan", "NaN", "-nan", " 0.25", "0.125 ", "1_000.5"]),
)


class TestReadAgainstReference:
    """The columnar parser against the per-line one it replaced."""

    @settings(max_examples=examples(120), deadline=None)
    @given(
        qids=st.lists(st.integers(-3, 10**12), min_size=1, max_size=6, unique=True),
        k=st.integers(1, 5),
        source_rank=st.booleans(),
        data_=st.data(),
    )
    def test_valid_files(self, tmp_path_factory, qids, k, source_rank, data_):
        rows = {
            q: [(r, g, data_.draw(SCORE_TEXT))
                for r, g in enumerate(data_.draw(st.permutations(range(-2, 2 * k))), 1)][:k]
            for q in qids
        }
        # interleave the queries' rows, each query's ranks in order
        lines = []
        while any(rows.values()):
            q = data_.draw(st.sampled_from([q for q in qids if rows[q]]))
            r, g, score = rows[q].pop(0)
            line = f"{q}\t{r}\t{g}\t{score}" + (f"\t{data_.draw(st.integers(1, k))}"
                                                if source_rank else "")
            lines.append(line)
            if data_.draw(st.booleans()):
                lines.append(data_.draw(st.sampled_from(["", "# k=3", "   ", "#"])))
        path = tmp_path_factory.mktemp("read") / "ranked.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = similarity.read_ranked_lists(path)
        want = reference_read_ranked_lists(path)
        got = rows_of(got)
        assert [q for q, _ in got] == [q for q, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert [g for g, _ in a] == [g for g, _ in b]
            assert [float_bits(x) for _, x in a] == [float_bits(x) for _, x in b]

    @pytest.mark.parametrize("text", [
        "0\t1\t5\n",
        "0\t1\t5\t0.5\n1\t1\t6\n",
        "# k=1\n\nx\t1\t5\t0.5\n",
        "0\t1\t5\t0.5\n1\t1.0\t6\t0.5\n",
        "0\t1\t5\t0.5\n1\t1\tsix\tx\n",
        "0\t1\t5\t0.5\n1\t1\t6\tpoint five\n",
        "0\t1\t5\t0.5\n0\t3\t6\t0.5\n",
        "0\t1\t5\t0.5\n1\t1\t6\t0.5\n1\t1\t7\t0.5\n0\t2\t8\t0.5\n",
        "0\t2\t5\t0.5\t1\n",
    ])
    def test_same_errors(self, tmp_path, text):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as want:
            reference_read_ranked_lists(path)
        with pytest.raises(ParseError) as got:
            similarity.read_ranked_lists(path)
        assert str(got.value) == str(want.value)
        # again with the fast path off: the per-line parser reads the file alone
        with (mock.patch.object(similarity, "_load_columns", return_value=None),
              pytest.raises(ParseError) as alone):
            similarity.read_ranked_lists(path)
        assert str(alone.value) == str(want.value)

    @pytest.mark.parametrize("text, lineno", [
        ("0\t1\t5\t0.5\n0\t2\t6\t0.4\n1\t1\t7\t0.5\n", 3),
        ("0\t1\t5\t0.5\n1\t1\t7\t0.5\n1\t2\t8\t0.4\n", 3),
        ("1\t1\t7\t0.5\n0\t1\t5\t0.5\n# c\n0\t2\t6\t0.4\n1\t2\t8\t0.4\n"
         "1\t3\t9\t0.3\n", 4),
    ])
    def test_rejects_unequal_lengths(self, tmp_path, text, lineno):
        # the first line's query sets the length; a short list fails on its
        # last line, a long one on the line past that length
        path = tmp_path / "ragged.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f":{lineno}: .*same length"):
            similarity.read_ranked_lists(path)

    @pytest.mark.parametrize("text, lineno", [
        ("0\t1\t5\t0.5\n0\t2\t5\t0.4\n", 2),
        ("0\t1\t5\t0.5\t1\n1\t1\t6\t0.5\t1\n1\t2\t7\t0.4\t2\n"
         "0\t2\t8\t0.4\t2\n1\t3\t6\t0.3\t3\n0\t3\t5\t0.3\t3\n", 5),
    ])
    def test_rejects_repeated_gallery_id(self, tmp_path, text, lineno):
        path = tmp_path / "repeat.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f":{lineno}: .*repeats gallery id"):
            similarity.read_ranked_lists(path)

    def test_rejects_ids_outside_int64(self, tmp_path):
        path = tmp_path / "huge.tsv"
        path.write_text(f"0\t1\t5\t0.5\n1\t1\t{2 ** 63}\t0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2: .*int64"):
            similarity.read_ranked_lists(path)

    def test_mixed_field_counts(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("0\t1\t5\t0.5\t1\t9\n1\t1\t6\t0.25\n", encoding="utf-8")
        assert rows_of(similarity.read_ranked_lists(path)) == reference_read_ranked_lists(path)


FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
# id tokens that Python's int() rejects, or that int64 cannot hold
BAD_IDS = ["1.0", "nan", "", "1e3", str(1 << 63), str(-(1 << 63) - 1), "\ufeff5", "1 2"]
# tokens that numpy's C reader would take and the grammar rejects: a
# non-ASCII letter it reads as a digit value, '\x1f' as padding, an inline '#'
WIDER_IDS = ["\u01fe", "5\u01fe", "5\x1f", "\x1f5", "5#x"]
QUIRKY_SCORES = st.one_of(SCORE_TEXT, st.sampled_from([
    "1.0", "+5", "nan", str(1 << 63), "1_0", "\uff10.\uff15", "\u01fe", "", "1e", "\ufeff0.5",
]), st.sampled_from(["0.5\x1f", "\x1f0.5", "0.5#x"]))
# lines both parsers skip, or (the last two) reject
LOOSE_LINES = ["", "   ", "\t", " \t ", "#", "# k=3", "#\tx\ty", "\xa0", "\u3000 ", "0\t1\t5",
               "\ufeff# k=3"]
# comment text, mostly non-ASCII; the fast path reads a file whose every
# non-ASCII character lies on a '#' line
COMMENT_TEXT = st.one_of(
    st.sampled_from([" dataset=caf\u00e9", "\u01fe", " \U0001f600\t\u0661", "\xa0=\u3000"]),
    st.text(max_size=6),
)
# every line boundary of str.splitlines
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
             "\u2029"]


def id_tokens(v):
    """Spellings of v that Python's int() reads as v, and tokens it rejects."""
    s = str(v)
    same = [s, f" {s}", f"{s}  ", f"\xa0{s}", s.translate(FULL_WIDTH)]
    if v >= 0:
        same += [f"+{s}", f"0{s}"]
    if len(s.lstrip("-")) > 1:
        same.append(f"{s[:-1]}_{s[-1]}")
    return st.one_of(st.sampled_from(same), st.sampled_from(BAD_IDS), st.sampled_from(WIDER_IDS))


def read_outcome(read, path):
    """The lists read from path as rows with score bit patterns, or the
    ParseError's text."""
    try:
        lists = read(path)
    except ParseError as exc:
        return str(exc)
    rows = lists if isinstance(lists, list) else rows_of(lists)
    return [(q, [(g, float_bits(s)) for g, s in entries]) for q, entries in rows]


class TestReadFastPath:
    """numpy's C reader parses ranked-list files where it agrees with the
    per-line parser, which defines the grammar and every ParseError."""

    @settings(deadline=None)
    @given(
        qids=st.lists(st.integers(-3, 10**12), min_size=1, max_size=5, unique=True),
        k=st.integers(1, 4),
        source_rank=st.booleans(),
        data_=st.data(),
    )
    def test_quirky_files_read_as_the_reference_does(self, tmp_path_factory, qids, k,
                                                     source_rank, data_):
        draw = data_.draw
        # a valid file: each query's ranks in order, no gallery id twice
        pending = {q: [(q, r, g) for r, g in enumerate(draw(st.permutations(range(-2, 2 * k))), 1)]
                   [:k] for q in qids}
        rows = []
        while any(pending.values()):
            values = pending[draw(st.sampled_from([q for q in qids if pending[q]]))].pop(0)
            rows.append((values, [str(v) for v in values] + [draw(SCORE_TEXT)]
                         + ([str(draw(st.integers(1, k)))] if source_rank else [])))
        # quirks that keep every id's value or make a line unparseable
        for _ in range(draw(st.integers(0, 2))):
            values, fields = draw(st.sampled_from(rows))
            kind = draw(st.sampled_from(["id", "score", "extra-fields", "three-fields", "hash"]))
            if kind == "id":
                col = draw(st.integers(0, 2))
                fields[col] = draw(id_tokens(values[col]))
            elif kind == "score":
                fields[3:4] = [draw(QUIRKY_SCORES)]
            elif kind == "extra-fields":
                fields += ["x", "9"]
            elif kind == "three-fields":
                del fields[3:]
            else:
                fields[-1] += "#x"
        lines = ["\t".join(fields) for _, fields in rows]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(LOOSE_LINES)))
        for _ in range(draw(st.integers(0, 2))):
            # comment text of any characters, line boundaries included
            lines.insert(draw(st.integers(0, len(lines))), "#" + draw(COMMENT_TEXT))
        odd_ends = draw(st.booleans())
        text = "".join(line + (draw(st.sampled_from(LINE_ENDS)) if odd_ends else "\n")
                       for line in lines)
        if draw(st.integers(0, 3)) == 0:
            # a line boundary inside a line, or a byte-order mark
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(LINE_ENDS + ["\ufeff"])) + text[at:]
        path = tmp_path_factory.mktemp("quirks") / "ranked.tsv"
        path.write_bytes(text.encode("utf-8"))

        read = path.read_text(encoding="utf-8")
        event(f"fast path taken: {similarity._load_columns(read, read.splitlines()) is not None}")
        got = read_outcome(similarity.read_ranked_lists, path)
        assert got == read_outcome(reference_read_ranked_lists, path)
        with mock.patch.object(similarity, "_load_columns", return_value=None):
            assert read_outcome(similarity.read_ranked_lists, path) == got

    @pytest.mark.parametrize("text, fast", [
        ("# k=2\n0\t1\t5\t0.5\n\n0\t2\t6\t0.25\t2\n", True),
        ("# name=caf\u00e9\n0\t1\t5\t0.5\n", True),
        ("0\t1\t5\t0.5\n#\u01fe\t\u0661\n", True),
        ("0\t1\t5\t0.5\t\u00e9\n", False),
        ("#c\r0\t1\t\u01fe\t0.5\n", False),
        ("0\t1\t5\t0.5\x1f\n", False),
        ("0\t1\t\x1f5\t0.5\n", False),
        ("0\t1\t\u01fe\t0.5\n", False),
        ("0\t1\t5\t0.5\t1#x\n", False),
        ("0\t1\t5\t0.5\n   \n", False),
        ("# k=2\n", False),
    ], ids=["clean", "non-ascii-comment", "non-ascii-last-comment", "non-ascii-extra-field",
            "non-ascii-after-a-carriage-return", "unit-separator-after-score",
            "unit-separator-before-id", "non-ascii-letter-id", "inline-hash-in-extra-field",
            "whitespace-only-line", "no-body"])
    def test_fast_path_runs_where_the_grammars_agree(self, tmp_path, text, fast):
        path = tmp_path / "ranked.tsv"
        path.write_text(text, encoding="utf-8")
        # a warning counts as a rejection, whatever the caller's filters
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert (similarity._load_columns(text, text.splitlines()) is not None) == fast
        assert read_outcome(similarity.read_ranked_lists, path) == read_outcome(
            reference_read_ranked_lists, path)

    def test_read_peak_memory(self, tmp_path):
        n, k = 10_000, 10
        rng = np.random.default_rng(20)
        # float32 values, as a search writes them
        scores = rng.random((n, k)).astype(np.float32).astype(np.float64)
        ranked = similarity.Ranking(np.arange(n), np.tile(np.arange(k), (n, 1)), scores)
        path = tmp_path / "ranked.tsv"
        similarity.write_ranked_lists(path, ranked, meta={"k": k})
        tracemalloc.start()
        try:
            back = similarity.read_ranked_lists(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.ids, ranked.ids)
        # 9 significant digits round-trip float32 exactly
        assert np.array_equal(back.scores.astype(np.float32), ranked.scores)
        # numpy's reader peaks near 200 bytes per line (the text, its lines and
        # the parsed table); Python's int and float per field take over 400
        assert peak < 250 * n * k


class TestRankedListIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        sims = rng.random((5, 7)).astype(np.float32)
        lists = similarity.top_k(sims, 7)
        path = tmp_path / "ranked.tsv"
        similarity.write_ranked_lists(path, lists, meta={"seed": 8})
        back = similarity.read_ranked_lists(path)
        assert len(back) == len(lists)
        for (qa, a), (qb, b) in zip(rows_of(lists), rows_of(back)):
            assert qa == qb
            assert [g for g, _ in a] == [g for g, _ in b]
            # 9 significant digits round-trip float32 exactly
            for (_, sa), (_, sb) in zip(a, b):
                assert np.float32(sa) == np.float32(sb)

    @settings(deadline=None)
    @given(key=st.text(max_size=4), value=st.text(max_size=12))
    @example(key="dataset", value="x\n7\t1\t9\t0.9")  # would add a query 7
    def test_meta_text_raises_or_reads_back(self, tmp_path_factory, key, value):
        """A meta line cannot inject lines: text holding a line break, as
        str.splitlines finds one, raises before the file is opened; any other
        text reads back as the same ranking."""
        lists = ranking([(0, [(4, 0.5), (6, 0.25)]), (3, [(6, 0.75), (1, 0.125)])])
        path = tmp_path_factory.mktemp("meta") / "ranked.tsv"
        line = f"# {key}={value}"
        if any(end in line for end in LINE_ENDS):
            with pytest.raises(InvalidConfig, match="holds a line break$"):
                similarity.write_ranked_lists(path, lists, meta={key: value})
            assert not path.exists()
            return
        similarity.write_ranked_lists(path, lists, meta={key: value})
        back = similarity.read_ranked_lists(path)
        assert rows_of(back) == rows_of(lists)
        assert path.read_text(encoding="utf-8").splitlines()[0] == line

    def test_write_is_deterministic(self, tmp_path):
        sims = np.random.default_rng(10).random((3, 4)).astype(np.float32)
        lists = similarity.top_k(sims, 4)
        similarity.write_ranked_lists(tmp_path / "a.tsv", lists, meta={"k": 4})
        similarity.write_ranked_lists(tmp_path / "b.tsv", lists, meta={"k": 4})
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
