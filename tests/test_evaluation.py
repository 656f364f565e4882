import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embsearch import data, evaluation, resolver, similarity
from embsearch.cli import run
from embsearch.errors import (
    EmptyList, InvalidConfig, KExceedsDepth, MismatchedRuns, MissingGroundTruth, ParseError,
)
from conftest import examples
from rankings import ranking


def lists_with_hit_ranks(ranks, depth=10):
    """Build ranked lists where query i finds its target at ranks[i]."""
    out = []
    for qid, hit in enumerate(ranks):
        entries = []
        decoys = iter(range(100, 200))
        for r in range(1, depth + 1):
            gid = qid if r == hit else next(decoys)
            entries.append((gid, 1.0 - r * 0.05))
        out.append((qid, entries))
    return ranking(out)


class TestRecallAtK:
    def test_hand_counted_ranks(self):
        lists = lists_with_hit_ranks([1, 3, 7, 2])
        gt = np.arange(4)
        report = evaluation.recall_at_k(lists, gt, [1, 5, 10])
        assert report.recall == {1: 0.25, 5: 0.75, 10: 1.0}

    def test_full_depth_is_one(self):
        sims = np.random.default_rng(0).random((6, 6)).astype(np.float32)
        lists = similarity.top_k(sims, 6)
        report = evaluation.recall_at_k(lists, np.arange(6), [6])
        assert report.recall[6] == 1.0

    def test_zero_noise_dataset(self, make_dataset):
        manifest = make_dataset(data.SynthConfig(10, 8, 0.0, 0.0, 0.5, seed=2))
        q = data.l2_normalize(data.load_embeddings(manifest, "query"))
        g = data.l2_normalize(data.load_embeddings(manifest, "gallery"))
        lists = similarity.top_k(similarity.similarity_matrix(q, g), 5)
        report = evaluation.recall_at_k(lists, manifest.ground_truth, [1])
        assert report.recall[1] == 1.0

    def test_missing_ground_truth(self):
        lists = lists_with_hit_ranks([1, 2])
        with pytest.raises(MissingGroundTruth, match="query 1 has no ground-truth entry"):
            evaluation.recall_at_k(lists, np.arange(1), [1])
        negative = ranking([(-1, [(0, 0.5)]), (0, [(0, 0.5)])])
        with pytest.raises(MissingGroundTruth, match="query -1 has no ground-truth entry"):
            evaluation.recall_at_k(negative, np.arange(2), [1])

    def test_ground_truth_query_without_list(self):
        # a partial ranked file must not report the recall of its queries alone
        lists = lists_with_hit_ranks([1, 1])
        with pytest.raises(EmptyList, match="query 2 has ground truth but no ranked list"):
            evaluation.recall_at_k(lists, np.arange(4), [1])
        gap = ranking([(0, [(0, 0.5)]), (2, [(2, 0.5)])])
        with pytest.raises(EmptyList, match="query 1 has ground truth but no ranked list"):
            evaluation.recall_at_k(gap, np.arange(3), [1])

    def test_k_exceeds_depth(self):
        lists = lists_with_hit_ranks([1], depth=3)
        with pytest.raises(KExceedsDepth):
            evaluation.recall_at_k(lists, np.arange(1), [4])

    @settings(max_examples=examples(40), deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
    def test_non_decreasing_in_k(self, seed, n):
        sims = np.random.default_rng(seed).random((n, n)).astype(np.float32)
        lists = similarity.top_k(sims, n)
        report = evaluation.recall_at_k(
            lists, np.arange(n), list(range(1, n + 1))
        )
        values = [report.recall[k] for k in report.k_values]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @settings(max_examples=examples(30), deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_similarity_matrix_rescan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, g_count, k = 8, 15, 10
        sims = np.round(rng.random((n, g_count)), 2).astype(np.float32)
        gt = np.array([int(rng.integers(g_count)) for i in range(n)])
        lists = similarity.top_k(sims, k)
        report = evaluation.recall_at_k(lists, gt, [1, 5, k])
        for k_val in report.k_values:
            hits = 0
            for qid in range(n):
                row = sims[qid]
                target = gt[qid]
                # rank of target under (-score, id) ordering, recomputed raw
                better = sum(
                    1
                    for g_ in range(g_count)
                    if (-row[g_], g_) < (-row[target], target)
                )
                if better < k_val:
                    hits += 1
            assert report.recall[k_val] == hits / n

    def test_resolution_recall_uses_reordered_lists(self):
        lists = ranking([
            (0, [(1, 0.9), (2, 0.5), (3, 0.3)]),
            (1, [(1, 0.7), (4, 0.6), (5, 0.2)]),
        ])
        res = resolver.resolve(lists)
        reordered, _ = resolver.resolution_to_lists(lists, res)
        report = evaluation.recall_at_k(reordered, np.array([1, 4]), [1])
        assert report.recall[1] == 1.0


class TestCompareReports:
    def make_report(self, recall, dataset="bench"):
        return evaluation.EvalReport(
            dataset=dataset,
            k_values=sorted(recall),
            recall=recall,
            n_queries=100,
        )

    def test_published_style_delta(self):
        before = self.make_report({1: 0.7786})
        after = self.make_report({1: 0.8054})
        delta = evaluation.compare_reports(before, after)
        assert delta.delta[1] == pytest.approx(0.0268, abs=1e-12)
        assert delta.regressions == []

    def test_identical_reports_zero_delta(self):
        r = self.make_report({1: 0.5, 5: 0.9})
        delta = evaluation.compare_reports(r, r)
        assert all(v == 0.0 for v in delta.delta.values())

    def test_regression_flagged(self):
        delta = evaluation.compare_reports(
            self.make_report({1: 0.6, 5: 0.9}), self.make_report({1: 0.5, 5: 0.95})
        )
        assert delta.regressions == [1]

    def test_mismatched_runs(self):
        with pytest.raises(MismatchedRuns):
            evaluation.compare_reports(
                self.make_report({1: 0.5}), self.make_report({5: 0.5})
            )
        with pytest.raises(MismatchedRuns):
            evaluation.compare_reports(
                self.make_report({1: 0.5}), self.make_report({1: 0.5}, dataset="other")
            )

    def test_delta_table_renders_percent(self):
        delta = evaluation.compare_reports(
            self.make_report({1: 0.7786}), self.make_report({1: 0.8054})
        )
        table = evaluation.render_delta_table(delta)
        assert "77.86" in table and "80.54" in table and "+2.68" in table


class TestReportIO:
    def test_round_trip(self, tmp_path):
        report = evaluation.EvalReport(
            dataset="bench",
            k_values=[1, 5],
            recall={1: 0.25, 5: 0.75},
            n_queries=4,
            config={"seed": "7", "temperature": "1.0"},
        )
        path = tmp_path / "report.txt"
        evaluation.write_report(path, report)
        back = evaluation.read_report(path)
        assert back.dataset == report.dataset
        assert back.k_values == report.k_values
        assert back.recall == report.recall
        assert back.n_queries == report.n_queries
        assert back.config == report.config
        assert back == report

    @pytest.mark.parametrize("recall", ["nan", "inf", "-0.25", "1.5"])
    def test_recall_outside_unit_interval_is_rejected(self, tmp_path, recall):
        path = tmp_path / "r.txt"
        evaluation.write_report(path, evaluation.EvalReport("d", [1, 5], {1: 0.0, 5: 1.0}, 2))
        path.write_text(path.read_text().replace("recall@5: 1", f"recall@5: {recall}"))
        with pytest.raises(ParseError, match=rf"recall@5 must be in \[0, 1\], got {recall}"):
            evaluation.read_report(path)

    @pytest.mark.parametrize("line", ["recall@1: 1", "dataset: e", "config.source: s.tsv",
                                      "k_values: 1"])
    def test_key_given_twice_is_rejected(self, tmp_path, line):
        # a hand-edited or concatenated report; its last line used to win
        path = tmp_path / "r.txt"
        report = evaluation.EvalReport("d", [1], {1: 0.46875}, 32, config={"source": "r.tsv"})
        evaluation.write_report(path, report)
        path.write_text(path.read_text() + line + "\n")  # line 7
        key = line.split(": ")[0]
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:7: {key} given twice$"):
            evaluation.read_report(path)

    @pytest.mark.parametrize("k_values, twice", [("1,1", 1), ("1,5,1", 1), ("5,1,5", 5)])
    def test_cutoff_given_twice_is_rejected(self, tmp_path, k_values, twice):
        path = tmp_path / "r.txt"
        evaluation.write_report(path, evaluation.EvalReport("d", [1, 5], {1: 0.25, 5: 0.5}, 4))
        path.write_text(path.read_text().replace("k_values: 1,5", f"k_values: {k_values}"))
        message = f"^{re.escape(str(path))}:3: k_values gives {twice} twice$"
        with pytest.raises(ParseError, match=message):
            evaluation.read_report(path)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_is_rejected(self, tmp_path, capsys, k):
        """Such a report, with its recall@ line, read back, and `embsearch
        report` printed a row for it and exited 0; recall_at_k refuses the
        cutoff, and write_report never writes it."""
        path = tmp_path / "r.txt"
        evaluation.write_report(path, evaluation.EvalReport("d", [1, 5], {1: 0.25, 5: 0.5}, 4))
        text = path.read_text().replace("k_values: 1,5", f"k_values: 5,{k}")
        path.write_text(text.replace("recall@1:", f"recall@{k}:"))
        message = f"{path}:3: k_values gives {k}, below 1"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            evaluation.read_report(path)
        assert run(["report", str(path), str(path)]) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")

    @pytest.mark.parametrize("n_queries", [0, -4])
    def test_query_count_below_one_is_rejected(self, tmp_path, capsys, n_queries):
        """Such a report read back, and `embsearch report` printed its table and
        exited 0; recall_at_k refuses an empty ranking, and write_report never
        writes such a count."""
        path = tmp_path / "r.txt"
        evaluation.write_report(path, evaluation.EvalReport("d", [1, 5], {1: 0.25, 5: 0.5}, 4))
        path.write_text(path.read_text().replace("n_queries: 4", f"n_queries: {n_queries}"))
        message = f"{path}:2: n_queries is {n_queries}, below 1"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            evaluation.read_report(path)
        assert run(["report", str(path), str(path)]) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")

    def test_line_without_a_separator_is_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("dataset: d\nn_queries 4\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: expected 'key: value'$"):
            evaluation.read_report(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.txt"
        report = evaluation.EvalReport("d", [1, 5], {1: 0.25, 5: 0.5}, 4, config={"source": "r"})
        evaluation.write_report(path, report)
        path.write_text("\n" + path.read_text().replace("\n", "\n \n\t\n"))
        assert evaluation.read_report(path) == report

    @pytest.mark.parametrize("field", ["dataset", "config"])
    def test_line_break_in_a_value_is_refused(self, tmp_path, field):
        # `embsearch eval` copies the ranked file's name into config.source,
        # and a line break there would add a line of its own
        text = "r\nrecall@1: 1"
        report = evaluation.EvalReport("d", [1], {1: 0.25}, 4, config={"source": "r.tsv"})
        if field == "dataset":
            report.dataset = text
        else:
            report.config["source"] = text
        with pytest.raises(InvalidConfig, match="^report line .* holds a line break$"):
            evaluation.write_report(tmp_path / "r.txt", report)
        assert not (tmp_path / "r.txt").exists()

    def test_fixed_field_order(self, tmp_path):
        report = evaluation.EvalReport("d", [1], {1: 1.0}, 2, config={"b": 1, "a": 2})
        evaluation.write_report(tmp_path / "r.txt", report)
        evaluation.write_report(tmp_path / "r2.txt", report)
        assert (tmp_path / "r.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        lines = (tmp_path / "r.txt").read_text().splitlines()
        assert lines[0].startswith("dataset:")
        assert lines.index("config.a: 2") < lines.index("config.b: 1")
