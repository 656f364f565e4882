import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import shlex
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embsearch
from embsearch import data, evaluation, objective, resolver, similarity
from embsearch.cli import run
from embsearch.errors import InvalidConfig


GOOD_REPORT = (
    b"dataset: d\nn_queries: 2\nk_values: 1,5\nrecall@1: 0.5\nrecall@5: 1\ntimestamp: -\n"
)
REPO = Path(__file__).resolve().parents[1]


def identity_adapter(dim, temperature, dtype_flag=1):
    """Bytes of a float64 identity adapter file with the given temperature;
    dtype_flag is written as the header's flag whatever the payload."""
    eye = [float(i == j) for i in range(dim) for j in range(dim)]
    return b"ADAP" + struct.pack(
        f"<III{2 * dim * dim + 3}d", 1, dim, dtype_flag, *eye, *eye, 10.0, 0.0, temperature
    )


def run_cli(*argv):
    return run([str(a) for a in argv])


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        "gen-synth", "--out", out, "--seed", 7, "--n", 32, "--dim", 16,
        "--sigma", 0.3, "--confusable-fraction", 0.5, "--confusable-gap", 0.05,
        "--heldout",
    )
    assert code == 0
    return out


class TestPipeline:
    def test_end_to_end_search_eval(self, dataset_dir, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        report = tmp_path / "report.txt"
        assert run_cli("search", dataset_dir / "manifest.json", "--k", 10, "--out", ranked) == 0
        assert run_cli(
            "eval", ranked, "--manifest", dataset_dir / "manifest.json",
            "--ks", "1,5,10", "--out", report,
        ) == 0
        out = capsys.readouterr().out
        assert out.count("recall@") == 3
        parsed = evaluation.read_report(report)
        assert parsed.k_values == [1, 5, 10]
        values = [parsed.recall[k] for k in parsed.k_values]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_validate_clean_dataset(self, dataset_dir):
        assert run_cli("validate", dataset_dir / "manifest.json") == 0

    def test_resolve_and_report_flow(self, dataset_dir, tmp_path):
        ranked = tmp_path / "ranked.tsv"
        resolved = tmp_path / "resolved.tsv"
        audit = tmp_path / "audit.tsv"
        before = tmp_path / "before.txt"
        after = tmp_path / "after.txt"
        manifest = dataset_dir / "manifest.json"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0
        assert run_cli("resolve", ranked, "--out", resolved, "--audit", audit) == 0
        assert run_cli("eval", ranked, "--manifest", manifest, "--out", before) == 0
        assert run_cli("eval", resolved, "--manifest", manifest, "--out", after) == 0
        assert run_cli("report", before, after) == 0
        assert audit.is_file()

    def test_train_adapter_then_search(self, dataset_dir, tmp_path):
        manifest = dataset_dir / "manifest.json"
        adapter = tmp_path / "model.adapter"
        trace = tmp_path / "trace.tsv"
        assert run_cli(
            "train-adapter", manifest, "--out", adapter, "--trace", trace,
            "--epochs", 3, "--batch-size", 8, "--seed", 7,
        ) == 0
        ranked = tmp_path / "ranked_adapter.tsv"
        assert run_cli(
            "search", manifest, "--k", 5, "--adapter", adapter, "--out", ranked
        ) == 0
        assert "adapter=" in ranked.read_text()
        assert len([l for l in trace.read_text().splitlines() if not l.startswith("#")]) == 4

    def test_resolve_collision_free_input(self, tmp_path):
        ranked = tmp_path / "clean.tsv"
        ranked.write_text(
            "0\t1\t10\t0.9\n0\t2\t11\t0.5\n1\t1\t12\t0.8\n1\t2\t13\t0.4\n"
        )
        resolved = tmp_path / "resolved.tsv"
        audit = tmp_path / "audit.tsv"
        assert run_cli("resolve", ranked, "--out", resolved, "--audit", audit) == 0
        body = [
            l.split("\t")[:4]
            for l in resolved.read_text().splitlines()
            if not l.startswith("#")
        ]
        original = [l.split("\t") for l in ranked.read_text().splitlines()]
        assert body == original
        assert all(l.startswith("#") or not l for l in audit.read_text().splitlines())


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        outputs = []
        for sub in ("run1", "run2"):
            base = tmp_path / sub
            ds = base / "ds"
            run_cli("gen-synth", "--out", ds, "--seed", 13, "--n", 24, "--dim", 8)
            run_cli("search", ds / "manifest.json", "--k", 8, "--out", base / "ranked.tsv")
            run_cli("resolve", base / "ranked.tsv", "--out", base / "resolved.tsv",
                    "--audit", base / "audit.tsv")
            run_cli("eval", base / "resolved.tsv", "--manifest", ds / "manifest.json",
                    "--ks", "1,5", "--out", base / "report.txt")
            outputs.append(base)
        for fname in ("ranked.tsv", "resolved.tsv", "audit.tsv", "report.txt"):
            a = (outputs[0] / fname).read_bytes()
            b = (outputs[1] / fname).read_bytes()
            assert a == b, fname


def meta_lines(path: Path) -> dict[str, str]:
    """The `# key=value` lines at the head of a pipeline output file."""
    lines = [l[2:] for l in path.read_text().splitlines() if l.startswith("# ")]
    return dict(line.split("=", 1) for line in lines)


class TestConfigFlags:
    """Flags left out take the config dataclasses' defaults; each flag sets its field."""

    SYNTH_FLAGS = [("--n", "n_identities", 12), ("--dim", "dim", 8),
                   ("--sigma", "noise_sigma", 0.1),
                   ("--confusable-fraction", "confusable_fraction", 1.0),
                   ("--confusable-gap", "confusable_gap", 0.3)]

    def test_gen_synth_defaults_are_synth_config_defaults(self, tmp_path):
        assert run_cli("gen-synth", "--out", tmp_path / "cli", "--seed", 3) == 0
        data.generate_synthetic(data.SynthConfig(seed=3), tmp_path / "lib")
        assert files_under(tmp_path / "cli") == files_under(tmp_path / "lib")

    @pytest.mark.parametrize("flag, field, value", SYNTH_FLAGS, ids=[f[1] for f in SYNTH_FLAGS])
    def test_gen_synth_flag_sets_its_field(self, tmp_path, flag, field, value):
        assert run_cli("gen-synth", "--out", tmp_path / "cli", "--seed", 3, flag, value) == 0
        data.generate_synthetic(data.SynthConfig(seed=3, **{field: value}), tmp_path / "lib")
        data.generate_synthetic(data.SynthConfig(seed=3), tmp_path / "default")
        assert files_under(tmp_path / "cli") == files_under(tmp_path / "lib")
        assert files_under(tmp_path / "cli") != files_under(tmp_path / "default")

    TRAIN_VALUES = {"epochs": 2, "batch_size": 8, "step_size": 1e-4, "weight_decay": 0.5,
                    "lambda_match": 0.25, "temperature": 0.5, "seed": 3}

    def test_every_train_config_field_is_checked(self):
        fields = [f.name for f in dataclasses.fields(objective.TrainConfig)]
        assert list(self.TRAIN_VALUES) == fields

    @pytest.mark.parametrize("field, value", TRAIN_VALUES.items())
    def test_train_adapter_flag_reaches_trace_metadata(self, dataset_dir, tmp_path, field, value):
        trace = tmp_path / "trace.tsv"
        assert run_cli(
            "train-adapter", dataset_dir / "manifest.json", "--out", tmp_path / "model.adapter",
            "--trace", trace, "--" + field.replace("_", "-"), value,
        ) == 0
        expected = {**dataclasses.asdict(objective.TrainConfig()), field: value}
        assert meta_lines(trace) == {"dataset": "synthetic",
                                     **{k: str(v) for k, v in expected.items()}}

    @pytest.mark.parametrize("flags, meta", [
        ((), {"depth": "1", "max_rounds": "auto", "gate": "off"}),
        (("--depth", 2, "--max-rounds", 3), {"depth": "2", "max_rounds": "3", "gate": "off"}),
        (("--gate", 0.5), {"depth": "1", "max_rounds": "auto", "gate": "0.5"}),
    ], ids=["defaults", "depth-and-cap", "gate"])
    def test_resolve_policy_metadata(self, dataset_dir, tmp_path, flags, meta):
        manifest = dataset_dir / "manifest.json"
        ranked, resolved = tmp_path / "ranked.tsv", tmp_path / "resolved.tsv"
        assert run_cli("search", manifest, "--k", 5, "--out", ranked) == 0
        assert run_cli("resolve", ranked, "--out", resolved, "--manifest", manifest, *flags) == 0
        assert {**meta, "source": "ranked.tsv"}.items() <= meta_lines(resolved).items()


class TestNonFiniteConfig:
    """A NaN or infinite float field is an InvalidConfig naming it; NaN used
    to pass every bound, since a comparison with NaN is False."""

    FLOAT_FIELDS = [
        (cls, f.name) for cls in (data.SynthConfig, objective.TrainConfig,
                                  resolver.ResolutionPolicy)
        for f in dataclasses.fields(cls) if f.type in ("float", "float | None")
    ]

    def test_every_float_field_is_listed(self):
        assert [field for _, field in self.FLOAT_FIELDS] == [
            "noise_sigma", "confusable_fraction", "confusable_gap", "step_size",
            "weight_decay", "lambda_match", "temperature", "similarity_gate"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=[f for _, f in FLOAT_FIELDS])
    def test_validate_rejects(self, cls, field, value):
        with pytest.raises(InvalidConfig, match=f"^{field} must be finite, got {value}$"):
            cls(**{field: value, **({"seed": 0} if cls is data.SynthConfig else {})})

    FLAGS = [("gen-synth", "--sigma", "noise_sigma"),
             ("gen-synth", "--confusable-fraction", "confusable_fraction"),
             ("gen-synth", "--confusable-gap", "confusable_gap"),
             ("train-adapter", "--step-size", "step_size"),
             ("train-adapter", "--weight-decay", "weight_decay"),
             ("train-adapter", "--lambda-match", "lambda_match"),
             ("train-adapter", "--temperature", "temperature"),
             ("resolve", "--gate", "similarity_gate")]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag, field", FLAGS, ids=[f[1] for f in FLAGS])
    def test_flag_is_data_error_before_any_output(self, dataset_dir, tmp_path, capsys,
                                                 command, flag, field, value):
        manifest, ranked, out = dataset_dir / "manifest.json", tmp_path / "r.tsv", tmp_path / "out"
        ranked.write_text("0\t1\t0\t0.5\n")
        argv = {"gen-synth": ["gen-synth", "--out", out, "--seed", 1],
                "train-adapter": ["train-adapter", manifest, "--out", out],
                "resolve": ["resolve", ranked, "--out", out, "--manifest", manifest]}[command]
        assert run_cli(*argv, f"{flag}={value}") == 2  # "-inf" alone reads as a flag
        error = f"{field} must be finite, got {float(value)}"
        assert capsys.readouterr().err == f"data error: {error}\n"
        assert not out.exists()


def readme_dataset(root: Path) -> Path:
    """The README's data set, written under root; returns its directory."""
    ds = root / "ds"
    gen_synth = readme_commands()[0]
    gen_synth[gen_synth.index("--out") + 1] = str(ds)
    assert run(gen_synth) == 0
    return ds


def run_strict(*argv):
    """An `embsearch` process with warnings as errors, as a CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "embsearch.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestConfigRules:
    """A flag that breaks a config rule is a data error before any output."""

    @pytest.mark.parametrize("temperature, error", [
        ("1e-310", "temperature must keep 2 / temperature finite, got 1e-310"),
        ("1.2e-308", "contrastive loss is non-finite"),
    ])
    def test_tiny_temperature_is_one_data_error_line(self, tmp_path, temperature, error):
        """Run with warnings as errors on the README's dataset: 1e-310 used to
        overflow scores / tau and blame a probability row, 1.2e-308 to
        overflow the loss sum."""
        ds, out, trace = readme_dataset(tmp_path), tmp_path / "model.adapter", tmp_path / "trace.tsv"
        done = run_strict("train-adapter", ds / "manifest.json", "--out", out, "--trace", trace,
                          "--temperature", temperature)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"data error: {error}\n")
        assert not out.exists() and not trace.exists()

    HUGE = "9" * 30  # past numpy's largest array dimension
    SIZE_RULE = "n_identities * dim must fit one float64 array"

    @pytest.mark.parametrize("command, flags, error", [
        # numpy's generators ended these in a ValueError traceback with exit 1
        ("gen-synth", ("--seed=-1",), "seed must be >= 0"),
        ("train-adapter", ("--seed=-1",), "seed must be >= 0"),
        ("gen-synth", ("--seed", 1, "--n", HUGE), SIZE_RULE),
        ("gen-synth", ("--seed", 1, "--dim", HUGE), SIZE_RULE),
        ("gen-synth", ("--seed", 1, "--n", 2**32, "--dim", 2**32), SIZE_RULE),
        # a negative weight trained toward a higher match loss under a falling total
        ("train-adapter", ("--lambda-match=-1", "--epochs", 3, "--seed", 7),
         "lambda_match must be nonnegative"),
    ], ids=["synth-seed", "train-seed", "huge-n", "huge-dim", "huge-product", "lambda-match"])
    def test_config_rule_is_one_data_error_line(self, dataset_dir, tmp_path, capsys,
                                                command, flags, error):
        out, trace = tmp_path / "out", tmp_path / "trace.tsv"
        argv = {"gen-synth": ["gen-synth", "--out", out],
                "train-adapter": ["train-adapter", dataset_dir / "manifest.json", "--out", out,
                                  "--trace", trace]}[command]
        capsys.readouterr()
        assert run_cli(*argv, *flags) == 2
        assert capsys.readouterr() == ("", f"data error: {error}\n")
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("flags, error", [
        (("--depth", 0), "depth must be >= 1"),
        (("--max-rounds", 0), "max_rounds must be >= 1"),
        (("--depth", 11), "depth must be in [1, 10]"),
    ], ids=["depth-0", "max-rounds-0", "depth-past-k"])
    def test_resolve_policy_rule(self, dataset_dir, tmp_path, capsys, flags, error):
        ranked, out = tmp_path / "ranked.tsv", tmp_path / "resolved.tsv"
        assert run_cli("search", dataset_dir / "manifest.json", "--k", 10, "--out", ranked) == 0
        capsys.readouterr()
        assert run_cli("resolve", ranked, "--out", out, *flags) == 2
        assert capsys.readouterr().err == f"data error: {error}\n"
        assert not out.exists()


class TestOverflow:
    """Overflowing values and diverging training, run with warnings as errors:
    each command exits 0, or 2 with one `data error:` line and no output. An
    adapter's or a config's fault is never blamed on a data row."""

    def test_huge_sigma_synthesizes(self, tmp_path):
        # squares of 1e200 overflow: the norm used to be inf, leaving gallery.f32 alone
        done = run_strict("gen-synth", "--out", tmp_path / "gs", "--seed", 1, "--sigma", "1e200")
        assert (done.returncode, done.stderr) == (0, "")
        manifest = data.load_manifest(tmp_path / "gs" / "manifest.json")
        data.EmbeddingMatrix(data.load_embeddings(manifest, "query"))

    def test_overflowing_sigma_is_one_data_error(self, tmp_path):
        """Noise of 1e308 overflows to inf: numpy's overflow warning was a
        traceback under -W error, and without it the data error left gallery.f32."""
        done = run_strict("gen-synth", "--out", tmp_path / "gs", "--seed", 7, "--n", 8,
                          "--dim", 4, "--sigma", "1e308")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "data error: row 0 has a non-finite norm\n")
        assert not (tmp_path / "gs").exists()

    def test_huge_adapter_searches(self, tmp_path):
        ds, huge = readme_dataset(tmp_path), tmp_path / "huge.adapter"
        objective.save_adapter(huge, objective.AdapterParams(1e200 * np.eye(32), np.eye(32)))
        done = run_strict("search", ds / "manifest.json", "--k", 10, "--adapter", huge,
                          "--out", tmp_path / "adapted.tsv")
        assert (done.returncode, done.stderr) == (0, "")
        assert run_cli("search", ds / "manifest.json", "--k", 10, "--out", tmp_path / "plain.tsv") == 0
        # a scaled identity leaves every unit row where it was
        adapted, plain = (similarity.read_ranked_lists(tmp_path / name)
                          for name in ("adapted.tsv", "plain.tsv"))
        np.testing.assert_array_equal(adapted.ids, plain.ids)

    RULE = "step_size * weight_decay must be < 1"

    @pytest.mark.parametrize("flags, error", [
        (("--temperature", "1e-306", "--epochs", 2, "--seed", 7), None),
        # lr * weight_decay = 1 used to zero the weights and blame row 0's norm
        (("--step-size", "1e2"), RULE),
        (("--step-size", "1e5"), RULE),
        (("--step-size", "1e10"), RULE),
        (("--step-size", "1e300"), RULE),
        (("--weight-decay", "1e300"), RULE),
        # lambda_match * match stays finite when the step size offsets it
        (("--lambda-match", "1e300", "--step-size", "1e-300"), None),
        # the match head's exp overflows, and its p is 0 as before
        (("--step-size", "1e5", "--weight-decay", 0, "--epochs", 2), None),
        (("--step-size", "1e10", "--weight-decay", 0, "--temperature", "1e-306", "--epochs", 2),
         "w_text contains non-finite entries"),
        (("--step-size", "1e10", "--weight-decay", 0, "--lambda-match", "1e300", "--epochs", 2),
         "match_scale must be finite, got -inf"),
        (("--step-size", "1e3", "--weight-decay", 0, "--lambda-match", "1e305", "--epochs", 2),
         "match loss is non-finite"),
        # entry 1's match loss is about 2e294, so its total overflows: it used to exit 0
        (("--lambda-match", "1e300", "--epochs", 2, "--seed", 7),
         "trace entry 1 has a non-finite total loss"),
    ])
    def test_training_ends_in_one_outcome(self, tmp_path, flags, error):
        ds, out, trace = readme_dataset(tmp_path), tmp_path / "model.adapter", tmp_path / "trace.tsv"
        done = run_strict("train-adapter", ds / "manifest.json", "--out", out, "--trace", trace,
                          *flags)
        if error is None:
            assert (done.returncode, done.stderr) == (0, "")
            objective.load_adapter(out)
        else:
            assert (done.returncode, done.stdout, done.stderr) == (2, "", f"data error: {error}\n")
            assert not out.exists() and not trace.exists()

    def test_resolve_overflowing_score_difference(self, tmp_path):
        ranked, audit = tmp_path / "ranked.tsv", tmp_path / "audit.tsv"
        ranked.write_text("0\t1\t5\t1.7e308\n0\t2\t6\t0.1\n1\t1\t5\t-1.7e308\n1\t2\t7\t0.1\n")
        done = run_strict("resolve", ranked, "--out", tmp_path / "resolved.tsv", "--audit", audit)
        assert (done.returncode, done.stderr) == (0, "")
        assert audit.read_text().splitlines()[-1] == "1\t5\t0\t1\tinf"


VALIDATE_PASSES = ["PASS  manifest", "PASS  query", "PASS  gallery",
                   "PASS  ground_truth_one_to_one"]


def _nan_gallery(ds: Path) -> tuple[int, list[str]]:
    gallery = ds / "gallery.f32"
    values = np.fromfile(gallery, dtype="<f4")
    values[5 * 32 + 3] = np.nan  # in row 5 of the 32-dim rows
    values.tofile(gallery)
    detail = f"{gallery.resolve()}: non-finite value in row 5"
    return 2, [*VALIDATE_PASSES[:2], f"FAIL  gallery  ({detail})", VALIDATE_PASSES[3]]


def _non_unit_queries(ds: Path) -> tuple[int, list[str]]:
    queries = ds / "queries.f32"
    rows = np.fromfile(queries, dtype="<f4").reshape(64, 32)
    rows[2] = 2 * np.eye(32)[0]
    rows.tofile(queries)
    return 0, [*VALIDATE_PASSES,
               "WARN  query rows are not unit-normalized: row 2 has norm 2, not 1 within 1e-05"]


def _non_unit_rows_in_both(ds: Path) -> tuple[int, list[str]]:
    code, lines = _non_unit_queries(ds)
    gallery = ds / "gallery.f32"
    rows = np.fromfile(gallery, dtype="<f4").reshape(64, 32)
    rows[0] = 3 * np.eye(32)[1]
    rows.tofile(gallery)
    return code, [*lines,
                  "WARN  gallery rows are not unit-normalized: row 0 has norm 3, not 1 within 1e-05"]


def _duplicate_ground_truth(ds: Path) -> tuple[int, list[str]]:
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["ground_truth"][0] = [0, 1]  # query 1's gallery row
    manifest.write_text(json.dumps(doc))
    return 2, [*VALIDATE_PASSES[:3], "FAIL  ground_truth_one_to_one  (duplicate gallery targets)"]


def _missing_queries(ds: Path) -> tuple[int, list[str]]:
    queries = ds / "queries.f32"
    queries.unlink()
    detail = f"embedding file not found: {os.path.realpath(queries)}"
    return 2, [VALIDATE_PASSES[0], f"FAIL  query  ({detail})", *VALIDATE_PASSES[2:]]


def _short_gallery(ds: Path) -> tuple[int, list[str]]:
    gallery = ds / "gallery.f32"
    gallery.write_bytes(gallery.read_bytes()[:-4])
    detail = f"embedding file {os.path.realpath(gallery)} is 8188 bytes, expected 8192"
    return 2, [*VALIDATE_PASSES[:2], f"FAIL  gallery  ({detail})", VALIDATE_PASSES[3]]


def _missing_queries_and_short_gallery(ds: Path) -> tuple[int, list[str]]:
    _, query_lines = _missing_queries(ds)
    _, gallery_lines = _short_gallery(ds)
    return 2, [query_lines[0], query_lines[1], gallery_lines[2], query_lines[3]]


# each damages the README set and returns validate's exit code and stdout lines;
# a split file that is missing or of the wrong size fails on its split's line
# (load_manifest opens neither split file), and every check still runs
VALIDATE_CASES = {
    "readme-set": lambda ds: (0, VALIDATE_PASSES),
    "nan-gallery": _nan_gallery,
    "non-unit-queries": _non_unit_queries,
    "non-unit-rows-in-both": _non_unit_rows_in_both,
    "duplicate-ground-truth": _duplicate_ground_truth,
    "missing-queries": _missing_queries,
    "short-gallery": _short_gallery,
    "missing-queries-short-gallery": _missing_queries_and_short_gallery,
}


class TestValidateOutput:
    """`embsearch validate`'s whole output: a PASS or FAIL line per check in
    order, then a WARN line per split whose rows are not unit-normalized. A
    failed check exits 2 with nothing on stderr; a warning alone exits 0."""

    @pytest.mark.parametrize("case", VALIDATE_CASES)
    def test_stdout_and_exit_code(self, tmp_path, capsys, case):
        ds = readme_dataset(tmp_path)
        code, lines = VALIDATE_CASES[case](ds)
        capsys.readouterr()
        assert run_cli("validate", ds / "manifest.json") == code
        assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")

    def test_warnings_as_errors(self, tmp_path):
        ds = readme_dataset(tmp_path)
        code, lines = _nan_gallery(ds)
        done = run_strict("validate", ds / "manifest.json")
        assert (done.returncode, done.stdout, done.stderr) == (
            code, "".join(line + "\n" for line in lines), "")


class TestExitCodes:
    def test_resolve_summary_reports_round_cap(self, dataset_dir, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        assert run_cli("search", dataset_dir / "manifest.json", "--k", 10, "--out", ranked) == 0
        capsys.readouterr()
        summaries = []
        for cap in (1, 100):
            out = tmp_path / f"r{cap}.tsv"
            assert run_cli("resolve", ranked, "--out", out, "--max-rounds", cap) == 0
            summary = capsys.readouterr().out
            # the summary ends with the answers that two or more queries hold
            answers = similarity.read_ranked_lists(out).ids[:, 0].tolist()
            shared = sum(answers.count(a) > 1 for a in set(answers))
            assert summary.endswith(f"; {shared} answer(s) held by more than one query\n")
            summaries.append(summary)
        capped, converged = summaries
        assert "stopped at the round cap with" in capped
        assert "conflict group(s) still live" in capped
        assert "stopped" not in converged

    def test_depth2_stall_gives_one_result_at_every_cap(self, tmp_path, capsys):
        """On this set a depth-2 run used to add an audit record per round
        until its cap: 21, 1011 and 100011 replacements at these caps."""
        ds, ranked = tmp_path / "ds", tmp_path / "ranked.tsv"
        assert run_cli("gen-synth", "--out", ds, "--seed", 7, "--n", 8, "--dim", 4) == 0
        assert run_cli("search", ds / "manifest.json", "--k", 3, "--out", ranked) == 0
        capsys.readouterr()
        runs = []
        for cap in (10, 1000, 100000):
            out, audit = tmp_path / f"r{cap}.tsv", tmp_path / f"a{cap}.tsv"
            assert run_cli("resolve", ranked, "--out", out, "--audit", audit, "--depth", 2,
                           "--max-rounds", cap) == 0
            runs.append([capsys.readouterr().out] + [
                [l for l in path.read_text().splitlines() if not l.startswith("# max_rounds=")]
                for path in (out, audit)])
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == (
            "resolved 8 lists in 2 round(s); 13 replacement(s), 3 unresolved; stalled with "
            "1 conflict group(s) still live; 3 answer(s) held by more than one query\n")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("search", "manifest.json", "--nope") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert run_cli("validate", tmp_path / "missing.json") == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_ks_is_usage_error(self, dataset_dir, tmp_path, capsys):
        ranked = tmp_path / "r.tsv"
        run_cli("search", dataset_dir / "manifest.json", "--k", 5, "--out", ranked)
        capsys.readouterr()
        for ks, message in [
            ("one", "--ks must be comma-separated integers: "
                    "invalid literal for int() with base 10: 'one'"),
            (",", "--ks must name at least one cutoff"),
        ]:
            assert run_cli(
                "eval", ranked, "--manifest", dataset_dir / "manifest.json", "--ks", ks
            ) == 1
            assert capsys.readouterr() == ("", f"usage error: {message}\n")

    def test_gate_with_smaller_manifest_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds4"
        assert run_cli("gen-synth", "--out", ds, "--seed", 3, "--n", 4, "--dim", 8) == 0
        ranked = tmp_path / "ranked8.tsv"
        ranked.write_text("".join(f"{q}\t1\t0\t0.{9 - q}\n" for q in range(8)))
        argv = ["resolve", ranked, "--out", tmp_path / "o.tsv", "--gate", -1.0,
                "--manifest", ds / "manifest.json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("data error: query 4 has no embedding")

    def test_gate_requires_manifest(self, tmp_path):
        ranked = tmp_path / "r.tsv"
        ranked.write_text("0\t1\t0\t0.5\n")
        assert run_cli("resolve", ranked, "--out", tmp_path / "o.tsv", "--gate", 0.5) == 1

    @pytest.mark.parametrize("command, content", [
        pytest.param("resolve", None, id="resolve-missing"),
        pytest.param("eval", None, id="eval-missing"),
        pytest.param("report", None, id="report-missing"),
        pytest.param("resolve", b"0\t1\t5\t0.5\xff\n", id="resolve-not-utf8"),
        pytest.param("report", b"dataset: \xff\n", id="report-not-utf8"),
        pytest.param("eval", b"# k=10\n# only comments\n", id="eval-no-lists"),
        pytest.param("report", GOOD_REPORT.replace(b"recall@1: 0.5", b"recall@1: abc"),
                     id="report-bad-recall"),
        pytest.param("report", GOOD_REPORT.replace(b"recall@5: 1\n", b""),
                     id="report-missing-recall"),
        pytest.param("resolve", b"0\t1\t5\t0.5\n0\t2\t6\t0.4\n1\t1\t7\t0.5\n",
                     id="resolve-unequal-lengths"),
        pytest.param("resolve", b"0\t1\t5\t0.5\n0\t2\t5\t0.4\n1\t1\t5\t0.3\n1\t2\t6\t0.2\n",
                     id="resolve-repeated-id"),
        pytest.param("eval", b"".join(b"0\t%d\t%d\t0.5\n" % (r, r - 1) for r in range(1, 11)),
                     id="eval-partial-file"),
        pytest.param("search", identity_adapter(16, math.nan), id="search-nan-temperature"),
        pytest.param("search", identity_adapter(16, math.inf), id="search-inf-temperature"),
        pytest.param("search", identity_adapter(16, 1.0, dtype_flag=7),
                     id="search-unknown-dtype-flag"),
        pytest.param("search", identity_adapter(16, 1.0, dtype_flag=0),
                     id="search-float32-dtype-flag"),
        pytest.param("report", GOOD_REPORT.replace(b"recall@1: 0.5", b"recall@1: nan"),
                     id="report-nan-recall"),
    ])
    def test_bad_input_file_is_data_error(self, dataset_dir, tmp_path, capsys, command, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        argv = {
            "resolve": ["resolve", path, "--out", tmp_path / "out.tsv"],
            "eval": ["eval", path, "--manifest", dataset_dir / "manifest.json"],
            "report": ["report", path, path],
            "search": ["search", dataset_dir / "manifest.json", "--k", 5, "--adapter", path,
                       "--out", tmp_path / "out.tsv"],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("command, out", [
        pytest.param(command, out, id=f"{command}-{out}")
        for command in ("search", "resolve", "eval", "report")
        for out in ("missing-parent", "directory", "empty")
    ] + [pytest.param("gen-synth", "regular-file", id="gen-synth-regular-file")])
    def test_unwritable_out_is_one_data_error_line(self, dataset_dir, tmp_path, capsys,
                                                    command, out):
        """An --out the file system refuses ended in a FileNotFoundError,
        IsADirectoryError or FileExistsError traceback with exit 1; an empty
        --out, which names no file, was skipped by eval and report."""
        manifest = dataset_dir / "manifest.json"
        ranked, report = tmp_path / "ranked.tsv", tmp_path / "report.txt"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0
        assert run_cli("eval", ranked, "--manifest", manifest, "--out", report) == 0
        work = tmp_path / "work"
        work.mkdir()
        (work / "taken").write_bytes(b"kept")
        target = {"missing-parent": work / "missing" / "out", "directory": work,
                  "regular-file": work / "taken", "empty": ""}[out]
        argv = {
            "search": ["search", manifest, "--k", 5],
            "resolve": ["resolve", ranked],
            "eval": ["eval", ranked, "--manifest", manifest],
            "report": ["report", report, report],
            "gen-synth": ["gen-synth", "--seed", 7, "--n", 8],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", target) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("data error: ")
        assert files_under(work) == {"taken": b"kept"}

    @pytest.mark.parametrize("command, second", [
        pytest.param(command, second, id=f"{command}-{second}")
        for command in ("resolve", "train-adapter")
        for second in ("missing-parent", "directory")
    ])
    def test_refused_second_output_leaves_no_first(self, dataset_dir, tmp_path, capsys,
                                                   command, second):
        """resolve wrote --out before refusing --audit, and train-adapter the
        adapter before refusing --trace: exit 2 with no first output left."""
        manifest, ranked = dataset_dir / "manifest.json", tmp_path / "ranked.tsv"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0
        work = tmp_path / "work"
        work.mkdir()
        target = {"missing-parent": work / "missing" / "out", "directory": work}[second]
        argv = {
            "resolve": ["resolve", ranked, "--out", work / "resolved.tsv", "--audit", target],
            "train-adapter": ["train-adapter", manifest, "--out", work / "model.adapter",
                              "--trace", target, "--epochs", 1],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("data error: ")
        assert files_under(work) == {}

    @pytest.mark.parametrize("existing", [None, b"kept"], ids=["new", "existing"])
    @pytest.mark.parametrize("spelling", ["same", "dot-segment"])
    @pytest.mark.parametrize("command", ["resolve", "train-adapter"])
    def test_two_outputs_naming_one_file_are_refused(self, dataset_dir, tmp_path, capsys,
                                                     monkeypatch, command, spelling, existing):
        """`train-adapter --out m --trace m` exited 0 with the trace in m, so
        `search --adapter m` failed next, and `resolve --out x --audit x` kept
        the audit alone: exit 2 before any write, a file already there kept.
        Both were refused only after the whole fit or resolution; now before
        either runs."""
        manifest, ranked = dataset_dir / "manifest.json", tmp_path / "ranked.tsv"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0

        def never(*args, **kwargs):
            raise AssertionError("ran before the outputs were checked")

        monkeypatch.setattr(objective, "train_adapter", never)
        monkeypatch.setattr(resolver, "resolve", never)
        work = tmp_path / "work"
        work.mkdir()
        if existing is not None:
            (work / "x").write_bytes(existing)
        first, second = work / "x", {"same": work / "x", "dot-segment": f"{work}/./x"}[spelling]
        argv = {
            "resolve": ["resolve", ranked, "--out", first, "--audit", second],
            "train-adapter": ["train-adapter", manifest, "--out", first, "--trace", second,
                              "--epochs", 1],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: two outputs name one file: {first}\n"
        assert files_under(work) == ({} if existing is None else {"x": existing})

    def test_eval_opens_no_embedding_file(self, dataset_dir, tmp_path):
        """eval reads the manifest's ground truth only: with every .f32 file
        gone it writes the report it writes on the whole set."""
        manifest, ranked = dataset_dir / "manifest.json", tmp_path / "ranked.tsv"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0
        whole, bare = tmp_path / "whole.txt", tmp_path / "bare.txt"
        assert run_cli("eval", ranked, "--manifest", manifest, "--out", whole) == 0
        for split in dataset_dir.glob("*.f32"):
            split.unlink()
        assert run_cli("eval", ranked, "--manifest", manifest, "--out", bare) == 0
        assert bare.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("command", [
        "gen-synth", "search-out", "validate", "search", "train-adapter", "eval"])
    def test_symlink_loop_is_one_data_error(self, dataset_dir, tmp_path, capsys, command):
        """A path through a symlink loop ended in a RuntimeError traceback with
        exit 1 (Python 3.11's Path.resolve raises it): gen-synth --out, and
        every command on a manifest whose query_path runs through the loop.
        Now it is a MissingFile or OSError, and nothing is written. eval opens
        no split file, so it does not reach the loop and writes its report."""
        os.symlink("loop", tmp_path / "loop")
        manifest, ranked = dataset_dir / "manifest.json", tmp_path / "ranked.tsv"
        assert run_cli("search", manifest, "--k", 10, "--out", ranked) == 0
        doc = json.loads(manifest.read_text())
        looped = dataset_dir / "looped.json"
        looped.write_text(json.dumps({**doc, "query_path": "../loop/q.f32"}))
        out = tmp_path / "out"
        argv = {
            "gen-synth": ["gen-synth", "--out", tmp_path / "loop" / "d", "--seed", 1, "--n", 4],
            "search-out": ["search", manifest, "--k", 5, "--out", tmp_path / "loop" / "x"],
            "validate": ["validate", looped],
            "search": ["search", looped, "--k", 5, "--out", out],
            "train-adapter": ["train-adapter", looped, "--out", out, "--epochs", 1],
            "eval": ["eval", ranked, "--manifest", looped, "--out", out],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run_cli(*argv)
        captured = capsys.readouterr()
        missing = f"embedding file not found: {os.path.realpath(tmp_path)}/loop/q.f32"
        if command == "validate":
            assert (code, captured.err) == (2, "")
            assert captured.out.splitlines() == [
                "PASS  manifest", f"FAIL  query  ({missing})", *VALIDATE_PASSES[2:]]
        elif command == "eval":
            assert code == 0 and captured.err == ""
            assert run_cli("eval", ranked, "--manifest", manifest, "--out", tmp_path / "r") == 0
            assert out.read_bytes() == (tmp_path / "r").read_bytes()
            return
        else:
            assert code == 2 and captured.out == ""
            assert len(captured.err.splitlines()) == 1 and captured.err.startswith("data error: ")
            if command in ("search", "train-adapter"):
                assert captured.err == f"data error: {missing}\n"
        assert sorted(tmp_path.rglob("*")) == before


# a flag's value is one of these: an int flag refuses the floats as a usage error
BOUNDARY = ["0", "1", "-1", "-0.0", "1e-300", "1e300", "1e308", "nan", "inf", "9" * 30]
# sizes and epochs stay small, so that no example allocates much or loops for long;
# the 30-digit size is refused before anything is allocated
SIZES = ["0", "1", "-1", "2", "8", "9" * 30]
EPOCHS = ["0", "1", "2", "-1"]
CONTRACT_FLAGS = {
    "gen-synth": {"--seed": BOUNDARY, "--n": SIZES, "--dim": SIZES, "--sigma": BOUNDARY,
                  "--confusable-fraction": BOUNDARY, "--confusable-gap": BOUNDARY},
    "search": {"--k": BOUNDARY},
    "train-adapter": {"--epochs": EPOCHS, **{flag: BOUNDARY for flag in (
        "--batch-size", "--step-size", "--weight-decay", "--lambda-match", "--temperature",
        "--seed")}},
    "resolve": {"--depth": BOUNDARY, "--max-rounds": BOUNDARY, "--gate": BOUNDARY},
    "eval": {"--ks": BOUNDARY},
}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """An n=8 set and its k=3 ranked lists, on which a depth-2 resolve stalls."""
    root = tmp_path_factory.mktemp("contract")
    assert run_cli("gen-synth", "--out", root / "ds", "--seed", 7, "--n", 8, "--dim", 4) == 0
    assert run_cli("search", root / "ds" / "manifest.json", "--k", 3,
                   "--out", root / "ranked.tsv") == 0
    return root


def contract_argv(command, inputs, out):
    """The argv of command that no example draws: inputs and outputs, and a
    seed for gen-synth, which requires one."""
    manifest = inputs / "ds" / "manifest.json"
    return {
        "gen-synth": ["gen-synth", "--out", out / "ds", "--seed", "1"],
        "search": ["search", manifest, "--k", "3", "--out", out / "ranked.tsv"],
        "train-adapter": ["train-adapter", manifest, "--out", out / "model.adapter",
                          "--trace", out / "trace.tsv"],
        "resolve": ["resolve", inputs / "ranked.tsv", "--out", out / "resolved.tsv",
                    "--audit", out / "audit.tsv", "--manifest", manifest],
        "eval": ["eval", inputs / "ranked.tsv", "--manifest", manifest, "--out", out / "r.txt"],
    }[command]


def _deadline(signum, frame):
    raise TimeoutError("the command ran past its 10 s deadline")


@settings(deadline=None)
@given(command=st.sampled_from(sorted(CONTRACT_FLAGS)), data_=st.data())
def test_exit_contract(contract_inputs, command, data_):
    """Any 1-3 flags of a subcommand, each set to a boundary value: the
    command returns 0, 1 or 2 with warnings as errors, inside its deadline;
    a non-zero exit prints exactly one error line, of its kind, and writes
    no file. Drawn flags follow the fixed ones, so a drawn --k or --seed wins."""
    flags = CONTRACT_FLAGS[command]
    drawn = data_.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                                max_size=min(3, len(flags)), unique=True))
    before = files_under(contract_inputs)
    with tempfile.TemporaryDirectory(dir=contract_inputs) as tmp:
        out = Path(tmp)
        # --flag=value, since "-1" alone reads as a flag
        argv = contract_argv(command, contract_inputs, out) + [
            f"{flag}={data_.draw(st.sampled_from(flags[flag]), label=flag)}" for flag in drawn]
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _deadline)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = run([str(a) for a in argv])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2)
        if code:
            errors = [line for line in stderr.getvalue().splitlines()
                      if line.startswith(("usage error:", "data error:"))]
            assert len(errors) == 1, stderr.getvalue()
            assert errors[0].startswith({1: "usage error:", 2: "data error:"}[code])
            assert files_under(out) == {}
    assert files_under(contract_inputs) == before


def test_report_out_writes_the_printed_table(tmp_path, capsys):
    before, after, out = tmp_path / "before.txt", tmp_path / "after.txt", tmp_path / "delta.txt"
    before.write_bytes(GOOD_REPORT)
    after.write_bytes(GOOD_REPORT.replace(b"recall@1: 0.5", b"recall@1: 1"))
    assert run_cli("report", before, after) == 0
    table = capsys.readouterr().out
    assert run_cli("report", before, after, "--out", out) == 0
    assert capsys.readouterr().out == table
    assert out.read_bytes() == table.encode("utf-8")  # the table and print's newline
    assert table.endswith("\n") and not table.endswith("\n\n")


def test_cli_imports_no_test_only_dependency():
    src = Path(embsearch.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import embsearch.cli, sys; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


def readme_commands() -> list[list[str]]:
    """The argv of every `embsearch` command in the README's CLI section."""
    block = (REPO / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("embsearch ")]


def run_benchmark_script(out, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_benchmark.py"), "--out", str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def files_under(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestBenchmarkScript:
    def test_script_runs_the_readme_pipeline(self, tmp_path, monkeypatch):
        outs = [tmp_path / "a" / "out", tmp_path / "second" / "run"]
        runs = [run_benchmark_script(out) for out in outs]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        script_files = files_under(outs[0])
        assert script_files == files_under(outs[1])

        readme_dir = tmp_path / "readme"
        readme_dir.mkdir()
        monkeypatch.chdir(readme_dir)
        for argv in readme_commands():
            assert run(argv) == 0, argv
        readme_files = files_under(readme_dir)
        for name in ("ds/manifest.json", "ds/manifest_heldout.json", "ds/gallery.f32",
                     "ds/queries.f32", "ds/queries_heldout.f32", "ranked.tsv",
                     "resolved.tsv", "audit.tsv", "model.adapter", "trace.tsv"):
            assert name in readme_files, name
        for name, body in readme_files.items():
            assert script_files.get(name) == body, name

        stdout = runs[0].stdout
        before = stdout.index("recall@1: 0.4688")
        assert stdout.index("recall@1: 0.5312") > before
        assert ("stopped at the round cap with 2 conflict group(s) still live; "
                "2 answer(s) held by more than one query\n") in stdout

        # every ranked list the script writes is read by numpy's C reader,
        # so the per-line parser is only a fallback for hand-edited files
        ranked = sorted(name for name in script_files
                        if name.endswith(".tsv") and name not in ("audit.tsv", "trace.tsv"))
        assert ranked == ["heldout.tsv", "heldout_ft.tsv", "ranked.tsv", "ranked_ft.tsv",
                          "resolved.tsv"]
        for name in ranked:
            text = script_files[name].decode("utf-8")
            assert similarity._load_columns(text, text.splitlines()) is not None, name

    def test_readme_block_is_the_scripts_first_nine_commands(self, tmp_path, monkeypatch):
        """The README's claim that the script runs exactly its CLI block."""
        spec = importlib.util.spec_from_file_location(
            "run_benchmark", REPO / "scripts" / "run_benchmark.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        commands = []
        monkeypatch.setattr(script, "run", lambda argv: commands.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--out", str(tmp_path)])
        monkeypatch.chdir(tmp_path)  # main changes into --out; this restores the directory
        assert script.main() == 0
        readme = readme_commands()
        assert len(readme) == 9
        assert readme == commands[:9]

    def test_script_caps_cutoffs_at_k(self, tmp_path):
        out = tmp_path / "out"
        result = run_benchmark_script(out, "--k", "3")
        assert result.returncode == 0, result.stderr
        assert evaluation.read_report(out / "before.txt").k_values == [1, 3]

    def test_script_exits_with_the_failing_command_code(self, tmp_path):
        result = run_benchmark_script(tmp_path / "out", "--k", "0")
        assert result.returncode == 2
        assert result.stderr.startswith("data error: ")
        assert "$ embsearch train-adapter" not in result.stdout
