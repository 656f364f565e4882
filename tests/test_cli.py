import dataclasses
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import embsearch
from embsearch import data, evaluation, objective, resolver
from embsearch.cli import run
from embsearch.errors import InvalidConfig


GOOD_REPORT = (
    b"dataset: d\nn_queries: 2\nk_values: 1,5\nrecall@1: 0.5\nrecall@5: 1\ntimestamp: -\n"
)
REPO = Path(__file__).resolve().parents[1]


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
        cfg = cls(**{field: value, **({"seed": 0} if cls is data.SynthConfig else {})})
        with pytest.raises(InvalidConfig, match=f"^{field} must be finite, got {value}$"):
            cfg.validate(1) if cls is resolver.ResolutionPolicy else cfg.validate()

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


class TestExitCodes:
    @pytest.mark.parametrize("split", ["query_path", "gallery_path"])
    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_validate_reports_bad_split_file(self, dataset_dir, capsys, split, damage):
        manifest = dataset_dir / "manifest.json"
        path = dataset_dir / json.loads(manifest.read_text())[split]
        if damage == "missing":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:-4])
        assert run_cli("validate", manifest) == 2
        captured = capsys.readouterr()
        error = captured.err.removeprefix("data error: ").strip()
        assert captured.out == f"FAIL  manifest  ({error})\n"

    def test_resolve_summary_reports_round_cap(self, dataset_dir, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        assert run_cli("search", dataset_dir / "manifest.json", "--k", 10, "--out", ranked) == 0
        capsys.readouterr()
        assert run_cli("resolve", ranked, "--out", tmp_path / "r.tsv", "--max-rounds", 1) == 0
        capped = capsys.readouterr().out
        assert run_cli("resolve", ranked, "--out", tmp_path / "r.tsv", "--max-rounds", 100) == 0
        converged = capsys.readouterr().out
        assert "stopped at the round cap with" in capped
        assert "conflict group(s) still live" in capped
        assert "stopped" not in converged

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("search", "manifest.json", "--nope") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert run_cli("validate", tmp_path / "missing.json") == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_ks_is_usage_error(self, dataset_dir, tmp_path):
        ranked = tmp_path / "r.tsv"
        run_cli("search", dataset_dir / "manifest.json", "--k", 5, "--out", ranked)
        assert run_cli(
            "eval", ranked, "--manifest", dataset_dir / "manifest.json", "--ks", "one"
        ) == 1

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
    ])
    def test_bad_input_file_is_data_error(self, dataset_dir, tmp_path, capsys, command, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        argv = {
            "resolve": ["resolve", path, "--out", tmp_path / "out.tsv"],
            "eval": ["eval", path, "--manifest", dataset_dir / "manifest.json"],
            "report": ["report", path, path],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")


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
        assert "stopped at the round cap with 2 conflict group(s) still live" in stdout

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
