"""Tests for the config parser and the command-line harness."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lissakit import cli
from lissakit.cli import main
from lissakit.config import (
    ConfigError,
    ExperimentConfig,
    _caster,
    component_seed,
    parse_config_text,
    sha256_hex,
)
from lissakit.gnh import GnhOperator
from lissakit.lissa import LissaDivergenceError

RECOMMEND_CFG = """
# spectral statistics of a large image classifier
trace = 14580
lambda_max = 270
lambda_damp = 5
"""

QUAD_CFG = """
model_kind = softmax-linear
layer_sizes = 10, 4
n_examples = 256
lambda_damp = 0.5
batch_size = 64
t_steps = 400
snapshot_every = 50
seed = 3
"""

SINGULAR_CFG = "model_kind = softmax-linear\nlayer_sizes = 4, 3\nn_examples = 30\nlambda_damp = 0\n"

TINY_MLP_CFG = "model_kind = mlp\nlayer_sizes = 3, 2, 2\nn_examples = 8\n"

LINEAR_4_3 = "model_kind = softmax-linear\nlayer_sizes = 4, 3\n"

MLP_4_5_3 = "model_kind = mlp\nlayer_sizes = 4, 5, 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, command, cfg_text, *extra, name="run"):
    cfg = write(tmp_path, f"{name}.cfg", cfg_text)
    out = tmp_path / name
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


class TestConfigParsing:
    def test_key_value_lines(self):
        assert parse_config_text("a = 1\nb = two\n") == {"a": "1", "b": "two"}

    def test_comments_and_blanks(self):
        text = "# header\n\na = 1  # trailing\n"
        assert parse_config_text(text) == {"a": "1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("a =\n")


class TestExperimentConfig:
    def test_typed_fields(self):
        cfg = ExperimentConfig.from_text(
            "seed = 7\nlayer_sizes = 5, 3\neta = 0.25\nbatch_sizes = 1, 2, 4\n"
        )
        assert cfg.seed == 7
        assert cfg.layer_sizes == (5, 3)
        assert cfg.eta == 0.25
        assert cfg.batch_sizes == (1, 2, 4)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            ExperimentConfig.from_text("learning_rate = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            ExperimentConfig.from_text("seed = banana\n")
        for text in ("lambda_damp = inf\n", "eta = -inf\n", "eigenvalues = 1, nan, 1\n"):
            with pytest.raises(ConfigError, match="bad value"):
                ExperimentConfig.from_text(text)

    def test_invariants_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("seed = -1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("hvp_mode = magic\n")
        for text in (
            "n_examples = 0\n",
            "n_probes = 1\n",
            "sketch_dim = 1\n",
            "batch_size = 0\n",
            "batch_sizes = 4, 0\n",
            "eta = -1\n",
            "t_steps = 0\n",
            "fd_delta = 0\n",
            "hvp_mode = fd\nfd_delta = 0\n",
            "snapshot_every = -1\n",
            "tolerance = -1\n",
            "t_multiplier = -1\n",
            "c_const = 0\n",
            "n_runs = 1\n",
            "t_max = 0\n",
            "n_docs = 0\n",
            "doc_length = 0\n",
            "vocab_size = 1\n",
            "epsilon = 0\n",
            "pbrf_steps = 0\n",
            "n_train = 0\n",
            "n_test = 0\n",
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_text(text)

    def test_every_field_annotation_has_a_caster(self):
        # each field is cast by its annotation; every default survives the trip
        # through its config text
        for f in fields(ExperimentConfig):
            cast = _caster(f.type)
            if f.default is not None:
                text = ", ".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
                assert cast(text) == f.default, f.name

    def test_require_reports_missing_field(self):
        cfg = ExperimentConfig.from_text("lambda_damp = 5\n")
        with pytest.raises(ConfigError, match="trace"):
            cfg.require("trace")

    def test_component_seed_stable_and_distinct(self):
        assert component_seed(3, "init") == component_seed(3, "init")
        assert component_seed(3, "init") != component_seed(3, "dataset")
        assert component_seed(3, "init") != component_seed(4, "init")


class TestRecommendCommand:
    def test_printed_table_row(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split(" = ") for line in lines)
        assert float(values["eta"]) == pytest.approx(0.0036, abs=2e-4)
        assert values["batch_size"] == "108"
        assert values["t_steps"] == "110"

    def test_csv_and_manifest(self, tmp_path):
        _, out = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        header = (out / "recommend.csv").read_text().splitlines()[0]
        assert header == "eta,batch_size,t_steps,lambda_damp,c_const,t_multiplier"
        manifest = (out / "manifest.txt").read_text()
        assert "command = recommend" in manifest
        assert f"config_sha256 = {sha256_hex(RECOMMEND_CFG)}" in manifest
        assert "output recommend.csv sha256" in manifest

    def test_output_hash_matches_file(self, tmp_path):
        _, out = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        data = (out / "recommend.csv").read_text()
        manifest = (out / "manifest.txt").read_text()
        assert f"output recommend.csv sha256 = {sha256_hex(data)}" in manifest

    def test_exactly_one_manifest(self, tmp_path):
        _, out = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        assert len(list(out.glob("*manifest*"))) == 1


class TestDeterminism:
    def test_identical_reruns_are_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, "lissa", QUAD_CFG, name="first")
        _, second = run_cli(tmp_path, "lissa", QUAD_CFG, name="second")
        for name in ["lissa_trace.csv", "solution.csv", "manifest.txt"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        _, base = run_cli(tmp_path, "lissa", QUAD_CFG, name="base")
        _, other = run_cli(tmp_path, "lissa", QUAD_CFG, "--seed", "9", name="other")
        assert (base / "solution.csv").read_text() != (other / "solution.csv").read_text()
        assert "seed = 9" in (other / "manifest.txt").read_text()

    def test_threads_one_writes_the_same_bytes_as_no_flag(self, tmp_path):
        cfg_text = QUAD_CFG.replace("t_steps = 400", "t_steps = 20") + "n_train = 6\nn_test = 5\n"
        _, plain = run_cli(tmp_path, "pbrf-compare", cfg_text, name="plain")
        _, flagged = run_cli(tmp_path, "pbrf-compare", cfg_text, "--threads", "1", name="flagged")
        for name in ["pbrf_pairs.csv", "pbrf_summary.csv", "manifest.txt"]:
            assert (plain / name).read_bytes() == (flagged / name).read_bytes()

    def test_other_thread_counts_are_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(tmp_path, "lissa", QUAD_CFG, "--threads", "2")
        assert info.value.code == 2
        code, _ = run_cli(tmp_path, "lissa", QUAD_CFG + "threads = 2\n", name="cfg")
        assert code == 2
        assert "unknown config field 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["lissa", "--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_cli_imports_no_thread_pool(self):
        # every command runs on one thread, which the strict span nesting of
        # perfbench/tracing.py assumes; NumPy alone does not import the pool
        probe = "import sys, lissakit.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        assert code == 0

    def test_unknown_field_is_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "recommend", "bogus = 1\n")
        assert code == 2

    def test_missing_config_file_is_two(self, tmp_path):
        code = main(["recommend", "--config", str(tmp_path / "absent.cfg"), "--out", "x"])
        assert code == 2

    def test_missing_required_field_is_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "recommend", "lambda_damp = 5\n")
        assert code == 2

    def test_command_mismatch_is_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "recommend", "command = stats\n" + RECOMMEND_CFG)
        assert code == 2

    def test_unknown_subcommand_is_two(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert info.value.code == 2

    def test_divergence_is_three(self, tmp_path):
        text = QUAD_CFG.replace("batch_size = 64", "eta = 50.0")
        code, out = run_cli(tmp_path, "lissa", text)
        assert code == 3
        assert not (out / "manifest.txt").exists()

    def test_oracle_mismatch_is_four(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "lissa", QUAD_CFG + "tolerance = 1e-6\n")
        assert code == 4
        # the failed run still records what it emitted
        assert (out / "manifest.txt").exists()
        assert "relative_error" in capsys.readouterr().out

    def test_lissa_tolerance_pass_is_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "lissa", QUAD_CFG + "tolerance = 0.2\n")
        assert code == 0

    def test_missing_out_dir_is_two(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", RECOMMEND_CFG)
        assert main(["recommend", "--config", cfg]) == 2

    def test_out_of_range_count_is_two_without_traceback(self, tmp_path, capsys):
        cases = (
            ("stats", "n_probes = 1\n"),
            # without t_steps the step count is derived from t_multiplier
            ("lissa", QUAD_CFG.replace("t_steps = 400", "t_multiplier = -1")),
            ("pbrf-compare", QUAD_CFG + "n_train = 2\nn_test = 5\nepsilon = 0\n"),
            # eta = 1/(max eigenvalue + lambda_damp) has a zero denominator
            ("counterexample", "eigenvalues = 0, 0\nlambda_damp = 0\n"),
            # the undamped softmax GNH is singular: the dense oracle refuses lambda_damp = 0
            ("lissa", SINGULAR_CFG + "eta = 0.1\nt_steps = 5\ntolerance = 0.5\n"),
            ("similarity", SINGULAR_CFG + "n_items = 4\n"),
            # sketch columns: d summed, d per layer concatenated
            ("stats", TINY_MLP_CFG + "sketch_dim = 2001\n"),
            ("stats", TINY_MLP_CFG + "sketch_dim = 1001\nsketch_layout = concatenated\n"),
            # a one-term corpus has no second term to compare against
            ("tfidf-check", f"corpus_path = {write(tmp_path, 'one_term.txt', 'a')}\n"),
            # t_steps over the limit, given or derived from eta (T = 4e15)
            ("lissa", QUAD_CFG.replace("t_steps = 400", "t_steps = 100000000000")),
            ("lissa", QUAD_CFG.replace("t_steps = 400", "eta = 1e-15")),
            ("counterexample", "eigenvalues = 1, 1\nt_max = 100000000000\n"),
            # lambda_damp * eta underflows to 0, or T overflows: no finite step count
            ("lissa", QUAD_CFG.replace("t_steps = 400", "eta = 5e-324")),
            ("recommend", "trace = 1\nlambda_max = 1e308\nlambda_damp = 1e-10\n"),
            ("stats", TINY_MLP_CFG + "lambda_damp = 1e-320\n"),
            ("convergence", QUAD_CFG.replace("t_steps = 400", "t_steps = 100000000000")
             + "batch_sizes = 8\nn_test = 5\n"),
            ("pbrf-compare", QUAD_CFG.replace("t_steps = 400", "eta = 1e-15")
             + "n_train = 2\nn_test = 5\n"),
            # a recommended t_steps over the limit that the solvers would refuse
            ("recommend", "trace = 1\nlambda_max = 1\nlambda_damp = 1e-300\n"),
            ("stats", TINY_MLP_CFG + "lambda_damp = 1e-300\n"),
            # 3466 parameters: over the dense reference's MAX_DENSE_PARAMS
            ("condition-c1", "model_kind = mlp\nlayer_sizes = 16, 128, 10\nn_examples = 8\nbatch_sizes = 2\n"),
        )
        for i, (command, text) in enumerate(cases):
            code, _ = run_cli(tmp_path, command, text, name=f"run{i}")
            assert code == 2, command
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err, command

    @pytest.mark.parametrize("eigenvalues", ["1e200, 1e-200", "1e308, 1e308", "1e160, 1e160"])
    def test_counterexample_non_finite_closed_form_is_two(self, tmp_path, capsys, eigenvalues):
        text = f"eigenvalues = {eigenvalues}\nlambda_damp = 0.1\nn_runs = 20\nt_max = 3\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, "counterexample", text)
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert "config error" in err and "eigenvalues" in err and "Traceback" not in err
        assert not (out / "counterexample.csv").exists()

    def test_zero_damping_without_t_steps_is_two(self, tmp_path, capsys):
        text = QUAD_CFG.replace("lambda_damp = 0.5", "lambda_damp = 0").replace(
            "t_steps = 400", "eta = 0.1"
        )
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 2
        assert "t_steps must be given" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [("lissa", ""), ("pbrf-compare", "n_train = 2\nn_test = 5\n")])
    def test_zero_damping_without_t_steps_stops_before_model_work(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        # the config alone decides this error: no model, no dense GNH, no eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("model work before a config-decided error")

        monkeypatch.setattr("lissakit.cli.gnh_matrix_exact", refuse)
        monkeypatch.setattr("lissakit.cli._build_model", refuse)
        code, _ = run_cli(tmp_path, command, SINGULAR_CFG + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: t_steps must be given when lambda_damp is 0\n"

    @pytest.mark.parametrize(
        "solve_fails, finetune_overflows, message",
        [
            ((2, 3), (), "iterate diverged at step 2 (norm 1e+300)"),
            ((2,), (1,), "finetune overflowed; influences are unavailable"),
            ((2,), (2, 3), "iterate diverged at step 2 (norm 1e+300)"),
            ((), (4,), "finetune overflowed; influences are unavailable"),
        ],
    )
    def test_pbrf_compare_fails_on_the_earliest_item(
        self, tmp_path, capsys, monkeypatch, solve_fails, finetune_overflows, message
    ):
        # the solves and the lockstep finetunes report failures as if each item
        # ran its solve and then its finetune, one item after another
        items = {component_seed(3, f"pbrf-item-{i}"): i for i in range(6)}
        real_solve, real_finetune = cli.lissa_solve, cli.pbrf_finetune

        def solve(op, g, cfg):
            if items[cfg.seed] in solve_fails:
                raise LissaDivergenceError(step=items[cfg.seed], norm=1e300)
            return real_solve(op, g, cfg)

        def finetune(spec, theta, points, dataset, cfg):
            results = real_finetune(spec, theta, points, dataset, cfg)
            for seed, result in zip(cfg.seed, results):
                result.overflow = items[seed] in finetune_overflows
            return results

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        monkeypatch.setattr("lissakit.cli.pbrf_finetune", finetune)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 6\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 3
        assert capsys.readouterr().err == f"numerical overflow: {message}\n"

    def test_pbrf_compare_solves_no_item_after_a_divergence(self, tmp_path, monkeypatch):
        items = {component_seed(3, f"pbrf-item-{i}"): i for i in range(6)}
        solved = []
        real_solve = cli.lissa_solve

        def solve(op, g, cfg):
            solved.append(items[cfg.seed])
            if items[cfg.seed] == 2:
                raise LissaDivergenceError(step=2, norm=1e300)
            return real_solve(op, g, cfg)

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 6\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 3
        assert solved == [0, 1, 2]

    def test_pbrf_steps_over_limit_is_two_before_model_work(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model work before a config-decided error")

        monkeypatch.setattr("lissakit.cli._build_model", refuse)
        text = MLP_4_5_3 + "eta = 0.5\nt_steps = 3\npbrf_steps = 1000000000000\nn_train = 2\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pbrf_steps = 1000000000000 is over the limit")

    @pytest.mark.parametrize(
        "extra",
        ["eta = 0.5\nt_steps = 1000000000000\n", "lambda_damp = 0\n"],
        ids=["t-steps-over-limit", "no-t-steps-at-zero-damping"],
    )
    def test_pbrf_steps_replaces_t_steps(self, tmp_path, monkeypatch, extra):
        # with pbrf_steps set, t_steps is neither checked nor derived: every
        # solve and every finetune runs pbrf_steps steps
        steps = []
        real_solve, real_finetune = cli.lissa_solve, cli.pbrf_finetune

        def solve(op, g, cfg):
            steps.append(cfg.t_steps)
            return real_solve(op, g, cfg)

        def finetune(spec, theta, points, dataset, cfg):
            steps.append(cfg.steps)
            return real_finetune(spec, theta, points, dataset, cfg)

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        monkeypatch.setattr("lissakit.cli.pbrf_finetune", finetune)
        text = MLP_4_5_3 + extra + "pbrf_steps = 5\nn_train = 2\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0 and steps == [5, 5, 5]

    def test_pbrf_compare_solves_full_batch_when_the_finetunes_do(self, tmp_path, monkeypatch):
        # batch_size = 32 covers the 30 training examples, so pbrf_finetune runs
        # full-batch descent; the solves must draw no batch either
        def refuse(*args, **kwargs):
            raise AssertionError("batch drawn although batch_size covers the training set")

        monkeypatch.setattr("lissakit.gnh.sample_batch", refuse)
        monkeypatch.setattr("lissakit.pbrf.sample_batch", refuse)
        iterates = []
        real_solve = cli.lissa_solve

        def solve(op, g, cfg):
            u, trace = real_solve(op, g, cfg)
            full = GnhOperator(op.spec, op.theta, op.dataset)
            iterates.append((u, real_solve(full, g, cfg)[0]))
            return u, trace

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        text = MLP_4_5_3 + "n_examples = 30\nn_test = 5\nn_train = 4\nbatch_size = 32\neta = 0.5\nt_steps = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        assert len(iterates) == 4
        assert all(np.array_equal(u, full) for u, full in iterates)

    def test_pbrf_lr_is_an_unknown_field(self, tmp_path, capsys):
        # eta is the one step size of the solves and the finetunes
        text = MLP_4_5_3 + "eta = 0.5\nt_steps = 3\npbrf_lr = 0.5\nn_train = 2\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 2
        assert capsys.readouterr().err == "config error: unknown config field 'pbrf_lr'\n"

    @pytest.mark.parametrize("model", [LINEAR_4_3, MLP_4_5_3], ids=["linear", "mlp"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("lissa", "eta = 0.1\nt_steps = 5\ntolerance = 0.5\n"),
            ("lissa", "tolerance = 0.5\nt_steps = 5\n"),
            ("convergence", "eta = 0.1\nt_steps = 5\nbatch_sizes = 4\nn_test = 5\n"),
            ("similarity", "n_items = 4\n"),
        ],
        ids=["lissa", "lissa-derived-eta", "convergence", "similarity"],
    )
    def test_dense_oracle_refuses_zero_damping(self, tmp_path, capsys, monkeypatch, model, command, extra):
        # every GNH is singular (last-layer bias shift), so lambda_damp = 0 has no
        # unique oracle solution; the command must stop before building the matrix
        def refuse(*args, **kwargs):
            raise AssertionError("dense GNH built at lambda_damp = 0")

        monkeypatch.setattr("lissakit.cli.gnh_matrix_exact", refuse)
        text = model + "n_examples = 30\nlambda_damp = 0\n" + extra
        for seed in range(4):
            code, _ = run_cli(tmp_path, command, text, "--seed", str(seed), name=f"run{seed}")
            assert code == 2
            err = capsys.readouterr().err
            assert "lambda_damp" in err and "Traceback" not in err

    def test_zero_damping_lissa_without_tolerance_still_runs(self, tmp_path):
        # no oracle solve: eta comes from lambda_max of the singular GNH, T is given
        text = SINGULAR_CFG + "batch_size = 8\nt_steps = 5\n"
        code, out = run_cli(tmp_path, "lissa", text)
        assert code == 0
        assert len((out / "lissa_trace.csv").read_text().splitlines()) == 7

    @pytest.mark.parametrize(
        "command, text",
        [
            ("lissa", QUAD_CFG + "tolerance = 0.2\n"),
            ("convergence", QUAD_CFG + "n_test = 5\nbatch_sizes = 8\n"),
            ("similarity", QUAD_CFG + "n_items = 4\n"),
            ("pbrf-compare", QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 2\nn_test = 5\n"),
        ],
        ids=["lissa", "convergence", "similarity", "pbrf-compare"],
    )
    def test_dense_commands_decompose_the_gnh_once(self, tmp_path, monkeypatch, command, text):
        # lambda_max, every exact solve and the eigen-reweighting read one eigh
        eigh = np.linalg.eigh
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the dense GNH factored a second way")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        code, _ = run_cli(tmp_path, command, text)
        assert code == 0
        assert len(calls) == 1

    def test_model_too_large_for_derived_settings_is_two(self, tmp_path, capsys):
        text = "model_kind = mlp\nlayer_sizes = 16, 128, 10\nbatch_size = 8\nt_steps = 5\n"
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 2
        assert "only lissa (eta set, no tolerance)" in capsys.readouterr().err

    def test_large_model_with_eta_derives_t_steps_without_dense_gnh(self, tmp_path):
        # 2442 parameters, over the dense limit: T = ceil(mult / (lambda eta)) needs no spectrum
        text = (
            "model_kind = mlp\nlayer_sizes = 16, 128, 10\nn_examples = 64\nbatch_size = 8\n"
            "eta = 0.2\nlambda_damp = 0.5\nt_multiplier = 2\n"
        )
        code, out = run_cli(tmp_path, "lissa", text)
        assert code == 0
        rows = (out / "lissa_trace.csv").read_text().splitlines()[1:]
        assert len(rows) == math.ceil(2 / (0.5 * 0.2)) + 1

    def test_pbrf_compare_with_eta_builds_no_dense_gnh(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense GNH built although eta is set")

        monkeypatch.setattr("lissakit.cli.gnh_matrix_exact", refuse)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5")
        text += "eta = 0.2\nn_train = 2\nn_test = 5\n"
        code, out = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        assert (out / "pbrf_summary.csv").exists()

    @pytest.mark.parametrize(
        "command, text, field",
        [
            ("lissa", QUAD_CFG.replace("batch_size = 64", "batch_size = 100000000000"), "batch_size"),
            ("convergence", QUAD_CFG + "n_test = 5\nbatch_sizes = 8, 100000000000\n", "batch_sizes"),
            # 100 batches of 100001, below the 100010 training examples: 10,000,100 words
            ("pbrf-compare", "\nmodel_kind = softmax-linear\nlayer_sizes = 1, 2\nn_examples = 100010\n"
             "n_test = 5\nn_train = 100\nbatch_size = 100001\n", "n_train = 100 times batch_size"),
            ("counterexample", "eigenvalues = 1, 1\nbatch_size = 100000000000\nt_max = 3\nn_runs = 2\n",
             "batch_size"),
            ("counterexample", "eigenvalues = 1, 1, 1\nbatch_size = 3333334\nt_max = 3\nn_runs = 2\n",
             "3 eigenvalues"),
        ],
    )
    def test_batch_draw_over_limit_is_two_before_model_work(
        self, tmp_path, capsys, monkeypatch, command, text, field
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("model work before a config-decided error")

        # pbrf-compare draws nothing when its batch covers the training set, so
        # it counts its draw once that set is built, and before any solve
        if command != "pbrf-compare":
            monkeypatch.setattr("lissakit.cli._build_model", refuse)
        for name in ("counterexample_build", "lissa_solve", "pbrf_finetune"):
            monkeypatch.setattr(f"lissakit.cli.{name}", refuse)
        code, _ = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "MAX_DRAW_WORDS" in err

    def test_pbrf_compare_batch_over_the_training_set_draws_nothing(self, tmp_path):
        # n_train times batch_size is 10,000,002 words, but a batch of at least
        # the 30 training examples runs full batch: the same bytes as batch_size 30
        text = MLP_4_5_3 + "n_examples = 30\nn_test = 5\nn_train = 2\nt_steps = 3\neta = 0.1\n"
        code, huge = run_cli(tmp_path, "pbrf-compare", text + "batch_size = 5000001\n", name="huge")
        assert code == 0
        _, covering = run_cli(tmp_path, "pbrf-compare", text + "batch_size = 30\n", name="covering")
        for name in ("pbrf_pairs.csv", "pbrf_summary.csv"):
            assert (huge / name).read_bytes() == (covering / name).read_bytes()

    def test_draw_limit_is_inclusive(self):
        for limit in ("MAX_T_STEPS", "MAX_PROBES", "MAX_KEPT_FLOATS", "MAX_DRAW_WORDS", "MAX_DENSE_PARAMS"):
            value = getattr(cli, limit)
            cli._check_limit("batch_size", value, limit)
            cli._check_limit("batch_size", None, limit)
            with pytest.raises(ConfigError, match=f"batch_size is over the limit {limit} = {value}$"):
                cli._check_limit("batch_size", value + 1, limit)

    def test_counterexample_eigenvalue_count_over_dense_limit_is_two(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rotation drawn for too many eigenvalues")

        monkeypatch.setattr("lissakit.cli.counterexample_build", refuse)
        ones = ", ".join(["1"] * (cli.MAX_DENSE_PARAMS + 1))
        code, _ = run_cli(tmp_path, "counterexample", f"eigenvalues = {ones}\nt_max = 2\nn_runs = 2\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "eigenvalues" in err

    @pytest.mark.parametrize(
        "command, text, field",
        [
            # C Tr / lambda_max overflows to inf: once exit 3, "cannot convert float infinity"
            ("recommend", "trace = 1e10\nlambda_max = 1e-300\n", "c_const * trace / lambda_max"),
            # finite but over the draw limit: once exit 0 with the batch size printed
            ("recommend", "trace = 1e10\nlambda_max = 1\n", "batch_size"),
            ("stats", TINY_MLP_CFG + "c_const = 1e300\n", "batch_size"),
        ],
    )
    def test_out_of_range_recommended_batch_is_two(self, tmp_path, capsys, command, text, field):
        code, out = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, text",
        [("recommend", "trace = 1\nlambda_max = 1\nlambda_damp = 1e-9\n"),
         ("stats", LINEAR_4_3 + "lambda_damp = 1e-9\n")],
    )
    def test_recommended_step_limit_names_the_fields_it_reads(self, tmp_path, capsys, command, text):
        # T = t_multiplier (lambda_max + lambda_damp) / lambda_damp: neither command
        # reads t_steps or eta, so the message names neither as a remedy
        code, _ = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "recommended t_steps" in err and "MAX_T_STEPS" in err
        remedy = err.split(";")[1]
        assert "lambda_damp" in remedy and "t_multiplier" in remedy
        assert "t_steps" not in remedy and "eta" not in remedy

    def test_counterexample_computes_the_closed_form_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.counterexample_moments

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("lissakit.cli.counterexample_moments", counting)
        text = "eigenvalues = 1, 1, 1, 1\nbatch_size = 2\nlambda_damp = 0.1\nn_runs = 2\nt_max = 30\n"
        code, out = run_cli(tmp_path, "counterexample", text)
        assert code == 0
        assert len(calls) == 1
        assert len((out / "counterexample.csv").read_text().splitlines()) == 32


# Extreme numbers for the input-boundary property tests: zero, subnormals,
# the ends of the float range, negatives and ordinary values.
EXTREMES = st.sampled_from(
    [0.0, 5e-324, 1e-310, 1e-300, 1e-5, 0.5, 1.0, 3.0, 1e5, 1e300, 1.7e308, -1.0, -1e-300]
)


def config_text(fields):
    return "".join(f"{key} = {value!r}\n" for key, value in fields.items() if value is not None)


# Step counts that run fast or are over the limit, and batch sizes that are
# small or over the draw limit, so that no generated run takes long.
STEPS = st.integers(1, 20) | st.sampled_from([cli.MAX_T_STEPS + 1, 10**12])
BATCHES = st.integers(1, 64) | st.integers(10**10, 10**12)
# Dataset sizes: the default, small, or over the draw limit.
EXAMPLES = st.none() | st.integers(1, 40) | st.just(10**13)


def run_main(command, text):
    """Exit code of one in-process run, in a fresh directory; no traceback may reach stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        assert "Traceback" not in err.getvalue()
        return code, {csv.name: csv.read_text() for csv in (Path(tmp) / "out").glob("*.csv")}


def non_finite_cells(outputs):
    """(file, cell) of every nan or inf cell in a run's CSV files."""
    return [
        (name, cell)
        for name, text in outputs.items()
        for line in text.splitlines()[1:]
        for cell in line.split(",")
        if cell.lstrip("-") in ("nan", "inf")
    ]


@st.composite
def corpus_texts(draw):
    """Corpus files of at most 12 lines of at most 12 tokens: equal-length or
    ragged documents, blank lines, and vocabularies of one to five terms."""
    vocab = draw(st.sampled_from(["a", "ab", "abcde"]))
    n_lines = draw(st.integers(0, 12))
    if draw(st.booleans()):
        length = draw(st.integers(1, 12))
        lengths = draw(st.lists(st.sampled_from([0, length]), min_size=n_lines, max_size=n_lines))
    else:
        lengths = draw(st.lists(st.integers(0, 12), min_size=n_lines, max_size=n_lines))
    token = st.sampled_from(vocab)
    return "".join(
        " ".join(draw(st.lists(token, min_size=k, max_size=k))) + "\n" for k in lengths
    )


@st.composite
def malformed_datasets(draw):
    """Dataset CSV files for a 4-feature, 3-class model with one defect: a
    ragged row, a label that is not an integer class (non-integer, negative,
    written as 1e30 or past the last class), a non-finite or non-numeric
    feature, a header only, or an empty file."""
    n_rows = draw(st.integers(1, 8))
    rows = [[repr(float(x)) for x in draw(st.lists(st.floats(-3, 3), min_size=4, max_size=4))]
            + [str(draw(st.integers(0, 2)))] for _ in range(n_rows)]
    defect = draw(st.sampled_from(["ragged", "label", "feature", "header only", "empty"]))
    if defect == "empty":
        return ""
    if defect == "header only":
        rows = []
    row = rows[draw(st.integers(0, n_rows - 1))] if rows else None
    if defect == "ragged":
        if draw(st.booleans()):
            del row[draw(st.integers(0, 3))]
        else:
            row.insert(0, "0.5")
    elif defect == "label":
        row[4] = draw(st.sampled_from(["1.5", "-1", "1e30", "3", "one", ""]))
    elif defect == "feature":
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "abc"]))
    return "x0,x1,x2,x3,label\n" + "".join(",".join(r) + "\n" for r in rows)


class TestInputBoundary:
    @given(
        command=st.sampled_from(["stats", "lissa", "similarity", "pbrf-compare"]),
        text=malformed_datasets(),
    )
    @settings(max_examples=60, deadline=None)
    def test_malformed_dataset_file_is_two(self, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            data.write_text(text)
            cfg = Path(tmp) / "run.cfg"
            solver = "n_test = 2\nn_train = 5\neta = 0.1\nt_steps = 2\n"
            cfg.write_text(LINEAR_4_3 + f"dataset_path = {data}\n" + solver)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        assert code == 2
        assert err.getvalue().startswith("config error: ") and "Traceback" not in err.getvalue()

    @given(
        trace=EXTREMES,
        lambda_max=EXTREMES,
        lambda_damp=st.none() | EXTREMES,
        c_const=st.none() | EXTREMES,
        t_multiplier=st.none() | EXTREMES,
    )
    @example(trace=1e10, lambda_max=1e-300, lambda_damp=None, c_const=None, t_multiplier=None)
    @example(trace=1.0, lambda_max=1.0, lambda_damp=None, c_const=1e300, t_multiplier=None)
    @settings(max_examples=150, deadline=None)
    def test_recommend_exits_cleanly(self, trace, lambda_max, lambda_damp, c_const, t_multiplier):
        # recommend does no iterative numerics: a config error (2) or settings
        # the solvers accept, never an overflow exit or an escaping exception
        text = config_text(
            dict(trace=trace, lambda_max=lambda_max, lambda_damp=lambda_damp,
                 c_const=c_const, t_multiplier=t_multiplier)
        )
        code, outputs = run_main("recommend", text)
        assert code in (0, 2)
        if code == 0:
            eta, batch, t_steps = outputs["recommend.csv"].splitlines()[1].split(",")[:3]
            assert 1 <= int(batch) <= cli.MAX_DRAW_WORDS
            assert t_steps == "" or 1 <= int(t_steps) <= cli.MAX_T_STEPS

    @given(
        eigenvalues=st.lists(EXTREMES, min_size=1, max_size=6),
        batch_size=st.none() | st.integers(1, 64) | st.integers(10**10, 10**12),
        lambda_damp=st.none() | EXTREMES,
        eta=st.none() | EXTREMES,
        t_max=st.integers(0, 20),
        n_runs=st.integers(0, 20),
    )
    @example(eigenvalues=[1.0, 1.0], batch_size=10**11, lambda_damp=None, eta=None, t_max=3, n_runs=2)
    @settings(max_examples=150, deadline=None)
    def test_counterexample_exits_cleanly(self, eigenvalues, batch_size, lambda_damp, eta, t_max, n_runs):
        text = config_text(
            dict(batch_size=batch_size, lambda_damp=lambda_damp, eta=eta, t_max=t_max, n_runs=n_runs)
        )
        text += "eigenvalues = " + ", ".join(repr(x) for x in eigenvalues) + "\n"
        code, _ = run_main("counterexample", text)
        assert code in (0, 2, 3, 4)

    @given(
        command=st.sampled_from(["lissa", "convergence", "pbrf-compare"]),
        model=st.sampled_from([LINEAR_4_3, MLP_4_5_3]),
        n_examples=st.integers(1, 40),
        n_test=st.integers(1, 10),
        n_train=st.integers(1, 6),
        t_steps=STEPS,
        pbrf_steps=st.none() | STEPS,
        snapshot_every=st.none() | STEPS,
        batch_size=st.none() | BATCHES,
        batch_sizes=st.lists(BATCHES, min_size=1, max_size=3),
        eta=st.none() | EXTREMES,
        lambda_damp=st.none() | EXTREMES,
        init_scale=st.none() | EXTREMES,
        tolerance=st.none() | st.just(0.5),
    )
    @example(command="pbrf-compare", model=MLP_4_5_3, n_examples=30, n_test=5, n_train=2, t_steps=3,
             pbrf_steps=10**12, snapshot_every=None, batch_size=None, batch_sizes=[4], eta=0.5,
             lambda_damp=None, init_scale=None, tolerance=None)
    # an overflowing model's dense GNH is NaN: once a traceback, exit 1
    @example(command="lissa", model=MLP_4_5_3, n_examples=30, n_test=5, n_train=2, t_steps=3,
             pbrf_steps=None, snapshot_every=None, batch_size=None, batch_sizes=[4], eta=None,
             lambda_damp=None, init_scale=1.7e308, tolerance=0.5)
    @example(command="convergence", model=MLP_4_5_3, n_examples=30, n_test=5, n_train=2, t_steps=3,
             pbrf_steps=None, snapshot_every=None, batch_size=None, batch_sizes=[4], eta=None,
             lambda_damp=None, init_scale=1.7e308, tolerance=None)
    # u* of size 1e-300: its norm underflowed and the relative error read 0 / 0
    @example(command="lissa", model=LINEAR_4_3, n_examples=1, n_test=1, n_train=1, t_steps=1,
             pbrf_steps=None, snapshot_every=None, batch_size=None, batch_sizes=[1], eta=None,
             lambda_damp=1e300, init_scale=None, tolerance=0.5)
    @settings(max_examples=150, deadline=None)
    def test_solver_commands_exit_cleanly(
        self, command, model, n_examples, n_test, n_train, t_steps, pbrf_steps, snapshot_every,
        batch_size, batch_sizes, eta, lambda_damp, init_scale, tolerance,
    ):
        text = model + config_text(
            dict(n_examples=n_examples, n_test=n_test, n_train=n_train, t_steps=t_steps,
                 pbrf_steps=pbrf_steps, snapshot_every=snapshot_every, batch_size=batch_size,
                 eta=eta, lambda_damp=lambda_damp, init_scale=init_scale, tolerance=tolerance)
        )
        text += "batch_sizes = " + ", ".join(str(b) for b in batch_sizes) + "\n"
        code, outputs = run_main(command, text)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert non_finite_cells(outputs) == []


    @given(
        command=st.sampled_from(["stats", "condition-c1"]),
        model=st.sampled_from([LINEAR_4_3, MLP_4_5_3]),
        n_examples=EXAMPLES,
        n_probes=st.integers(2, 6) | st.sampled_from([cli.MAX_PROBES + 1, 10**12]),
        sketch_dim=st.integers(2, 8),
        batch_sizes=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        init_scale=st.none() | EXTREMES,
        lambda_damp=st.none() | EXTREMES,
    )
    # an overflowing model's sketch is NaN: once a traceback, exit 1
    @example(command="stats", model=MLP_4_5_3, n_examples=None, n_probes=6, sketch_dim=8,
             batch_sizes=[4], init_scale=1.7e308, lambda_damp=None)
    @example(command="stats", model=MLP_4_5_3, n_examples=None, n_probes=10**12, sketch_dim=8,
             batch_sizes=[4], init_scale=None, lambda_damp=None)
    @example(command="condition-c1", model=MLP_4_5_3, n_examples=None, n_probes=10**12, sketch_dim=8,
             batch_sizes=[4, 8], init_scale=None, lambda_damp=None)
    @example(command="stats", model=MLP_4_5_3, n_examples=10**13, n_probes=2, sketch_dim=8,
             batch_sizes=[4], init_scale=None, lambda_damp=None)
    @example(command="condition-c1", model=MLP_4_5_3, n_examples=None, n_probes=4, sketch_dim=8,
             batch_sizes=[4, 8], init_scale=1e300, lambda_damp=None)
    @example(command="condition-c1", model=LINEAR_4_3, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[2, 2], init_scale=None, lambda_damp=None)
    @example(command="stats", model=MLP_4_5_3, n_examples=None, n_probes=2, sketch_dim=8,
             batch_sizes=[4], init_scale=None, lambda_damp=5e-324)
    @example(command="stats", model=LINEAR_4_3, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4], init_scale=None, lambda_damp=1.7e308)
    @example(command="condition-c1", model=MLP_4_5_3, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4], init_scale=None, lambda_damp=-1.0)
    @settings(max_examples=60, deadline=None)
    def test_spectral_commands_exit_cleanly(
        self, command, model, n_examples, n_probes, sketch_dim, batch_sizes, init_scale, lambda_damp
    ):
        text = model + config_text(
            dict(n_examples=n_examples, n_probes=n_probes, sketch_dim=sketch_dim, init_scale=init_scale,
                 lambda_damp=lambda_damp)
        )
        text += "batch_sizes = " + ", ".join(str(b) for b in batch_sizes) + "\n"
        code, outputs = run_main(command, text)
        assert code in (0, 2)
        if code == 0:
            assert non_finite_cells(outputs) == []

    @given(
        n_docs=st.integers(1, 12),
        doc_length=st.integers(1, 12) | st.sampled_from([cli.MAX_KEPT_FLOATS + 1, 10**12]),
        vocab_size=st.integers(2, 12) | st.sampled_from([3163, 10**11]),
        lambda_damp=st.none() | EXTREMES,
    )
    @example(n_docs=50, doc_length=8, vocab_size=10**11, lambda_damp=None)
    @example(n_docs=4, doc_length=8, vocab_size=6, lambda_damp=5e-324)
    @example(n_docs=4, doc_length=8, vocab_size=6, lambda_damp=1e-310)
    @example(n_docs=4, doc_length=8, vocab_size=6, lambda_damp=1.6e-309)
    @settings(max_examples=60, deadline=None)
    def test_tfidf_check_exits_cleanly(self, n_docs, doc_length, vocab_size, lambda_damp):
        code, outputs = run_main(
            "tfidf-check",
            config_text(dict(n_docs=n_docs, doc_length=doc_length, vocab_size=vocab_size,
                             lambda_damp=lambda_damp)),
        )
        assert code in (0, 2)
        if code == 0:
            assert non_finite_cells(outputs) == []

    @given(text=corpus_texts(), lambda_damp=st.none() | EXTREMES)
    @example(text="a b a\n\nb b a\n", lambda_damp=5e-324)
    @example(text="a a\na a\n", lambda_damp=None)
    @example(text="a b\nb\n", lambda_damp=None)
    @example(text="\n\n", lambda_damp=None)
    @settings(max_examples=60, deadline=None)
    def test_tfidf_check_corpus_file_exits_cleanly(self, text, lambda_damp):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.txt"
            corpus.write_text(text)
            cfg = f"corpus_path = {corpus}\n" + config_text(dict(lambda_damp=lambda_damp))
            code, outputs = run_main("tfidf-check", cfg)
        assert code in (0, 2)
        if code == 0:
            assert non_finite_cells(outputs) == []

    def test_tfidf_check_many_documents_is_two_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("corpus sampled before a config-decided error")

        monkeypatch.setattr("lissakit.cli.sample_corpus", refuse)
        for n_docs in (3163, 10**12):
            code, _ = run_main("tfidf-check", f"n_docs = {n_docs}\ndoc_length = 1\nvocab_size = 2\n")
            assert code == 2

    def test_tfidf_check_corpus_file_pairs_are_checked_after_parsing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair table built over the limit")

        monkeypatch.setattr("lissakit.cli.tfidf_equivalence_check", refuse)
        corpus = write(tmp_path, "corpus.txt", "a b\n" * 3163)
        code, _ = run_cli(tmp_path, "tfidf-check", f"corpus_path = {corpus}\n")
        assert code == 2
        assert "n_docs = 3163 squared document pairs" in capsys.readouterr().err

    @given(
        model=st.sampled_from([LINEAR_4_3, MLP_4_5_3]),
        n_examples=EXAMPLES,
        n_items=st.none() | st.integers(0, 10),
        train_index=st.none() | st.integers(0, 10),
        init_scale=st.none() | EXTREMES,
        lambda_damp=st.none() | EXTREMES,
    )
    @example(model=MLP_4_5_3, n_examples=None, n_items=None, train_index=None, init_scale=1e300,
             lambda_damp=None)
    @example(model=MLP_4_5_3, n_examples=10**13, n_items=None, train_index=None, init_scale=None,
             lambda_damp=None)
    @example(model=MLP_4_5_3, n_examples=None, n_items=None, train_index=None, init_scale=1.7e308,
             lambda_damp=None)
    @example(model=LINEAR_4_3, n_examples=None, n_items=None, train_index=None, init_scale=None,
             lambda_damp=5e-324)
    @example(model=MLP_4_5_3, n_examples=None, n_items=None, train_index=None, init_scale=None,
             lambda_damp=1e-310)
    @example(model=MLP_4_5_3, n_examples=None, n_items=None, train_index=None, init_scale=None,
             lambda_damp=1.7e308)
    @settings(max_examples=60, deadline=None)
    def test_similarity_exits_cleanly(self, model, n_examples, n_items, train_index, init_scale,
                                      lambda_damp):
        text = model + config_text(
            dict(n_examples=n_examples, n_items=n_items, train_index=train_index, init_scale=init_scale,
                 lambda_damp=lambda_damp)
        )
        code, outputs = run_main("similarity", text)
        assert code in (0, 2)
        if code == 0:
            assert non_finite_cells(outputs) == []


    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("lissa", "tolerance = 0.5\n", "init_scale = 1e-200"),
            ("convergence", "n_test = 5\nbatch_sizes = 4\n", "init_scale = 1e-200"),
            ("stats", "sketch_dim = 4\n", "init_scale = 1e-200"),
            # the gradients' inner products overflow before the dense matrix is built
            ("similarity", "", "no similarity matrix"),
        ],
    )
    def test_overflowing_curvature_is_two(self, tmp_path, capsys, command, extra, message):
        # features of 1e200 at init_scale 1e-200: finite logits, but J^T S J
        # overflows; a NaN matrix once reached eigh and ended in a traceback
        X = np.linspace(-2.0, 3.0, 30 * 4).reshape(30, 4) ** 3 * 1e200
        rows = "".join(",".join(repr(float(v)) for v in x) + f",{i % 3}\n" for i, x in enumerate(X))
        data = write(tmp_path, "huge.csv", "x0,x1,x2,x3,label\n" + rows)
        text = LINEAR_4_3 + f"init_scale = 1e-200\ndataset_path = {data}\n" + extra
        code, out = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-finite" in err and message in err
        assert "Traceback" not in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("train_index, code", [(0, 0), (2, 2)])
    def test_tolerance_needs_a_nonzero_oracle_solution(self, tmp_path, capsys, train_index, code):
        # at init_scale 1e300 the softmax is one-hot: example 2's gradient is
        # exactly zero, and its relative error once read 0 / 0 = nan, exit 0
        text = LINEAR_4_3 + f"init_scale = 1e300\ntolerance = 0.5\ntrain_index = {train_index}\n"
        assert run_cli(tmp_path, "lissa", text)[0] == code
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        if code == 2:
            assert "gradient at train_index = 2 is zero" in captured.err

    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", ""), ("stats", ""), ("condition-c1", "batch_sizes = 4\n"), ("similarity", ""),
         ("convergence", "n_test = 5\nbatch_sizes = 4\n"), ("pbrf-compare", "n_test = 5\neta = 0.5\n")],
    )
    def test_overflowing_logits_are_two_before_any_gradient(self, tmp_path, capsys, monkeypatch, command, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("gradient or curvature of an overflowing model")

        for name in ("loss_gradient", "gnh_matrix_exact", "GnhOperator", "check_condition_c1"):
            monkeypatch.setattr(f"lissakit.cli.{name}", refuse)
        code, _ = run_cli(tmp_path, command, MLP_4_5_3 + "init_scale = 1.7e308\n" + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "logits overflow" in err and "init_scale = 1.7e+308" in err


class TestKeptIterates:
    def test_lissa_keeps_no_snapshots(self, tmp_path, monkeypatch):
        # lissa writes the norms and the final iterate, so it asks for no copies
        intervals = []
        real_solve = cli.lissa_solve

        def solve(op, g, cfg):
            intervals.append(cfg.snapshot_every)
            return real_solve(op, g, cfg)

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        text = QUAD_CFG.replace("snapshot_every = 50", "snapshot_every = 1")
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 0 and intervals == [0]

    @pytest.mark.parametrize("interval, expected", [("snapshot_every = 1\n", 2), ("", 3)])
    def test_convergence_over_the_kept_iterate_limit_is_two_before_any_solve(
        self, tmp_path, capsys, monkeypatch, interval, expected
    ):
        # 43 parameters: (10^6 + 1) snapshots are over MAX_KEPT_FLOATS, while the
        # default interval T/50 keeps 51 and reaches the (patched) solve
        def diverge(op, g, cfg):
            raise LissaDivergenceError(step=1, norm=math.inf)

        monkeypatch.setattr("lissakit.cli.lissa_solve", diverge)
        text = MLP_4_5_3 + f"n_examples = 30\neta = 0.1\nt_steps = {cli.MAX_T_STEPS}\n"
        code, _ = run_cli(tmp_path, "convergence", text + interval + "batch_sizes = 4\nn_test = 5\n")
        assert code == expected
        if expected == 2:
            err = capsys.readouterr().err
            assert "config error" in err and "MAX_KEPT_FLOATS" in err
            assert "t_steps" in err and "snapshot_every = 1" in err and "43 parameters" in err

    def test_counterexample_over_the_kept_iterate_limit_is_two_before_the_build(
        self, tmp_path, capsys, monkeypatch
    ):
        # each run keeps (t_max + 1) times len(eigenvalues) floats per table
        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        monkeypatch.setattr("lissakit.cli.counterexample_build", refuse)
        n = cli.MAX_KEPT_FLOATS // cli.MAX_T_STEPS
        ones = ", ".join(["1"] * n)
        code, _ = run_cli(tmp_path, "counterexample", f"eigenvalues = {ones}\nt_max = {cli.MAX_T_STEPS}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "MAX_KEPT_FLOATS" in err
        assert f"t_max = {cli.MAX_T_STEPS}" in err and f"{n} eigenvalues" in err
        with pytest.raises(Built):  # exactly MAX_KEPT_FLOATS floats is allowed
            run_cli(tmp_path, "counterexample", f"eigenvalues = {ones}\nt_max = {cli.MAX_T_STEPS - 1}\n",
                    name="at-limit")


class TestArtifacts:
    def test_every_file_has_a_header_row(self, tmp_path):
        cfg_text = QUAD_CFG.replace("t_steps = 400", "t_steps = 60")
        cfg_text += "n_test = 8\nbatch_sizes = 16, 64\n"
        _, out = run_cli(tmp_path, "convergence", cfg_text)
        for path in out.glob("*.csv"):
            first = path.read_text().splitlines()[0]
            assert first[0].isalpha(), f"{path.name} lacks a header row"

    def test_stats_emits_spectrum_summary(self, tmp_path, capsys):
        cfg_text = "model_kind = softmax-linear\nlayer_sizes = 10, 4\nn_examples = 128\nlambda_damp = 0.5\nn_probes = 200\nsketch_dim = 16\nseed = 3\n"
        code, out = run_cli(tmp_path, "stats", cfg_text)
        assert code == 0
        header, row = (out / "stats.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["n_params"] == "44"
        assert float(values["trace"]) > 0
        assert float(values["eta"]) == pytest.approx(
            1.0 / (float(values["lambda_max"]) + 0.5), rel=1e-12
        )

    def test_condition_c1_full_batch_row_is_zero(self, tmp_path):
        cfg_text = (
            "model_kind = softmax-linear\nlayer_sizes = 10, 4\nn_examples = 64\n"
            "batch_sizes = 8, 64\nn_probes = 100\nseed = 3\n"
        )
        code, out = run_cli(tmp_path, "condition-c1", cfg_text)
        assert code == 0
        lines = (out / "condition_c1.csv").read_text().splitlines()
        full_row = [line for line in lines if line.startswith("64,")][0]
        assert float(full_row.split(",")[1]) == 0.0

    def test_condition_c1_on_a_zero_gauss_newton_matrix_is_two(self, tmp_path, capsys):
        # init_scale = 1e300 saturates every tanh and softmax, so H = 0 and the
        # C = 1 reference Tr(H)^2/(n |B|) is zero: no ratio to report
        code, out = run_cli(tmp_path, "condition-c1", MLP_4_5_3 + "init_scale = 1e300\nbatch_sizes = 4, 8\n")
        assert code == 2
        assert "is not positive" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    def test_pbrf_pairs_follow_train_then_test_order(self, tmp_path, monkeypatch):
        compared = []
        real_compare = cli.compare_influences

        def compare(lissa, pbrf):
            compared.append((lissa, pbrf))
            return real_compare(lissa, pbrf)

        monkeypatch.setattr("lissakit.cli.compare_influences", compare)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 3\nn_test = 4\n"
        code, out = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        (lissa, pbrf), = compared
        assert lissa.shape == pbrf.shape == (3, 4)
        rows = [line.split(",") for line in (out / "pbrf_pairs.csv").read_text().splitlines()[1:]]
        # the 256 train examples take ids 0..255 and the 4 held-out test points 256..259
        assert [(r[0], r[1]) for r in rows] == [(str(i), str(256 + j)) for i in range(3) for j in range(4)]
        for k, row in enumerate(rows):
            assert (float(row[2]), float(row[3])) == (lissa[k // 4, k % 4], pbrf[k // 4, k % 4])

    def test_counterexample_reports_growth(self, tmp_path, capsys):
        cfg_text = (
            "eigenvalues = 1,1,1,1,1,1,1,1,1,1\nbatch_size = 1\nlambda_damp = 0.1\n"
            "n_runs = 100\nt_max = 3\nseed = 3\n"
        )
        code, out = run_cli(tmp_path, "counterexample", cfg_text)
        assert code == 0
        printed = capsys.readouterr().out
        assert "max_growth_factor = 7.438016528925" in printed
        lines = (out / "counterexample.csv").read_text().splitlines()[1:]
        exact = [float(line.split(",")[1]) for line in lines]
        assert exact[1] == pytest.approx(7.438016528925, rel=1e-9)
        assert exact[3] > exact[2] > exact[1] > exact[0]

    def test_tfidf_check_within_tolerance(self, tmp_path, capsys):
        cfg_text = (
            "n_docs = 50\ndoc_length = 8\nvocab_size = 10\nlambda_damp = 1e-8\n"
            "tolerance = 1e-6\nseed = 3\n"
        )
        code, out = run_cli(tmp_path, "tfidf-check", cfg_text)
        assert code == 0
        header = (out / "tfidf_pairs.csv").read_text().splitlines()[0]
        assert header == "doc_a,doc_b,influence_exact,tfidf_sum,tfidf_form,abs_diff"

    def test_tfidf_pairs_are_the_upper_triangle(self, tmp_path, capsys):
        # one row per unordered pair a <= b, in row-major order, read off the
        # (n_docs, n_docs) arrays of tfidf_equivalence_check
        code, out = run_cli(tmp_path, "tfidf-check", "n_docs = 7\ndoc_length = 3\nvocab_size = 4\n")
        assert code == 0
        rows = [line.split(",") for line in (out / "tfidf_pairs.csv").read_text().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(a, b) for a in range(7) for b in range(a, 7)]
        for r in rows:
            assert float(r[5]) == abs(float(r[2]) - float(r[4]))
        worst = capsys.readouterr().out.split("worst_abs_diff = ")[1].strip()
        assert worst == max((r[5] for r in rows), key=float)

    @pytest.mark.parametrize("lambda_damp", [1e-300, 1e-308, 5e-324])
    def test_tfidf_check_at_tiny_damping_gives_the_limit(self, tmp_path, capsys, lambda_damp):
        # the default synthetic corpus: 50 documents of doc_length = 8 terms
        code, out = run_cli(tmp_path, "tfidf-check", f"lambda_damp = {lambda_damp!r}\n")
        assert code == 0
        worst = float(capsys.readouterr().out.split("worst_abs_diff = ")[1])
        assert worst <= 1e-9 * 8**2
        lines = (out / "tfidf_pairs.csv").read_text().splitlines()[1:]
        assert max(float(line.split(",")[-1]) for line in lines) == worst

    def test_tfidf_check_corpus_file_and_mismatch(self, tmp_path):
        corpus = write(tmp_path, "corpus.txt", "a a\na b\nb b\n")
        cfg_text = f"corpus_path = {corpus}\nlambda_damp = 10.0\ntolerance = 1e-9\n"
        code, _ = run_cli(tmp_path, "tfidf-check", cfg_text)
        assert code == 4

    def test_similarity_outputs(self, tmp_path):
        cfg_text = (
            "model_kind = softmax-linear\nlayer_sizes = 10, 4\nn_examples = 64\n"
            "n_items = 5\nlambda_damp = 0.5\nseed = 3\n"
        )
        code, out = run_cli(tmp_path, "similarity", cfg_text)
        assert code == 0
        grad_lines = (out / "gradient_similarity.csv").read_text().splitlines()
        infl_lines = (out / "influence_similarity.csv").read_text().splitlines()
        diff_lines = (out / "similarity_difference.csv").read_text().splitlines()
        assert grad_lines[0] == "item,0,1,2,3,4"
        assert infl_lines[0] == grad_lines[0]

        def parse(lines):
            return np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])

        grad, infl, diff = parse(grad_lines), parse(infl_lines), parse(diff_lines)
        np.testing.assert_allclose(diff, grad - infl, atol=1e-12)
        np.testing.assert_allclose(np.diag(infl), 1.0, atol=1e-9)
        np.testing.assert_allclose(infl, infl.T, atol=1e-9)
        reweight = (out / "eigen_reweight.csv").read_text().splitlines()
        assert reweight[0] == "eigenvalue,coefficient,weight"
        assert len(reweight) == 1 + 44

    def test_dataset_file_round_trip(self, tmp_path):
        from lissakit.core import SeededRng
        from lissakit.models import make_blobs, save_dataset_csv

        data = make_blobs(SeededRng(5), 64, 10, 4)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, str(path))
        cfg_text = (
            f"model_kind = softmax-linear\nlayer_sizes = 10, 4\ndataset_path = {path}\n"
            "lambda_damp = 0.5\nbatch_size = 16\nt_steps = 50\nseed = 3\n"
        )
        code, out = run_cli(tmp_path, "lissa", cfg_text)
        assert code == 0
        assert (out / "solution.csv").exists()

    def test_dataset_shape_mismatch_is_two(self, tmp_path):
        from lissakit.core import SeededRng
        from lissakit.models import make_blobs, save_dataset_csv

        data = make_blobs(SeededRng(5), 16, 7, 4)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, str(path))
        cfg_text = (
            f"model_kind = softmax-linear\nlayer_sizes = 10, 4\ndataset_path = {path}\n"
        )
        code, _ = run_cli(tmp_path, "stats", cfg_text)
        assert code == 2

    def test_negative_label_is_two(self, tmp_path):
        from lissakit.core import SeededRng
        from lissakit.models import make_blobs, save_dataset_csv

        data = make_blobs(SeededRng(5), 16, 10, 4)
        data.y[3] = -1
        path = tmp_path / "data.csv"
        save_dataset_csv(data, str(path))
        cfg_text = (
            f"model_kind = softmax-linear\nlayer_sizes = 10, 4\ndataset_path = {path}\n"
            "lambda_damp = 0.5\nbatch_size = 4\nt_steps = 5\n"
        )
        code, _ = run_cli(tmp_path, "lissa", cfg_text)
        assert code == 2

    @pytest.mark.parametrize("feature", ["nan", "1e400"])
    def test_non_finite_feature_is_two(self, tmp_path, capsys, feature):
        from lissakit.core import SeededRng
        from lissakit.models import make_blobs, save_dataset_csv

        path = tmp_path / "data.csv"
        save_dataset_csv(make_blobs(SeededRng(5), 16, 10, 4), str(path))
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = feature
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        cfg_text = (
            f"model_kind = softmax-linear\nlayer_sizes = 10, 4\ndataset_path = {path}\n"
            "lambda_damp = 0.5\nbatch_size = 4\nt_steps = 5\n"
        )
        for command in ("stats", "lissa"):
            code, _ = run_cli(tmp_path, command, cfg_text, name=command)
            assert code == 2, command
            assert "features must be finite" in capsys.readouterr().err, command
