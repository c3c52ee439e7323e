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

from lissakit import cli, core, gnh, pbrf
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
from lissakit.lissa import LissaDivergenceError, RotatedRankOneSampler

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

# 3466 parameters, over MAX_DENSE_PARAMS
MLP_16_128_10 = "model_kind = mlp\nlayer_sizes = 16, 128, 10\n"

# 5 * 10^10 + 3 parameters, over MAX_KEPT_FLOATS
MLP_HUGE = "model_kind = mlp\nlayer_sizes = 4, 10000000000, 3\n"


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
        # a set fd_delta selects central differences; there is no mode field
        with pytest.raises(ConfigError, match="unknown config field 'hvp_mode'"):
            ExperimentConfig.from_text("hvp_mode = fd\n")
        for text in (
            "n_examples = 0\n",
            "n_probes = 1\n",
            "sketch_dim = 1\n",
            "batch_size = 0\n",
            "batch_sizes = 4, 0\n",
            "eta = -1\n",
            "t_steps = 0\n",
            "fd_delta = 0\n",
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


class TestFiniteDifferences:
    """lissa and condition-c1 with fd_delta set take J v by central
    differences: two forward passes per HVP in place of one forward-mode sweep,
    or, for a small draw, in place of the row path's two GEMVs."""

    @staticmethod
    def counted_run(tmp_path, monkeypatch, name, extra):
        calls = {"_forward": 0, "_jvp_batch": 0, "_row_hvp": 0, "matvec": 0}

        def counting(owner, attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for attr in ("_forward", "_jvp_batch", "_row_hvp"):
            counting(gnh, attr)
        counting(GnhOperator, "matvec")
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 20") + extra
        code, out = run_cli(tmp_path, "lissa", text, name=name)
        monkeypatch.undo()
        assert code == 0
        solution = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]
        return calls, solution

    def test_fd_delta_takes_two_forward_passes_per_hvp(self, tmp_path, monkeypatch, capsys):
        exact, u_exact = self.counted_run(tmp_path, monkeypatch, "exact", "")
        fd, u_fd = self.counted_run(tmp_path, monkeypatch, "fd", "fd_delta = 0.01\n")
        # B K n = 11,264: without fd_delta every draw takes the row path
        assert exact == {"_forward": 0, "_jvp_batch": 0, "_row_hvp": 20, "matvec": 20}
        assert fd == {"_forward": 40, "_jvp_batch": 0, "_row_hvp": 0, "matvec": 20}
        # a linear model's logits are linear in theta: the difference is exact
        # up to rounding
        assert np.allclose(u_fd, u_exact, rtol=1e-12, atol=0)
        assert capsys.readouterr().err == ""

    def test_condition_c1_reads_fd_delta(self, tmp_path):
        # both of its operators take central differences, which move the
        # probe estimates on a nonlinear model; fd_delta was once ignored here
        text = MLP_4_5_3 + "batch_sizes = 4, 8\nn_probes = 50\n"
        tables = [
            (run_cli(tmp_path, "condition-c1", text + extra, name=name)[1] / "condition_c1.csv").read_text()
            for name, extra in (("exact", ""), ("fd", "fd_delta = 0.5\n"))
        ]
        assert tables[0] != tables[1]

    @pytest.mark.parametrize("fd_delta, warns", [("0.01", False), ("1", True)])
    def test_warning_when_step_times_iterate_norm_exceeds_one(self, tmp_path, capsys, fd_delta, warns):
        # the iterate norm peaks near 2.17 on this config
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 20") + f"fd_delta = {fd_delta}\n"
        code, out = run_cli(tmp_path, "lissa", text)
        assert code == 0
        peak = np.loadtxt(out / "lissa_trace.csv", delimiter=",", skiprows=1)[:, 1].max()
        assert (float(fd_delta) * peak > 1.0) == warns
        err = capsys.readouterr().err
        assert ("warning: fd step times iterate norm exceeds 1" in err) == warns


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

    def test_manifest_records_the_numpy_build_before_the_outputs(self, tmp_path, monkeypatch):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        _, out = run_cli(tmp_path, "recommend", RECOMMEND_CFG)
        lines = (out / "manifest.txt").read_text().splitlines()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = [
            f"numpy_version = {np.__version__}",
            f"blas = {blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS = unset",
            "OMP_NUM_THREADS = unset",
            "MKL_NUM_THREADS = unset",
        ]
        first_output = next(i for i, line in enumerate(lines) if line.startswith("output "))
        assert lines[first_output - len(build) : first_output] == build

    @pytest.mark.parametrize("kind", ["dataset", "corpus"])
    def test_input_file_hash_changes_exactly_with_its_bytes(self, tmp_path, capsys, kind):
        from lissakit.core import SeededRng
        from lissakit.models import make_blobs, save_dataset_csv

        path = tmp_path / f"{kind}.txt"
        if kind == "dataset":
            save_dataset_csv(make_blobs(SeededRng(5), 24, 4, 3), str(path))
            command, text = "lissa", LINEAR_4_3 + f"dataset_path = {path}\nlambda_damp = 0.5\nbatch_size = 4\nt_steps = 3\n"
        else:
            path.write_text("a b c\nb c a\nc a b\n")
            command, text = "tfidf-check", f"corpus_path = {path}\nlambda_damp = 1.0\n"

        def run(name):
            code, out = run_cli(tmp_path, command, text, name=name)
            assert code == 0
            lines = (out / "manifest.txt").read_text().splitlines()
            stdout = capsys.readouterr().out
            hashes = [line for line in lines if line.startswith(f"{kind}_sha256 = ")]
            assert len(hashes) == 1 and "sha256" not in stdout
            assert not any(line.startswith("output") and kind in line for line in lines)
            # an input line: after the config hash, before the seed
            assert lines.index(hashes[0]) == lines.index(f"config_sha256 = {sha256_hex(text)}") + 1
            assert lines[lines.index(hashes[0]) + 1].startswith("seed = ")
            return hashes[0].split(" = ")[1], [line for line in lines if line.startswith("output")]

        first, outputs = run("first")
        assert first == sha256_hex(path.read_bytes())
        data = path.read_bytes()
        path.write_bytes(data)  # the same bytes, written again
        assert run("same") == (first, outputs)
        edited = data.replace(b"1", b"2", 1) if kind == "dataset" else data + b"b a c\n"
        assert edited != data
        path.write_bytes(edited)
        changed, _ = run("edited")
        assert changed == sha256_hex(edited) != first
        path.write_bytes(data)
        assert run("restored") == (first, outputs)

    def test_no_input_file_no_input_hash(self, tmp_path):
        _, out = run_cli(tmp_path, "lissa", QUAD_CFG)
        lines = (out / "manifest.txt").read_text().splitlines()
        assert not any(line.startswith(("dataset_sha256", "corpus_sha256")) for line in lines)

    def test_blas_thread_variable_changes_only_its_own_line(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        _, out = run_cli(tmp_path, "recommend", RECOMMEND_CFG, name="unset")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        _, other = run_cli(tmp_path, "recommend", RECOMMEND_CFG, name="three")
        before = (out / "manifest.txt").read_text().splitlines()
        after = (other / "manifest.txt").read_text().splitlines()
        changed = [(a, b) for a, b in zip(before, after) if a != b]
        assert len(before) == len(after)
        assert changed == [("OPENBLAS_NUM_THREADS = unset", "OPENBLAS_NUM_THREADS = 3")]


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

    def test_lissa_covering_batch_writes_the_full_batch_bytes(self, tmp_path):
        # a batch_size of the whole training set runs full batch, as no batch_size does
        covering_cfg = QUAD_CFG.replace("batch_size = 64", "batch_size = 256")
        _, covering = run_cli(tmp_path, "lissa", covering_cfg, name="covering")
        _, full = run_cli(tmp_path, "lissa", QUAD_CFG.replace("batch_size = 64\n", ""), name="full")
        for name in ["lissa_trace.csv", "solution.csv"]:
            assert (covering / name).read_bytes() == (full / name).read_bytes()

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


def _diverging_reseeded(items, diverge_at, calls):
    """GnhOperator.reseeded whose copy for item i (``items`` maps seeds to
    items) returns inf from its ``diverge_at[i]``-th matvec on, and counts
    each item's matvec calls in ``calls``."""
    real_reseeded = GnhOperator.reseeded

    def reseeded(self, seed):
        twin = real_reseeded(self, seed)
        item, matvec = items[seed], twin.matvec

        def counted(v):
            calls[item] = calls.get(item, 0) + 1
            if calls[item] >= diverge_at.get(item, math.inf):
                return np.full(v.shape, np.inf)
            return matvec(v)

        twin.matvec = counted
        return twin

    return reseeded


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
            # saturated tanh and softmax: a zero Gauss-Newton matrix, and at
            # lambda_damp = 0 no step size 1/(lambda_max + lambda_damp)
            ("lissa", MLP_4_5_3 + "init_scale = 1e300\nlambda_damp = 0\nt_steps = 10\n"),
            ("pbrf-compare", MLP_4_5_3 + "init_scale = 1e300\nlambda_damp = 0\nt_steps = 10\n"),
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
            ({2: 2, 3: 3}, False, "iterate diverged at step 2 (norm inf)"),
            ({2: 2}, True, "iterate diverged at step 2 (norm inf)"),
            ({}, True, "finetune overflowed; influences are unavailable"),
            # a higher item that diverges at an earlier step does not hide item 2
            ({2: 4, 3: 1}, False, "iterate diverged at step 4 (norm inf)"),
        ],
    )
    def test_pbrf_compare_fails_on_the_earliest_item(
        self, tmp_path, capsys, monkeypatch, solve_fails, finetune_overflows, message
    ):
        # the solves run first and end the command at a divergence, naming the
        # earliest diverging item, before any finetune; only when every solve
        # converged can a finetune overflow.  Item i's chain diverges at step
        # solve_fails[i], where its operator returns inf; epsilon = 1.7e308
        # drives the finetunes' training term, which the solves never read,
        # to a real overflow.
        items = {component_seed(3, f"pbrf-item-{i}"): i for i in range(6)}
        monkeypatch.setattr(GnhOperator, "reseeded", _diverging_reseeded(items, solve_fails, {}))
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 6\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text + ("epsilon = 1.7e308\n" if finetune_overflows else ""))
        assert code == 3
        assert capsys.readouterr().err == f"numerical overflow: {message}\n"

    def test_pbrf_compare_finetunes_replay_their_solves(self, tmp_path, monkeypatch):
        # item r's finetune draws row for row the batch indices that its solve
        # chain draws: the solve's chains draw (B,) rows each from one seed,
        # the finetunes (n_train, B) rows from the tuple of the items' seeds
        items = {component_seed(3, f"pbrf-item-{i}"): i for i in range(4)}
        solves, finetunes = {}, []
        real_gnh, real_pbrf = gnh.sample_batch, pbrf.sample_batch

        def solve_draw(dataset, size, rng):
            rows = real_gnh(dataset, size, rng)
            solves.setdefault(items[rng.seed], []).append(rows)
            return rows

        def finetune_draw(dataset, size, rng):
            rows = real_pbrf(dataset, size, rng)
            assert [items[int(seed)] for seed in rng.seed] == [0, 1, 2, 3]
            finetunes.append(rows)
            return rows

        # and the command hands one operator and one config to both
        handed = []
        real_solve, real_finetune = cli.lissa_solve, cli.pbrf_finetune

        def solve(op, g, cfg):
            handed.append((op, cfg))
            return real_solve(op, g, cfg)

        def finetune(op, points, cfg, epsilon):
            handed.append((op, cfg))
            return real_finetune(op, points, cfg, epsilon)

        monkeypatch.setattr("lissakit.gnh.sample_batch", solve_draw)
        monkeypatch.setattr("lissakit.pbrf.sample_batch", finetune_draw)
        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        monkeypatch.setattr("lissakit.cli.pbrf_finetune", finetune)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 7") + "n_train = 4\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        [(op, cfg), (op_f, cfg_f)] = handed
        assert op_f is op and cfg_f is cfg
        assert sorted(solves) == [0, 1, 2, 3] and len(finetunes) == 7
        for r in range(4):
            drawn = np.stack([rows[r] for rows in finetunes])
            assert drawn.shape == (7, 64) and np.array_equal(drawn, np.stack(solves[r]))

    def test_pbrf_compare_solves_no_item_after_a_divergence(self, tmp_path, monkeypatch):
        # item 2 diverges at step 2: the items below it step on to T = 5, the
        # items above it stop with it, and no finetune runs
        items = {component_seed(3, f"pbrf-item-{i}"): i for i in range(6)}
        calls = {}
        monkeypatch.setattr(GnhOperator, "reseeded", _diverging_reseeded(items, {2: 2}, calls))

        def finetune(*args):
            raise AssertionError("finetune after a divergence")

        monkeypatch.setattr("lissakit.cli.pbrf_finetune", finetune)
        text = QUAD_CFG.replace("t_steps = 400", "t_steps = 5") + "n_train = 6\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 3
        assert calls == {0: 5, 1: 5, 2: 2, 3: 2, 4: 2, 5: 2}

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
            steps.append((len(cfg.seed), cfg.t_steps))
            return real_solve(op, g, cfg)

        def finetune(op, points, cfg, epsilon):
            steps.append((len(cfg.seed), cfg.t_steps))
            return real_finetune(op, points, cfg, epsilon)

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        monkeypatch.setattr("lissakit.cli.pbrf_finetune", finetune)
        text = MLP_4_5_3 + extra + "pbrf_steps = 5\nn_train = 2\nn_test = 5\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        # one lockstep solve and one lockstep finetune, of both items each
        assert code == 0 and steps == [(2, 5), (2, 5)]

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
        # one lockstep solve of the 4 items
        [(u, full)] = iterates
        assert u.shape == (4, 43) and np.array_equal(u, full)

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
    def test_dense_commands_build_the_gnh_once(self, tmp_path, monkeypatch, command, text):
        # each command builds H once and checks it once; lambda_max comes from
        # Lanczos, and u* from LU or from similarity's eigenbasis, so only
        # similarity runs an eigh of H, and no command runs eigvalsh
        built, checked, decomposed = [], [], []
        build, check, eigh = cli.gnh_matrix_exact, core.check_symmetric, np.linalg.eigh

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def counted_check(m):
            checked.append(1)
            return check(m)

        def counted_eigh(m):
            decomposed.extend(1 for H in built if m is H)
            return eigh(m)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh on the dense GNH")

        monkeypatch.setattr(cli, "gnh_matrix_exact", counted_build)
        monkeypatch.setattr(cli, "check_symmetric", counted_check)
        monkeypatch.setattr(core, "check_symmetric", counted_check)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, _ = run_cli(tmp_path, command, text)
        assert code == 0
        assert len(built) == 1 and len(checked) == 1
        assert len(decomposed) == (1 if command == "similarity" else 0)

    def test_model_too_large_for_derived_settings_is_two(self, tmp_path, capsys):
        text = "model_kind = mlp\nlayer_sizes = 16, 128, 10\nbatch_size = 8\nt_steps = 5\n"
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 2
        assert "only lissa (eta set, no tolerance)" in capsys.readouterr().err

    def test_dense_limit_message_names_stats_which_runs_past_it(self, tmp_path, capsys):
        # 3466 parameters, over MAX_DENSE_PARAMS: stats never builds the dense
        # GNH, so it runs, and the refusal of similarity lists it
        assert gnh.MAX_DENSE_PARAMS < 3466
        text = MLP_16_128_10 + "n_examples = 32\nn_probes = 2\nsketch_dim = 4\nlambda_damp = 0.5\n"
        code, out = run_cli(tmp_path, "stats", text, name="stats")
        assert code == 0
        assert (out / "stats.csv").read_text().splitlines()[1].startswith("3466,")
        capsys.readouterr()
        code, out = run_cli(tmp_path, "similarity", MLP_16_128_10 + "n_examples = 32\nn_items = 4\n", name="sim")
        assert code == 2
        err = capsys.readouterr().err
        assert "a dense GNH of 3466 parameters is over the limit MAX_DENSE_PARAMS" in err
        assert "stats and condition-c1 never build it" in err
        assert not any(out.glob("*.csv"))

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
        if command == "counterexample":
            monkeypatch.setattr("lissakit.cli._build_model", refuse)
        for name in ("counterexample_build", "lissa_solve", "pbrf_finetune"):
            monkeypatch.setattr(f"lissakit.cli.{name}", refuse)
        code, _ = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "MAX_DRAW_WORDS" in err

    @pytest.mark.parametrize(
        "command, extra, field, covered",
        [("lissa", "", "batch_size", None), ("convergence", "n_test = 5\n", "batch_sizes", 256)],
        ids=["lissa", "convergence"],
    )
    def test_covering_batch_draws_nothing(self, tmp_path, monkeypatch, command, extra, field, covered):
        # a batch of 10,000,001 once counted as a draw over MAX_DRAW_WORDS and
        # exited 2; it covers the 256 training examples, so it runs full batch
        base = QUAD_CFG.replace("batch_size = 64\n", "") + extra
        _, full = run_cli(tmp_path, command, base + (covered and f"{field} = {covered}\n" or ""), name="full")

        def refuse(*args, **kwargs):
            raise AssertionError("a covering batch drew examples")

        monkeypatch.setattr("lissakit.gnh.sample_batch", refuse)
        code, covering = run_cli(tmp_path, command, base + f"{field} = 10000001\n", name="covering")
        assert code == 0
        if command == "lissa":
            for name in ("solution.csv", "lissa_trace.csv"):
                assert (covering / name).read_bytes() == (full / name).read_bytes()
        else:
            # the rows differ only in their batch_size cell
            rows = [(out / "convergence.csv").read_text().splitlines()[1:] for out in (covering, full)]
            assert [r.split(",", 1)[1] for r in rows[0]] == [r.split(",", 1)[1] for r in rows[1]]
            assert all(r.startswith("10000001,") for r in rows[0])

    @pytest.mark.parametrize("command, field", [("lissa", "batch_size"), ("convergence", "batch_sizes")])
    def test_draw_is_counted_once_the_operator_exists(self, tmp_path, capsys, monkeypatch, command, field):
        # with the real limits no batch smaller than a training set passes
        # MAX_DRAW_WORDS (a set holds at most MAX_KEPT_FLOATS / 2 examples), so
        # the limit is lowered to 10 words against 30 rows from a file (25 of
        # them training rows for convergence, whose last 5 are its test split)
        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran before its draw was counted")

        rows = "".join(f"{i % 5}.5,{-(i % 7)}.25,{i % 3}.0,{i % 2}.75,{i % 3}\n" for i in range(30))
        data = write(tmp_path, "data.csv", "x0,x1,x2,x3,label\n" + rows)
        text = LINEAR_4_3 + f"dataset_path = {data}\nn_test = 5\nt_steps = 4\nlambda_damp = 0.5\n"
        monkeypatch.setattr(cli, "MAX_DRAW_WORDS", 10)
        assert run_cli(tmp_path, command, text + f"{field} = 30\n", name="covering")[0] == 0
        monkeypatch.setattr("lissakit.cli.lissa_solve", refuse)
        code, _ = run_cli(tmp_path, command, text + f"{field} = 11\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"a draw of {field.replace('batch_sizes', 'batch_sizes entry')}" in err
        assert "11 is over the limit MAX_DRAW_WORDS = 10" in err

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

    def test_counterexample_runs_over_the_probe_limit_is_two_before_any_work(self, tmp_path, capsys, monkeypatch):
        # n_runs = 10^12 once derived one seed per run, asked for 7.28 TiB and
        # ended in a traceback with exit 1
        def refuse(*args, **kwargs):
            raise AssertionError("work before a config-decided error")

        monkeypatch.setattr("lissakit.cli.counterexample_build", refuse)
        monkeypatch.setattr("lissakit.cli.counterexample_simulate", refuse)
        text = "eigenvalues = 1, 1, 1\nlambda_damp = 0.1\nbatch_size = 1\nt_max = 2\nn_runs = 1000000000000\n"
        code, out = run_cli(tmp_path, "counterexample", text)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: n_runs = 1000000000000 is over the limit MAX_PROBES = 1000000\n"
        assert not (out / "counterexample.csv").exists()

    def test_counterexample_eigenvalue_count_over_dense_limit_is_two(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rotation drawn for too many eigenvalues")

        monkeypatch.setattr("lissakit.cli.counterexample_build", refuse)
        ones = ", ".join(["1"] * (cli.MAX_DENSE_PARAMS + 1))
        code, _ = run_cli(tmp_path, "counterexample", f"eigenvalues = {ones}\nt_max = 2\nn_runs = 2\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "eigenvalues" in err

    def test_model_over_the_kept_float_limit_is_two_before_init(self, tmp_path, capsys, monkeypatch):
        # once numpy's "Maximum allowed dimension exceeded" in init_params, exit 1
        def refuse(*args, **kwargs):
            raise AssertionError("parameters drawn for a model over the limit")

        monkeypatch.setattr("lissakit.cli.init_params", refuse)
        text = "model_kind = mlp\nlayer_sizes = 10000000000, 10000000000, 2\nbatch_sizes = 2\n"
        for command in ("stats", "condition-c1", "lissa"):
            code, _ = run_cli(tmp_path, command, text, name=command)
            assert code == 2
            err = capsys.readouterr().err
            assert "config error" in err and "MAX_KEPT_FLOATS" in err and "layer_sizes" in err

    def test_condition_c1_wide_trace_factor_is_two_before_the_data(self, tmp_path, capsys, monkeypatch):
        # 20,005 parameters, but one example's factor of the 4000-wide hidden
        # layer is 4000 classes times 4000 floats
        def refuse(*args, **kwargs):
            raise AssertionError("data built for a trace factor over the limit")

        monkeypatch.setattr("lissakit.cli._build_data", refuse)
        text = "model_kind = mlp\nlayer_sizes = 1, 4000, 1, 4000\nbatch_sizes = 2\n"
        code, _ = run_cli(tmp_path, "condition-c1", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "16000000 floats" in err and "MAX_KEPT_FLOATS" in err

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
    # u* of size 1e300: its scores' squares overflowed in the correlation
    @example(command="convergence", model=LINEAR_4_3, n_examples=1, n_test=3, n_train=1, t_steps=1,
             pbrf_steps=None, snapshot_every=None, batch_size=None, batch_sizes=[1], eta=5e-324,
             lambda_damp=1e-300, init_scale=1e5, tolerance=None)
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
        model=st.sampled_from([LINEAR_4_3, MLP_4_5_3, MLP_16_128_10, MLP_HUGE]),
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
    # either side of the parameter-count limits: condition-c1 needs no dense GNH,
    # and a model over MAX_KEPT_FLOATS once ended in a traceback in init_params
    @example(command="condition-c1", model=MLP_16_128_10, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4, 64], init_scale=None, lambda_damp=None)
    @example(command="stats", model=MLP_16_128_10, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4], init_scale=None, lambda_damp=None)
    @example(command="condition-c1", model=MLP_HUGE, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4], init_scale=None, lambda_damp=None)
    @example(command="stats", model=MLP_HUGE, n_examples=None, n_probes=2, sketch_dim=2,
             batch_sizes=[4], init_scale=None, lambda_damp=None)
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

    def test_tfidf_check_undecodable_corpus_is_two(self, tmp_path, capsys):
        # once a UnicodeDecodeError traceback with exit code 1
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a b\n\xff\xfe c\n")
        code, out = run_cli(tmp_path, "tfidf-check", f"corpus_path = {corpus}\n")
        assert code == 2
        assert f"cannot read corpus {str(corpus)!r}" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

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
        if command != "similarity":
            assert f"and dataset_path = {data!r}; lower init_scale or the scale of the dataset's features" in err

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

        for name in ("loss_gradients", "gnh_matrix_exact", "GnhOperator", "check_condition_c1"):
            monkeypatch.setattr(f"lissakit.cli.{name}", refuse)
        code, _ = run_cli(tmp_path, command, MLP_4_5_3 + "init_scale = 1.7e308\n" + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "logits overflow" in err and "init_scale = 1.7e+308" in err

    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", ""), ("stats", ""), ("condition-c1", "batch_sizes = 4\n"), ("similarity", ""),
         ("convergence", "n_test = 5\nbatch_sizes = 4\n"), ("pbrf-compare", "n_test = 5\neta = 0.5\n")],
    )
    def test_non_finite_features_name_separation(self, tmp_path, capsys, command, extra):
        # at seed 2 a class mean overflows to inf; tanh kept the logits finite,
        # and each command once failed further down, on a sketch, a dense GNH
        # or a gradient
        code, out = run_cli(tmp_path, command, MLP_4_5_3 + "separation = 1.7e308\nseed = 2\n" + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: separation = 1.7e+308 gives non-finite features" in err
        assert "Traceback" not in err and not any(out.glob("*.csv"))

    def test_dense_gnh_overflow_names_separation(self, tmp_path, capsys):
        # a linear model at init_scale 1e-200 on features of about 1e200 has
        # logits of about 1, so its centered factors R are about 1 and its
        # Jacobian rows R kron [x, 1] about 1e200: H, about 1e400, overflows;
        # the message once blamed init_scale alone.  lissa reads H first;
        # similarity's cosine Gram of the gradients overflows before it
        text = LINEAR_4_3 + "init_scale = 1e-200\nseparation = 1e200\n"
        code, out = run_cli(tmp_path, "lissa", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: no dense Gauss-Newton matrix" in err
        assert "at init_scale = 1e-200 and separation = 1e+200; lower init_scale or separation" in err
        assert not any(out.glob("*.csv"))
        code, out = run_cli(tmp_path, "similarity", text, name="similarity")
        assert code == 2
        assert "config error: no similarity matrix: non-finite similarity" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    def test_condition_c1_overflowing_trace_is_two(self, tmp_path, capsys):
        # the same model: Tr(H) overflows; the C = 1 reference reads inf or
        # nan, once reported as a zero matrix
        text = LINEAR_4_3 + "init_scale = 1e-200\nseparation = 1e200\nbatch_sizes = 4\n"
        code, out = run_cli(tmp_path, "condition-c1", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: no finite noise profile at batch size 4" in err and "is not positive" not in err
        assert "at init_scale = 1e-200 and separation = 1e+200; lower init_scale or separation" in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", ""), ("lissa", "tolerance = 0.5\n"), ("stats", ""), ("condition-c1", "batch_sizes = 4\n"),
         ("similarity", ""), ("convergence", "n_test = 5\nbatch_sizes = 4\n"), ("pbrf-compare", "n_test = 5\n")],
        ids=["lissa", "lissa-tolerance", "stats", "condition-c1", "similarity", "convergence", "pbrf-compare"],
    )
    def test_underflow_times_overflow_is_finite(self, command, extra):
        # features of about 1e200 at init_scale 1e-200 keep the first tanh
        # layer unsaturated; its R^T R underflows where its [a, 1][a, 1]^T
        # overflows, which once made the dense GNH and Tr(H) nan, so every
        # command but stats exit 2, though H is finite
        code, outputs = run_main(command, MLP_4_5_3 + "init_scale = 1e-200\nseparation = 1e200\n" + extra)
        assert code == 0
        assert outputs and non_finite_cells(outputs) == []

    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", "tolerance = 0.5\n"), ("stats", ""), ("condition-c1", "batch_sizes = 4, 8\n"),
         ("similarity", ""), ("convergence", "n_test = 5\nbatch_sizes = 4\n"), ("pbrf-compare", "n_test = 5\n")],
    )
    def test_saturated_first_layer_has_a_finite_curvature(self, command, extra):
        # features of about 1e300 saturate every first-layer tanh, so that
        # layer's factor is exactly 0 and ||a||^2 overflows; 0 * inf once made
        # the dense GNH and Tr(H) nan, and every command but stats exit 2
        code, outputs = run_main(command, MLP_4_5_3 + "separation = 1e300\n" + extra)
        assert code == 0
        assert outputs and non_finite_cells(outputs) == []

    @pytest.mark.parametrize(
        "inputs, command, code, message",
        [(4, "lissa", 2, "the loss gradients overflow"), (4, "pbrf-compare", 2, "the loss gradients overflow"),
         (4, "convergence", 2, "the loss gradients overflow"), (4, "similarity", 2, "the loss gradients overflow"),
         (4, "stats", 2, "a zero Gauss-Newton matrix"), (1, "lissa", 0, ""), (1, "convergence", 0, ""),
         (1, "pbrf-compare", 2, "a zero Gauss-Newton matrix"), (1, "stats", 2, "a zero Gauss-Newton matrix")],
    )
    def test_overflowing_first_layer_warns_nothing(self, tmp_path, capsys, inputs, command, code, message):
        # at init_scale 1e300 on features of about 1e200 the first layer
        # overflows.  The one GEMM over all rows saturates every tanh, so the
        # logits are finite; with four features each row's own (1, in)
        # product reads inf - inf = nan, so every loss gradient is nan, and
        # with one it saturates too.  lissa and pbrf-compare once exited 3 on
        # a nan iterate and convergence 2 blaming lambda_damp; the operator's
        # linearization and pbrf-compare's test forward passes printed
        # NumPy's RuntimeWarnings on stderr
        text = f"model_kind = mlp\nlayer_sizes = {inputs}, 5, 3\n" + (
            "init_scale = 1e300\nseparation = 1e200\neta = 0.5\nbatch_size = 4\nt_steps = 20\n"
            "n_test = 5\nbatch_sizes = 4\nlambda_damp = 1\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, out = run_cli(tmp_path, command, text)
        err = capsys.readouterr().err
        assert result == code and not caught, [str(w.message) for w in caught]
        assert "RuntimeWarning" not in err and "Traceback" not in err
        if code:
            assert f"config error: {message}" in err and not any(out.glob("*.csv"))
        if message in ("the loss gradients overflow", "a zero Gauss-Newton matrix"):
            assert "at init_scale = 1e+300 and separation = 1e+200; lower init_scale or separation" in err

    @pytest.mark.parametrize(
        "command, sizes, extra",
        [("stats", "4, 5, 3", ""), ("pbrf-compare", "1, 5, 3", "eta = 0.5\nt_steps = 3\n")],
    )
    def test_zero_gauss_newton_matrix_is_named(self, tmp_path, command, sizes, extra):
        # the softmax saturates at every example, so H = 0 though pbrf-compare's
        # gradients are finite and nonzero; stats once blamed lambda_max and
        # pbrf-compare a zero-variance input
        cfg = write(tmp_path, "run.cfg", f"model_kind = mlp\nlayer_sizes = {sizes}\n"
                    "init_scale = 1e300\nseparation = 1e200\n" + extra)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "lissakit.cli", command, "--config", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr == (
            "config error: a zero Gauss-Newton matrix (Tr(H) = 0: the softmax saturates) at init_scale = "
            "1e+300 and separation = 1e+200; lower init_scale or separation\n"
        )

    @pytest.mark.parametrize(
        "model",
        [MLP_4_5_3 + "init_scale = 1.7e308\n", MLP_4_5_3 + "init_scale = 1e300\n",
         MLP_4_5_3 + "init_scale = 1e200\nseparation = 1e200\n",
         LINEAR_4_3 + "init_scale = 1e-300\nseparation = 1e300\n"],
        ids=["mlp-1.7e308", "mlp-1e300", "mlp-1e200-1e200", "linear-1e-300-1e300"],
    )
    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", "batch_size = 4\nt_steps = 20\n"), ("lissa", "batch_size = 4\nt_steps = 20\neta = 0.5\n"),
         ("convergence", "n_test = 5\nbatch_sizes = 4, 8\n"), ("pbrf-compare", "n_test = 5\nbatch_size = 4\n"),
         ("pbrf-compare", "n_test = 5\nbatch_size = 4\neta = 0.5\n"),
         ("condition-c1", "batch_sizes = 4, 8\nn_probes = 20\n")],
    )
    def test_overflowing_draws_exit_as_the_sweep_does(self, monkeypatch, tmp_path, capsys, command, extra, model):
        # every draw here takes the row path; with no room for rows it takes
        # the sweep, and the exit code and message stay those of the sweep:
        # 2 for overflowing logits or a zero GNH, 3 for a nan or inf iterate
        text = model + extra
        ends = []
        for name, cap in (("rows", gnh._ROWS_MAX_FLOATS), ("sweep", 0)):
            monkeypatch.setattr(gnh, "_ROWS_MAX_FLOATS", cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code, _ = run_cli(tmp_path, command, text, name=name)
            ends.append((code, capsys.readouterr().err.replace(str(tmp_path / name), "OUT")))
        assert ends[0] == ends[1] and ends[0][0] in (0, 2, 3)

    @pytest.mark.parametrize(
        "command, extra",
        [("lissa", ""), ("stats", ""), ("condition-c1", "batch_sizes = 4\n"), ("similarity", ""),
         ("convergence", "n_test = 5\nbatch_sizes = 4\n"), ("pbrf-compare", "n_test = 5\neta = 0.5\n")],
    )
    def test_full_batch_activations_over_the_limit_are_two(self, tmp_path, capsys, monkeypatch, command, extra):
        # 9,999,995 examples of one feature draw under MAX_DRAW_WORDS, but their
        # hidden layer of 1000 would hold about 10^10 floats; once an
        # _ArrayMemoryError in the forward pass, exit 1
        def refuse(*args, **kwargs):
            raise AssertionError("activations computed for a dataset over the limit")

        for name in ("lissakit.cli._forward", "lissakit.models._forward", "lissakit.cli.make_blobs"):
            monkeypatch.setattr(name, refuse)
        text = "model_kind = mlp\nlayer_sizes = 1, 1000, 2\nn_examples = 9999995\n" + extra
        code, _ = run_cli(tmp_path, command, text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a full-batch activation array of ") and "MAX_KEPT_FLOATS" in err

    @pytest.mark.parametrize(
        "command, text, what",
        [
            # mlp 16-64-10 has 1738 parameters: 5754 gradients hold 10,000,452 floats
            ("similarity", "layer_sizes = 16, 64, 10\nn_items = 5754\n",
             "a gradient block of n_items = 5754 times 1738 parameters"),
            # mlp 4-5-3 has 43 parameters, but 3163 items have 10,004,569 similarities
            ("similarity", "layer_sizes = 4, 5, 3\nn_items = 3163\n", "n_items = 3163 squared similarities"),
            ("convergence", "layer_sizes = 16, 64, 10\nn_test = 5754\nbatch_sizes = 4\n",
             "a gradient block of n_test = 5754 times 1738 parameters"),
            ("pbrf-compare", "layer_sizes = 16, 64, 10\nn_train = 5754\nn_test = 5\neta = 0.1\n",
             "a gradient block of n_train = 5754 times 1738 parameters"),
            ("pbrf-compare", "layer_sizes = 16, 64, 10\nn_train = 5\nn_test = 5754\neta = 0.1\n",
             "a gradient block of n_test = 5754 times 1738 parameters"),
            # 1000 times 2001 pairs through a hidden layer of 5: 10,005,000 floats
            ("pbrf-compare", "layer_sizes = 4, 5, 3\nn_train = 1000\nn_test = 2001\neta = 0.1\n",
             "a readout of n_train times n_test = 2001000 pairs times the widest layer of 5"),
        ],
        ids=["similarity-gradients", "similarity-pairs", "convergence", "pbrf-train", "pbrf-test", "pbrf-pairs"],
    )
    def test_per_example_blocks_over_the_limit_are_two(self, tmp_path, capsys, monkeypatch, command, text, what):
        # each block is checked before the dataset is drawn, so nothing is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("a block over the limit was computed")

        for name in ("loss_gradients", "make_blobs"):
            monkeypatch.setattr(f"lissakit.cli.{name}", refuse)
        code, _ = run_cli(tmp_path, command, "model_kind = mlp\nlambda_damp = 0.1\nt_steps = 5\n" + text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {what} is over the limit MAX_KEPT_FLOATS = 10000000")

    def test_dataset_file_activations_over_the_limit_are_two(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("activations computed for a dataset over the limit")

        monkeypatch.setattr("lissakit.cli._forward", refuse)
        monkeypatch.setattr("lissakit.models._forward", refuse)
        # 10,001 examples times a hidden layer of 1000 is one float over the limit
        data = write(tmp_path, "data.csv", "x0,label\n" + "".join(f"{i % 7}.5,{i % 2}\n" for i in range(10_001)))
        text = f"model_kind = mlp\nlayer_sizes = 1, 1000, 2\ndataset_path = {data}\n"
        code, _ = run_cli(tmp_path, "stats", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "10001 examples times the widest layer of 1000" in err and "MAX_KEPT_FLOATS" in err


class TestCsvColumns:
    """emit_csv formats a NumPy int or float column from its tolist(); every
    cell must come out as _fmt writes it."""

    NUMBERS = [0, 1, -7, 2**62, -0.0, 0.1, 1 / 3, -2.5e-300, 1e300, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint8, np.float64, np.float32, np.float16])
    def test_array_columns_format_as_their_cells(self, dtype):
        kind = np.dtype(dtype).kind
        with np.errstate(over="ignore", invalid="ignore"):
            values = [v for v in self.NUMBERS if kind == "f" or (isinstance(v, int) and (kind == "i" or v >= 0))]
            column = np.array(values).astype(dtype)
        assert cli._fmt_column(column) == [cli._fmt(cell) for cell in column]

    def test_mixed_columns_format_cell_by_cell(self):
        cells = [
            3, -3, np.int64(-4), np.uint64(2**64 - 1), np.int8(7),
            0.25, -0.0, np.float64(-0.0), np.float64(1 / 3), np.float32(0.1), math.nan,
            None, "abc", "", True, np.bool_(False),
        ]
        assert cli._fmt_column(cells) == [cli._fmt(cell) for cell in cells]
        assert cli._fmt_column(cells)[:8] == ["3", "-3", "-4", "18446744073709551615", "7", "0.25", "-0.0", "-0.0"]
        assert cli._fmt_column(cells)[11:] == ["", "abc", "", "1", "False"]

    def test_emit_csv_writes_the_rows_of_its_columns(self, tmp_path):
        run = cli.RunContext(None, tmp_path, 0, "")
        ids, values, notes = np.array([1, -2]), np.array([-0.0, 0.5]), [None, "x"]
        run.emit_csv("table.csv", ["id", "value", "note"], [ids, values, notes])
        rows = [",".join(cli._fmt(cell) for cell in row) for row in zip(ids, values, notes)]
        assert (tmp_path / "table.csv").read_text() == "id,value,note\n" + "\n".join(rows) + "\n"
        assert rows == ["1,-0.0,", "-2,0.5,x"]
        run.emit_csv("empty.csv", ["id"], [])
        assert (tmp_path / "empty.csv").read_text() == "id\n"
        with pytest.raises(ValueError, match="differ in length"):
            run.emit_csv("ragged.csv", ["id", "value"], [ids, values[:1]])


class TestHvpCounts:
    """The benchmark counts one HVP per ``matvec`` call of a GNH operator or
    of the rank-one sampler, so every call must take one (n,) vector: a
    pbrf-compare run makes n_train times its step count of them and a
    counterexample run n_runs times t_max, as ``nominal_hvps`` in the
    benchmark's workloads expects."""

    @staticmethod
    def spy(monkeypatch, cls):
        shapes = []
        real = cls.matvec

        def matvec(self, v):
            shapes.append(np.shape(v))
            return real(self, v)

        monkeypatch.setattr(cls, "matvec", matvec)
        return shapes

    def test_pbrf_compare_makes_one_hvp_per_item_and_step(self, tmp_path, monkeypatch):
        shapes = self.spy(monkeypatch, GnhOperator)
        text = MLP_4_5_3 + "n_examples = 40\nbatch_size = 8\neta = 0.5\nt_steps = 6\nn_train = 5\nn_test = 4\n"
        code, _ = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        assert shapes == [(43,)] * (5 * 6)

    def test_counterexample_makes_one_hvp_per_run_and_step(self, tmp_path, monkeypatch):
        shapes = self.spy(monkeypatch, RotatedRankOneSampler)
        text = "eigenvalues = 1, 2, 3\nbatch_size = 1\nlambda_damp = 0.1\nn_runs = 300\nt_max = 4\n"
        code, _ = run_cli(tmp_path, "counterexample", text)
        assert code == 0
        assert shapes == [(3,)] * (300 * 4)


class TestDenseFactorizations:
    """Each dense command factors H once: similarity solves in the eigenbasis
    that it reads for the reweighting, and lissa and convergence make one LU
    solve, with no eigendecomposition of H."""

    @staticmethod
    def spy(monkeypatch, name):
        shapes = []
        real = getattr(np.linalg, name)

        def counted(a, *args):
            shapes.append(np.shape(a))
            return real(a, *args)

        monkeypatch.setattr(np.linalg, name, counted)
        return shapes

    @pytest.mark.parametrize("extra", ["", "eta = 0.5\n"], ids=["lanczos", "eta-set"])
    def test_lissa_with_tolerance_makes_no_eigh_of_h(self, tmp_path, monkeypatch, extra):
        eighs, solves = self.spy(monkeypatch, "eigh"), self.spy(monkeypatch, "solve")
        text = MLP_4_5_3 + "n_examples = 30\nbatch_size = 8\nt_steps = 20\ntolerance = 10\n" + extra
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 0
        # Lanczos reads lambda_max from small tridiagonal eighs
        assert (43, 43) not in eighs and solves == [(43, 43)]

    def test_similarity_makes_one_eigh_and_no_solve(self, tmp_path, monkeypatch):
        eighs, solves = self.spy(monkeypatch, "eigh"), self.spy(monkeypatch, "solve")
        code, _ = run_cli(tmp_path, "similarity", MLP_4_5_3 + "n_examples = 30\nn_items = 6\n")
        assert code == 0
        assert eighs == [(43, 43)] and solves == []

    def test_similarity_with_a_foreign_eigenbasis_is_two(self, tmp_path, capsys, monkeypatch):
        # the residual check against H rejects an eigenbasis of another matrix
        monkeypatch.setattr(cli, "sym_eig", lambda H: core.sym_eig(2.0 * H))
        code, out = run_cli(tmp_path, "similarity", MLP_4_5_3 + "n_examples = 30\nn_items = 6\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: dense oracle failed at lambda_damp" in err and "Traceback" not in err
        assert not any(out.glob("*.csv"))


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

    def test_condition_c1_over_the_dense_limit_runs(self, tmp_path):
        # 3466 parameters, over MAX_DENSE_PARAMS: the reference Tr(H) comes from
        # the layer factors, so no dense matrix is needed (once exit 2)
        code, out = run_cli(tmp_path, "condition-c1", MLP_16_128_10 + "n_examples = 8\nbatch_sizes = 2\n")
        assert code == 0
        header, row = (out / "condition_c1.csv").read_text().splitlines()
        assert header == "batch_size,lhs,lhs_se,rhs_c1,ratio"
        assert all(math.isfinite(float(cell)) for cell in row.split(","))

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

    def test_pbrf_scores_equal_the_per_pair_dot_products(self, tmp_path, monkeypatch):
        # the stacked readout gives bit for bit float(u @ t) of each pair
        solved, blocks = [], []
        real_solve, real_gradients = cli.lissa_solve, cli.loss_gradients

        def solve(op, g, cfg):
            u, trace = real_solve(op, g, cfg)
            solved.extend(u)  # one lockstep solve: a row per train point
            return u, trace

        def gradients(*args):
            blocks.append(real_gradients(*args))
            return blocks[-1]

        monkeypatch.setattr("lissakit.cli.lissa_solve", solve)
        monkeypatch.setattr("lissakit.cli.loss_gradients", gradients)
        text = MLP_4_5_3 + "n_examples = 40\nbatch_size = 8\nt_steps = 6\nn_train = 5\nn_test = 7\n"
        code, out = run_cli(tmp_path, "pbrf-compare", text)
        assert code == 0
        _, test_block = blocks
        want = [float(u @ -t) for u in solved for t in test_block]
        rows = (out / "pbrf_pairs.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == want

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

    def test_label_beyond_int64_is_two(self, tmp_path, capsys):
        # once exit 3, "numerical overflow: Python int too large to convert to C long"
        path = write(tmp_path, "data.csv", "x,label\n0.5,9223372036854775808\n1.0,0\n")
        cfg_text = f"model_kind = softmax-linear\nlayer_sizes = 1, 2\ndataset_path = {path}\n"
        code, _ = run_cli(tmp_path, "stats", cfg_text)
        assert code == 2
        assert capsys.readouterr().err == "config error: dataset labels must fit int64\n"

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
