"""Tests for the config parser and the command-line harness."""

import numpy as np
import pytest

from lissakit.cli import main
from lissakit.config import (
    ConfigError,
    ExperimentConfig,
    component_seed,
    parse_config_text,
    sha256_hex,
)

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
            "pbrf_lr = 0\n",
            "pbrf_steps = 0\n",
            "n_train = 0\n",
            "n_test = 0\n",
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_text(text)

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

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg_text = QUAD_CFG.replace("t_steps = 400", "t_steps = 60")
        cfg_text += "n_test = 8\nbatch_sizes = 8, 64\n"
        _, serial = run_cli(tmp_path, "convergence", cfg_text, "--threads", "1", name="serial")
        _, parallel = run_cli(tmp_path, "convergence", cfg_text, "--threads", "4", name="par")
        assert (serial / "convergence.csv").read_bytes() == (
            parallel / "convergence.csv"
        ).read_bytes()
        assert (serial / "manifest.txt").read_bytes() == (parallel / "manifest.txt").read_bytes()


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
        )
        for i, (command, text) in enumerate(cases):
            code, _ = run_cli(tmp_path, command, text, name=f"run{i}")
            assert code == 2, command
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err, command

    def test_zero_damping_without_t_steps_is_two(self, tmp_path, capsys):
        text = QUAD_CFG.replace("lambda_damp = 0.5", "lambda_damp = 0").replace(
            "t_steps = 400", "eta = 0.1"
        )
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 2
        assert "t_steps must be given" in capsys.readouterr().err

    def test_model_too_large_for_derived_settings_is_two(self, tmp_path, capsys):
        text = "model_kind = mlp\nlayer_sizes = 16, 128, 10\nbatch_size = 8\nt_steps = 5\n"
        code, _ = run_cli(tmp_path, "lissa", text)
        assert code == 2
        assert "set eta/t_steps/tolerance explicitly" in capsys.readouterr().err


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
