import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import DenseOperator
from lissakit import models
from lissakit.core import SeededRng, derive_seed
from lissakit.gnh import GnhOperator, gnh_matrix_exact
from lissakit.models import ModelSpec, init_params, make_blobs
from lissakit.spectral import (
    ConditionC1Row,
    HyperParams,
    SketchConfig,
    check_condition_c1,
    condition_c1_lhs,
    estimate_frobenius,
    estimate_trace,
    recommend_hyperparams,
    sketch_operator,
    top_eigenvalue_from_sketch,
    _probe_vector,
)


def toy_gnh(seed=5):
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta = init_params(spec, SeededRng(seed), scale=0.5)
    data = make_blobs(SeededRng(seed + 1), 512, 10, 4)
    return spec, theta, data


def stats_of(trace_per_param, n_params, lambda_max):
    """(Tr(H), lambda_max), the leading arguments of recommend_hyperparams."""
    return trace_per_param * n_params, lambda_max


class TestTraceEstimator:
    def test_diag_oracle(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        ms = estimate_trace(op, 2000, SeededRng(0))
        assert abs(ms.mean - 2.0) <= 3 * ms.se
        assert ms.n == 2000

    def test_identity(self):
        ms = estimate_trace(DenseOperator(np.eye(6)), 500, SeededRng(1))
        assert abs(ms.mean - 1.0) <= 3 * ms.se

    def test_toy_model_against_dense(self):
        spec, theta, data = toy_gnh()
        H = gnh_matrix_exact(spec, theta, data)
        op = GnhOperator(spec, theta, data)
        ms = estimate_trace(op, 2000, SeededRng(2))
        assert abs(ms.mean - np.trace(H) / spec.n_params) <= 3 * ms.se

    def test_three_sigma_failure_rate(self):
        # the 3 se interval should cover the truth in almost every repetition
        op = DenseOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
        failures = 0
        for rep in range(50):
            ms = estimate_trace(op, 300, SeededRng(1000 + rep))
            if abs(ms.mean - 2.5) > 3 * ms.se:
                failures += 1
        assert failures <= 2

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            estimate_trace(DenseOperator(np.eye(2)), 1, SeededRng(0))


class TestFrobeniusEstimator:
    def test_diag_oracle(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        ms = estimate_frobenius(op, 2000, SeededRng(3))
        assert abs(ms.mean - 14.0 / 3.0) <= 3 * ms.se

    def test_zero_operator(self):
        ms = estimate_frobenius(DenseOperator(np.zeros((4, 4))), 100, SeededRng(4))
        assert ms.mean == 0.0 and ms.se == 0.0

    def test_toy_model_against_dense(self):
        spec, theta, data = toy_gnh()
        H = gnh_matrix_exact(spec, theta, data)
        op = GnhOperator(spec, theta, data)
        ms = estimate_frobenius(op, 2000, SeededRng(5))
        assert abs(ms.mean - np.trace(H @ H) / spec.n_params) <= 3 * ms.se


class TestSketch:
    def test_matches_materialized_projection(self):
        # the streamed sketch equals Phi H Phi^T with Phi assembled row by row
        H = np.diag([3.0, 1.0, 0.5, 0.25, 0.1])
        op = DenseOperator(H)
        cfg = SketchConfig(d=16, seed=7)
        phi = np.vstack([_probe_vector(op, cfg, i) for i in range(16)])
        want = phi @ H @ phi.T
        got = sketch_operator(op, cfg)
        assert np.allclose(got, want, atol=1e-12)

    def test_row_stream_documented_rule(self):
        # rows regenerate from (seed, 1 + layer, row) substreams at variance 1/d
        op = DenseOperator(np.eye(3))
        cfg = SketchConfig(d=8, seed=21)
        row = _probe_vector(op, cfg, 5)
        regen = SeededRng(derive_seed(21, 1, 5)).normal(3) / math.sqrt(8)
        assert np.array_equal(row, regen)

    def test_deterministic(self):
        op = DenseOperator(np.diag([2.0, 1.0]))
        cfg = SketchConfig(d=32, seed=9)
        a = sketch_operator(op, cfg)
        b = sketch_operator(op, cfg)
        assert np.array_equal(a, b)

    def test_identity_bulk_recentred(self):
        # pure-noise spectrum: correction puts the top eigenvalue near 1
        op = DenseOperator(np.eye(4))
        cfg = SketchConfig(d=200, seed=2)
        lam = top_eigenvalue_from_sketch(sketch_operator(op, cfg))
        assert abs(lam - 1.0) <= 0.2

    def test_spiked_spectrum_within_frobenius_bound(self):
        H = np.diag(np.concatenate([[100.0], np.ones(499)]))
        tol = 5 * np.linalg.norm(H, "fro") / math.sqrt(500)
        lam = top_eigenvalue_from_sketch(sketch_operator(DenseOperator(H), SketchConfig(d=500, seed=1)))
        assert abs(lam - 100.0) <= tol

    def test_summed_equals_sum_of_concatenated_blocks(self):
        # the two layouts share per-layer row streams, so the summed sketch
        # is the sum over the concatenated layout's block grid
        spec = ModelSpec(kind="mlp", layer_sizes=(6, 5, 3))
        theta = init_params(spec, SeededRng(11), scale=0.6)
        data = make_blobs(SeededRng(12), 64, 6, 3)
        op = GnhOperator(spec, theta, data)
        d = 12
        summed = sketch_operator(op, SketchConfig(d=d, seed=13))
        concat = sketch_operator(op, SketchConfig(d=d, seed=13, layout="concatenated"))
        L = len(op.segments)
        acc = np.zeros((d, d))
        for a in range(L):
            for b in range(L):
                acc += concat[a * d : (a + 1) * d, b * d : (b + 1) * d]
        assert np.allclose(summed, acc, atol=1e-10)

    def test_concatenated_dimension(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(4, 3, 2))
        theta = init_params(spec, SeededRng(14))
        data = make_blobs(SeededRng(15), 16, 4, 2)
        op = GnhOperator(spec, theta, data)
        s = sketch_operator(op, SketchConfig(d=5, seed=16, layout="concatenated"))
        assert s.shape == (10, 10)

    def test_model_operator_top_eigenvalue(self):
        spec, theta, data = toy_gnh()
        H = gnh_matrix_exact(spec, theta, data)
        top = np.linalg.eigvalsh(H)[-1]
        lam = top_eigenvalue_from_sketch(
            sketch_operator(GnhOperator(spec, theta, data), SketchConfig(d=400, seed=3))
        )
        assert abs(lam - top) <= 0.1 * top

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SketchConfig(d=1, seed=0)
        with pytest.raises(ValueError):
            SketchConfig(d=4, seed=0, layout="hashed")


class TestTopEigenvaluesFromSketch:
    def test_diag_shift(self):
        lam = top_eigenvalue_from_sketch(np.diag([10.0, 0.0, 0.0, 0.0]))
        assert isinstance(lam, float) and lam == pytest.approx(7.5)

    def test_zero_matrix(self):
        assert top_eigenvalue_from_sketch(np.zeros((3, 3))) == pytest.approx(0.0)

    def test_scaled_identity_maps_to_zero(self):
        assert top_eigenvalue_from_sketch(4.2 * np.eye(5)) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            top_eigenvalue_from_sketch(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRecommend:
    def test_published_image_model_row(self):
        # 11M-parameter image model: Tr(H)/N = 1.32e-3, lambda_max ~ 270
        hp = recommend_hyperparams(*stats_of(1.32e-3, 11_000_000, 270.0), lambda_damp=5.0)
        assert hp.eta == pytest.approx(1.0 / 275.0)
        assert hp.batch_size_min == 108
        assert hp.t_steps == 110
        for got, published in ((hp.eta, 0.003), (hp.batch_size_min, 100), (hp.t_steps, 150)):
            assert max(got / published, published / got) <= 1.5

    def test_published_language_model_row(self):
        # 7B-parameter language model: Tr(H)/N = 8.18e-5, lambda_max ~ 5600
        hp = recommend_hyperparams(*stats_of(8.18e-5, 7_000_000_000, 5600.0), lambda_damp=5.0)
        assert hp.eta == pytest.approx(1.0 / 5605.0)
        assert hp.batch_size_min == 205
        for got, published in ((hp.eta, 0.0002), (hp.batch_size_min, 200), (hp.t_steps, 2000)):
            assert max(got / published, published / got) <= 1.5

    def test_zero_damping_formula_case(self):
        hp = recommend_hyperparams(*stats_of(1.0 / 4, 4, 1.0), lambda_damp=0.0)
        assert hp.eta == pytest.approx(1.0)
        assert hp.batch_size_min == 2
        assert hp.t_steps is None

    def test_eta_saturates_contraction_bound(self):
        hp = recommend_hyperparams(*stats_of(0.1, 100, 3.0), lambda_damp=0.5)
        assert hp.eta * (3.0 + 0.5) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_hyperparams(*stats_of(0.1, 10, 0.0), lambda_damp=1.0)
        with pytest.raises(ValueError):
            recommend_hyperparams(*stats_of(-0.1, 10, 1.0), lambda_damp=1.0)
        with pytest.raises(ValueError):
            recommend_hyperparams(*stats_of(0.1, 10, 1.0), lambda_damp=-1.0)
        with pytest.raises(ValueError):
            recommend_hyperparams(*stats_of(0.1, 10, 1.0), lambda_damp=1.0, c_const=0.0)
        # C Tr / lambda_max overflows: no finite batch size
        with pytest.raises(ValueError, match="batch_size"):
            recommend_hyperparams(1e10, 1e-300, lambda_damp=1.0)

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_in_damping(self, trace_pp, lam_max, damp):
        s = stats_of(trace_pp, 50, lam_max)
        lo = recommend_hyperparams(*s, lambda_damp=damp)
        hi = recommend_hyperparams(*s, lambda_damp=damp * 2)
        assert hi.eta <= lo.eta
        assert hi.t_steps <= lo.t_steps


class RankOneBatchSampler:
    """Draws Hb = (1/B) sum x x^T with x = sqrt(lam) * rademacher signs.

    Matches the construction whose second moment is exactly
    E[Hb^2] = (1 - 1/B) H^2 + Tr(H) H / B.
    """

    def __init__(self, eigenvalues, batch_size, rng):
        self.lam = np.asarray(eigenvalues, dtype=np.float64)
        self.batch_size = batch_size
        self.rng = rng
        self.n_params = self.lam.size
        self.segments = (("all", 0, self.n_params),)

    def matvec(self, g):
        out = np.zeros_like(g)
        root = np.sqrt(self.lam)
        for _ in range(self.batch_size):
            x = root * self.rng.rademacher(self.n_params)
            out += x * float(x @ g)
        return out / self.batch_size


class TestConditionC1:
    def test_full_batch_noise_is_exactly_zero(self):
        spec, theta, data = toy_gnh()
        rows = check_condition_c1(spec, theta, data, [len(data)], n_probes=10, rng=SeededRng(30))
        assert rows[0].lhs_trace.mean == 0.0
        assert rows[0].lhs_trace.se == 0.0

    def test_inverse_batch_scaling(self):
        spec, theta, data = toy_gnh()
        rows = check_condition_c1(spec, theta, data, [16, 32], n_probes=1500, rng=SeededRng(31))
        ratio = rows[0].lhs_trace.mean / rows[1].lhs_trace.mean
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_loglog_slope_near_minus_one(self):
        spec, theta, data = toy_gnh()
        rows = check_condition_c1(spec, theta, data, [8, 16, 32, 64], n_probes=1500, rng=SeededRng(32))
        xs = np.log([r.batch_size for r in rows])
        ys = np.log([r.lhs_trace.mean for r in rows])
        slope = np.polyfit(xs, ys, 1)[0]
        assert -1.2 <= slope <= -0.8

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    def test_one_linearization_of_the_dataset(self, monkeypatch, fd_delta):
        # every batch size's operator shares the full-batch record: one
        # forward pass over all N rows (gnh_trace_exact's passes take at most
        # 128), where an operator per batch size made 6 for 5 batch sizes;
        # the rows are bit for bit those of operators built each on its own
        spec = ModelSpec(kind="mlp", layer_sizes=(5, 6, 3), activation="tanh")
        theta = init_params(spec, SeededRng(37), scale=0.7)
        data = make_blobs(SeededRng(38), 300, 5, 3)
        batch_sizes = [4, 16, 64, 300, 1000]
        forward, full_passes = models._forward, []
        spy = lambda spec, theta, X: full_passes.append(len(X) == len(data)) or forward(spec, theta, X)
        monkeypatch.setattr(models, "_forward", spy)
        rows = check_condition_c1(spec, theta, data, batch_sizes, n_probes=5, rng=SeededRng(39), fd_delta=fd_delta)
        assert sum(full_passes) == 1
        monkeypatch.setattr(models, "_forward", forward)
        rng = SeededRng(39)
        op_full = GnhOperator(spec, theta, data, fd_delta=fd_delta)
        for row, b in zip(rows, batch_sizes):
            op_b = GnhOperator(spec, theta, data, batch_size=b, fd_delta=fd_delta).reseeded(derive_seed(rng.seed, b))
            want = condition_c1_lhs(op_b, op_full, 5, rng.substream(b + 1_000_003))
            assert (row.lhs_trace.mean, row.lhs_trace.se) == (want.mean, want.se)

    def test_rank_one_sampler_closed_form(self):
        # E[Hb^2] - H^2 = (Tr(H) H - H^2)/B exactly for this sampler
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        B = 2
        trace_h = lam.sum()
        exact = float(np.sum(trace_h * lam - lam**2)) / (lam.size * B)
        op_b = RankOneBatchSampler(lam, B, SeededRng(33))
        op_full = DenseOperator(np.diag(lam))
        ms = condition_c1_lhs(op_b, op_full, 4000, SeededRng(34))
        assert abs(ms.mean - exact) <= 3 * ms.se

    def test_validation(self):
        spec, theta, data = toy_gnh()
        with pytest.raises(ValueError):
            check_condition_c1(spec, theta, data, [0], n_probes=10, rng=SeededRng(35))
        with pytest.raises(ValueError):
            condition_c1_lhs(
                DenseOperator(np.eye(2)), DenseOperator(np.eye(3)), 10, SeededRng(36)
            )
