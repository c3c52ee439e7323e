import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit.core import SeededRng
from lissakit.gnh import GnhOperator, gnh_matrix_exact, sample_batch
from lissakit.lissa import LissaConfig, exact_ihvp, lissa_solve
from lissakit.models import (
    Dataset,
    ModelSpec,
    ParamVector,
    init_params,
    loss_gradient,
    make_blobs,
    nll_loss,
    _forward,
)
from lissakit.models import test_gradient as measurement_gradient
from lissakit.pbrf import (
    InfluenceComparison,
    PboConfig,
    PbrfResult,
    classify_agreement,
    compare_influences,
    pbo_gradient,
    pbo_objective,
    pbrf_finetune,
    pbrf_influence,
    _batch_bregman_mean,
    _bregman_gaps,
)


@pytest.fixture(scope="module")
def quad():
    """Softmax-linear fixture: PBO is quadratic to leading order around theta."""
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta = init_params(spec, SeededRng(5), scale=0.5)
    data = make_blobs(SeededRng(6), 512, 10, 4)
    H = gnh_matrix_exact(spec, theta, data)
    damp = 0.5
    eta = 1.0 / (np.linalg.eigvalsh(H)[-1] + damp)
    return spec, theta, data, H, damp, eta


def bregman(h, h_ref, y):
    """Divergence of one pair of logit vectors through the per-row formula."""
    return float(_bregman_gaps(np.array([h], dtype=float), np.array([h_ref], dtype=float), np.array([y]))[0])


class TestBregmanDivergence:
    def test_self_divergence_zero(self):
        h = [0.3, -1.2, 0.8]
        assert bregman(h, h, 1) == 0.0

    def test_two_class_hand_value(self):
        got = bregman([1.0, -1.0], [0.0, 0.0], 0)
        want = math.log1p(math.exp(-2.0)) - math.log(2.0) + 1.0
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.433781, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _bregman_gaps(np.zeros((1, 3)), np.zeros((1, 2)), np.array([0]))

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=6),
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_non_negative(self, h, h_ref, y):
        k = min(len(h), len(h_ref))
        if y >= k:
            y = 0
        value = bregman(h[:k], h_ref[:k], y)
        assert value >= -1e-12

    def test_rows_are_independent(self, quad):
        # each row's gap depends on that row alone, and the batch objective
        # is their mean
        spec, theta, data, H, damp, eta = quad
        moved = theta.values + 0.1 * SeededRng(12).normal(spec.n_params)
        X, y = data.X[:6], data.y[:6]
        logits, _ = _forward(spec, moved, X)
        ref_logits, _ = _forward(spec, theta.values, X)
        gaps = _bregman_gaps(logits, ref_logits, y)
        for b in range(6):
            assert gaps[b] == bregman(logits[b], ref_logits[b], y[b])
        assert _batch_bregman_mean(spec, moved, theta.values, X, y) == float(gaps.mean())


class TestPboObjective:
    def test_at_reference_reduces_to_train_loss(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=0.7, lambda_damp=damp, lr=eta, steps=1, batch_size=8)
        from lissakit.models import nll_loss

        want = 0.7 * nll_loss(spec, theta, data[0].x, data[0].y)
        got = pbo_objective(spec, theta, theta, data[0], data, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_epsilon_at_reference_is_zero(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=0.0, lambda_damp=damp, lr=eta, steps=1, batch_size=8)
        assert pbo_objective(spec, theta, theta, data[0], data, cfg) == 0.0

    def test_gradient_matches_finite_differences(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=0.3, lambda_damp=damp, lr=eta, steps=1, batch_size=64)
        rng = SeededRng(77)
        moved = ParamVector(theta.values + 0.05 * rng.normal(spec.n_params), spec.segments)
        batch = sample_batch(data, 64, SeededRng(8))
        grad = pbo_gradient(spec, moved, theta, data[0], batch, cfg)
        step = 1e-5
        for _ in range(10):
            d = rng.normal(spec.n_params)
            d /= np.linalg.norm(d)
            up = pbo_objective(
                spec, ParamVector(moved.values + step * d, spec.segments), theta, data[0], batch, cfg
            )
            down = pbo_objective(
                spec, ParamVector(moved.values - step * d, spec.segments), theta, data[0], batch, cfg
            )
            fd = (up - down) / (2 * step)
            assert abs(fd - grad @ d) <= 1e-4 * max(abs(fd), 1e-12)

    def test_gradient_at_reference_is_scaled_train_gradient(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=0.25, lambda_damp=damp, lr=eta, steps=1, batch_size=16)
        batch = sample_batch(data, 16, SeededRng(9))
        grad = pbo_gradient(spec, theta, theta, data[0], batch, cfg)
        want = 0.25 * loss_gradient(spec, theta, data[0]).values
        assert np.allclose(grad, want, atol=1e-14)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PboConfig(epsilon=-1e-8)
        with pytest.raises(ValueError):
            PboConfig(lr=0.0)
        with pytest.raises(ValueError):
            PboConfig(steps=0)


class TestPbrfFinetune:
    def test_zero_epsilon_stays_at_reference(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=0.0, lambda_damp=damp, lr=eta, steps=30, batch_size=64, seed=1)
        result = pbrf_finetune(spec, theta, data[0], data, cfg)
        assert result.displacement_norm == 0.0
        assert np.array_equal(result.theta_pbrf.values, theta.values)

    def test_deterministic_given_seed(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=1e-4, lambda_damp=damp, lr=eta, steps=25, batch_size=32, seed=3)
        a = pbrf_finetune(spec, theta, data[0], data, cfg)
        b = pbrf_finetune(spec, theta, data[0], data, cfg)
        assert np.array_equal(a.theta_pbrf.values, b.theta_pbrf.values)

    def test_full_batch_matches_ridge_closed_form(self, quad):
        # deterministic descent: displacement/epsilon converges to the
        # damped inverse-curvature direction
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        grad_train = loss_gradient(spec, theta, train).values
        ustar = exact_ihvp(H, damp, grad_train)
        cfg = PboConfig(
            epsilon=1e-8, lambda_damp=damp, lr=eta, steps=80, batch_size=len(data), seed=0
        )
        result = pbrf_finetune(spec, theta, train, data, cfg)
        implied = -(result.theta_pbrf.values - theta.values) / cfg.epsilon
        rel = np.linalg.norm(implied - ustar) / np.linalg.norm(ustar)
        assert rel <= 0.02
        assert not result.overflow

    def test_overflow_flagged_with_finite_partial_result(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=1.0, lambda_damp=1.0, lr=1e6, steps=100, batch_size=32, seed=2)
        result = pbrf_finetune(spec, theta, data[0], data, cfg)
        assert result.overflow
        assert result.steps_run < 100
        assert np.isfinite(result.theta_pbrf.values).all()

    def test_overflowed_chain_reports_a_finite_displacement_norm(self, quad):
        # the last finite theta is far out: its squared entries overflow, the
        # norm itself does not
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=1.0, lambda_damp=1.0, lr=1e6, steps=100, batch_size=32, seed=2)
        result = pbrf_finetune(spec, theta, data[0], data, cfg)
        shift = result.theta_pbrf.values - theta.values
        scale = float(np.abs(shift).max())
        assert scale > math.sqrt(np.finfo(np.float64).max)
        want = scale * math.sqrt(sum((d / scale) ** 2 for d in shift))
        assert math.isfinite(result.displacement_norm)
        assert result.displacement_norm == pytest.approx(want, rel=1e-14)

    def test_displacement_norm_is_the_euclidean_norm(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=1e-2, lambda_damp=damp, lr=eta, steps=5, batch_size=32, seed=3)
        result = pbrf_finetune(spec, theta, data[0], data, cfg)
        want = np.linalg.norm(result.theta_pbrf.values - theta.values)
        assert want > 0 and result.displacement_norm == pytest.approx(want, rel=1e-14)

    def test_objective_trace_non_increasing(self, quad):
        # step k's batch is fixed by (seed, k), so the finetunes with steps
        # 5, 10, ..., 100 are prefixes of one trajectory
        spec, theta, data, H, damp, eta = quad
        values = []
        for steps in range(5, 101, 5):
            cfg = PboConfig(epsilon=1e-3, lambda_damp=damp, lr=eta, steps=steps, batch_size=64, seed=4)
            result = pbrf_finetune(spec, theta, data[0], data, cfg)
            values.append(pbo_objective(spec, result.theta_pbrf, theta, data[0], data, cfg))
        assert len(values) == 20
        increases = np.diff(values)
        assert increases.max() <= 1e-3 * values[0]
        assert values[-1] <= values[0]


class TestPbrfInfluence:
    def test_reference_parameters_give_zeros(self, quad):
        spec, theta, data, H, damp, eta = quad
        result = PbrfResult(
            theta_pbrf=theta.copy(),
            displacement_norm=0.0,
            overflow=False,
            steps_run=0,
        )
        scores = pbrf_influence(spec, result, theta, [data[i] for i in range(5)], 1e-8)
        assert all(v == 0.0 for v in scores.values())

    def test_quadratic_model_matches_dense_formula(self, quad):
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        tests = [data[i] for i in range(100, 120)]
        grad_train = loss_gradient(spec, theta, train).values
        u_exact = exact_ihvp(H, damp, -grad_train)
        exact = {
            ex.id: float(u_exact @ measurement_gradient(spec, theta, ex).values)
            for ex in tests
        }
        cfg = PboConfig(
            epsilon=1e-8, lambda_damp=damp, lr=eta, steps=80, batch_size=len(data), seed=0
        )
        result = pbrf_finetune(spec, theta, train, data, cfg)
        scores = pbrf_influence(spec, result, theta, tests, cfg.epsilon)
        for ex in tests:
            assert abs(scores[ex.id] - exact[ex.id]) <= 0.02 * abs(exact[ex.id])

    def test_epsilon_linear_response(self, quad):
        # doubling epsilon doubles the displacement but leaves scores fixed
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        tests = [data[i] for i in range(100, 110)]
        scores = {}
        for eps in (1e-8, 2e-8):
            cfg = PboConfig(
                epsilon=eps, lambda_damp=damp, lr=eta, steps=60, batch_size=len(data), seed=0
            )
            result = pbrf_finetune(spec, theta, train, data, cfg)
            scores[eps] = pbrf_influence(spec, result, theta, tests, eps)
        for ex in tests:
            a, b = scores[1e-8][ex.id], scores[2e-8][ex.id]
            assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))

    def test_matched_seeds_agree_pointwise_with_solver(self, quad):
        # identical batch sequences make the finetune displacement track the
        # solver iterate to first order in epsilon
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        tests = [data[i] for i in range(100, 120)]
        grad_train = loss_gradient(spec, theta, train).values
        op = GnhOperator(spec, theta, data, batch_size=64, rng=SeededRng(0))
        lissa_cfg = LissaConfig(eta=eta, lambda_damp=damp, t_steps=80, seed=11)
        u, _ = lissa_solve(op, -grad_train, lissa_cfg)
        lissa = {ex.id: float(u @ measurement_gradient(spec, theta, ex).values) for ex in tests}
        pbo_cfg = PboConfig(
            epsilon=1e-8, lambda_damp=damp, lr=eta, steps=80, batch_size=64, seed=11
        )
        result = pbrf_finetune(spec, theta, train, data, pbo_cfg)
        pbrf = pbrf_influence(spec, result, theta, tests, pbo_cfg.epsilon)
        for ex in tests:
            a, b = lissa[ex.id], pbrf[ex.id]
            assert abs(a - b) <= 0.02 * max(abs(a), abs(b))

    def test_overflow_propagates(self, quad):
        spec, theta, data, H, damp, eta = quad
        cfg = PboConfig(epsilon=1.0, lambda_damp=1.0, lr=1e6, steps=100, batch_size=32, seed=2)
        result = pbrf_finetune(spec, theta, data[0], data, cfg)
        with pytest.raises(OverflowError):
            pbrf_influence(spec, result, theta, [data[0]], 1.0)

    def test_epsilon_validation(self, quad):
        spec, theta, data, H, damp, eta = quad
        result = PbrfResult(
            theta_pbrf=theta.copy(),
            displacement_norm=0.0,
            overflow=False,
            steps_run=0,
        )
        with pytest.raises(ValueError):
            pbrf_influence(spec, result, theta, [data[0]], 0.0)


LOCKSTEP_SPECS = {
    "linear": ModelSpec(kind="softmax-linear", layer_sizes=(5, 3)),
    "tanh": ModelSpec(kind="mlp", layer_sizes=(5, 6, 3), activation="tanh"),
    "relu": ModelSpec(kind="mlp", layer_sizes=(5, 6, 4, 3), activation="relu"),
}


def assert_same_result(got, want):
    assert got.theta_pbrf.values.tobytes() == want.theta_pbrf.values.tobytes()
    assert (got.overflow, got.steps_run) == (want.overflow, want.steps_run)
    assert got.displacement_norm == want.displacement_norm


class TestLockstep:
    """R finetunes as one (R, n) block against R finetunes run one by one."""

    @staticmethod
    def setup(name, n=40):
        spec = LOCKSTEP_SPECS[name]
        theta = init_params(spec, SeededRng(70), scale=0.8)
        data = make_blobs(SeededRng(71), n, spec.input_dim, spec.n_classes)
        return spec, theta, data

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_SPECS))
    @pytest.mark.parametrize("batch_size", [8, 40], ids=["sampled", "full-batch"])
    @pytest.mark.parametrize("epsilon", [1e-2, 0.0])
    def test_block_equals_single_finetunes(self, name, batch_size, epsilon):
        spec, theta, data = self.setup(name)
        rows = [3, 0, 17, 3, 39]
        points = Dataset(X=data.X[rows], y=data.y[rows], ids=data.ids[rows])
        seeds = (11, 12, 13, 14, 11)
        cfg = PboConfig(epsilon=epsilon, lambda_damp=0.1, lr=0.3, steps=12, batch_size=batch_size, seed=seeds)
        block = pbrf_finetune(spec, theta, points, data, cfg)
        assert len(block) == len(rows)
        for i, got in enumerate(block):
            one = PboConfig(epsilon=epsilon, lambda_damp=0.1, lr=0.3, steps=12, batch_size=batch_size, seed=seeds[i])
            assert_same_result(got, pbrf_finetune(spec, theta, points[i], data, one))
        if epsilon == 0.0:
            assert all(r.displacement_norm == 0.0 for r in block)

    def test_an_overflowing_chain_leaves_the_others_alone(self):
        spec, theta, data = self.setup("relu")
        X = data.X[:4].copy()
        X[2] = 1e200  # its logits overflow once theta has moved along it
        points = Dataset(X=X, y=data.y[:4], ids=data.ids[:4])
        cfg = PboConfig(epsilon=1.0, lambda_damp=0.1, lr=0.3, steps=10, batch_size=8, seed=(1, 2, 3, 4))
        block = pbrf_finetune(spec, theta, points, data, cfg)
        assert [r.overflow for r in block] == [False, False, True, False]
        assert block[2].steps_run < 10 and np.isfinite(block[2].theta_pbrf.values).all()
        assert [r.steps_run for r in block if not r.overflow] == [10, 10, 10]
        for i, got in enumerate(block):
            one = PboConfig(epsilon=1.0, lambda_damp=0.1, lr=0.3, steps=10, batch_size=8, seed=cfg.seed[i])
            assert_same_result(got, pbrf_finetune(spec, theta, points[i], data, one))

    def test_one_seed_per_point(self):
        spec, theta, data = self.setup("linear")
        points = Dataset(X=data.X[:3], y=data.y[:3])
        with pytest.raises(ValueError):
            pbrf_finetune(spec, theta, points, data, PboConfig(seed=(1, 2)))
        with pytest.raises(ValueError):
            pbrf_finetune(spec, theta, points, data, PboConfig(seed=1))
        with pytest.raises(ValueError):
            pbrf_finetune(spec, theta, data[0], data, PboConfig(seed=(1,)))

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_SPECS))
    def test_batched_influence_equals_one_row_losses(self, name):
        spec, theta, data = self.setup(name)
        points = Dataset(X=data.X[:6], y=data.y[:6], ids=data.ids[:6])
        cfg = PboConfig(epsilon=1e-8, lambda_damp=0.1, lr=0.3, steps=8, batch_size=8, seed=tuple(range(6)))
        results = pbrf_finetune(spec, theta, points, data, cfg)
        tests = [data[j] for j in range(20, 40)]
        maps = pbrf_influence(spec, results, theta, tests, 1e-8)
        assert len(maps) == len(results)
        for result, scores in zip(results, maps):
            assert list(scores) == [ex.id for ex in tests]
            assert scores == pbrf_influence(spec, result, theta, tests, 1e-8)
            for ex in tests:
                moved = -nll_loss(spec, result.theta_pbrf, ex.x, ex.y)
                ref = -nll_loss(spec, theta, ex.x, ex.y)
                assert scores[ex.id].tobytes() == ((moved - ref) / 1e-8).tobytes()

    def test_any_overflowed_result_blocks_the_readout(self):
        spec, theta, data = self.setup("linear")
        fine = PbrfResult(theta.copy(), 0.0, False, 1)
        broken = PbrfResult(theta.copy(), 0.0, True, 0)
        with pytest.raises(OverflowError):
            pbrf_influence(spec, [fine, broken], theta, [data[0]], 1e-8)


class TestCompareInfluences:
    def test_identical_maps(self):
        scores = {i: float(np.sin(i + 1)) for i in range(12)}
        cmp = compare_influences(scores, dict(scores))
        assert cmp.pearson == pytest.approx(1.0, abs=1e-12)
        assert cmp.slope == pytest.approx(1.0, abs=1e-12)

    def test_doubled_scores_keep_correlation(self):
        scores = {i: float(np.sin(i + 1)) for i in range(12)}
        doubled = {k: 2 * v for k, v in scores.items()}
        cmp = compare_influences(scores, doubled)
        assert cmp.pearson == pytest.approx(1.0, abs=1e-12)
        assert cmp.slope == pytest.approx(2.0, abs=1e-12)

    def test_rows_are_id_sorted(self):
        scores = {i: float(i) for i in range(10)}
        cmp = compare_influences(scores, scores)
        assert [r[0] for r in cmp.rows] == list(range(10))

    def test_mismatched_ids_rejected(self):
        a = {i: 1.0 * i for i in range(10)}
        b = {i + 1: 1.0 * i for i in range(10)}
        with pytest.raises(ValueError):
            compare_influences(a, b)

    def test_too_few_points_rejected(self):
        a = {i: 1.0 * i for i in range(5)}
        with pytest.raises(ValueError):
            compare_influences(a, a)

    def test_trichotomy_counts(self):
        # four agreeing, four near-zero, four disagreeing by construction
        x, y = {}, {}
        for i, base in enumerate((1.0, 1.5, -1.2, 2.0)):
            x[i] = base
            y[i] = base * 1.05
        for i in range(4, 8):
            x[i] = 0.001 * (i - 3)
            y[i] = -0.001 * (i - 3)
        for i, base in enumerate((1.0, 1.5, -1.2, 1.8), start=8):
            x[i] = base
            y[i] = -base
        cmp = compare_influences(x, y, near_zero_frac=0.05, agree_rtol=0.2)
        assert cmp.class_counts == {"agreeing": 4, "near_zero": 4, "disagreeing": 4}

    def test_classify_agreement_boundaries(self):
        assert classify_agreement(0.0, 0.0, 1.0, 0.05, 0.2) == "near_zero"
        assert classify_agreement(1.0, 1.1, 1.1, 0.05, 0.2) == "agreeing"
        assert classify_agreement(1.0, -1.0, 1.0, 0.05, 0.2) == "disagreeing"
