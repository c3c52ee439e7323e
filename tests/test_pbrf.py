import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import batch_bregman_mean, bregman_gaps, nll_loss, pbo_objective
from lissakit.core import SeededRng
from lissakit.gnh import GnhOperator, gnh_matrix_exact, sample_batch
from lissakit.lissa import LissaConfig, exact_ihvp, lissa_solve
from lissakit.models import (
    Dataset,
    ModelSpec,
    init_params,
    loss_gradient,
    loss_gradients,
    make_blobs,
    _forward,
)
from lissakit import pbrf
from lissakit.pbrf import (
    InfluenceComparison,
    compare_influences,
    pbo_gradient,
    pbrf_finetune,
    pbrf_influence,
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


def subset(data, rows):
    """The Dataset of ``data``'s rows ``rows``."""
    rows = list(rows)
    return Dataset(X=data.X[rows], y=data.y[rows])


def bregman(h, h_ref, y):
    """Divergence of one pair of logit vectors through the per-row formula."""
    return float(bregman_gaps(np.array([h], dtype=float), np.array([h_ref], dtype=float), np.array([y]))[0])


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
            bregman_gaps(np.zeros((1, 3)), np.zeros((1, 2)), np.array([0]))

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
        moved = theta + 0.1 * SeededRng(12).normal(spec.n_params)
        X, y = data.X[:6], data.y[:6]
        logits, _ = _forward(spec, moved, X)
        ref_logits, _ = _forward(spec, theta, X)
        gaps = bregman_gaps(logits, ref_logits, y)
        for b in range(6):
            assert gaps[b] == bregman(logits[b], ref_logits[b], y[b])
        assert batch_bregman_mean(spec, moved, theta, X, y) == float(gaps.mean())


class TestPboObjective:
    def test_at_reference_reduces_to_train_loss(self, quad):
        spec, theta, data, H, damp, eta = quad
        want = 0.7 * nll_loss(spec, theta, data[0].x, data[0].y)
        got = pbo_objective(spec, theta, theta, data[0], data, 0.7, damp)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_epsilon_at_reference_is_zero(self, quad):
        spec, theta, data, H, damp, eta = quad
        assert pbo_objective(spec, theta, theta, data[0], data, 0.0, damp) == 0.0

    def test_gradient_matches_finite_differences(self, quad):
        spec, theta, data, H, damp, eta = quad
        rng = SeededRng(77)
        moved = theta + 0.05 * rng.normal(spec.n_params)
        batch = subset(data, sample_batch(data, 64, SeededRng(8)))
        grad = pbo_gradient(spec, moved[None], theta, subset(data, [0]), batch.X, 0.3, damp)[0]
        step = 1e-5
        for _ in range(10):
            d = rng.normal(spec.n_params)
            d /= np.linalg.norm(d)
            up = pbo_objective(spec, moved + step * d, theta, data[0], batch, 0.3, damp)
            down = pbo_objective(spec, moved - step * d, theta, data[0], batch, 0.3, damp)
            fd = (up - down) / (2 * step)
            assert abs(fd - grad @ d) <= 1e-4 * max(abs(fd), 1e-12)

    def test_gradient_at_reference_is_scaled_train_gradient(self, quad):
        spec, theta, data, H, damp, eta = quad
        X = data.X[sample_batch(data, 16, SeededRng(9))]
        grad = pbo_gradient(spec, theta[None], theta, subset(data, [0]), X, 0.25, damp)[0]
        want = 0.25 * loss_gradient(spec, theta, data[0]).values
        assert np.allclose(grad, want, atol=1e-14)

    def test_config_validation(self, quad):
        # the finetune's settings: epsilon here, the rest in the solve's config
        spec, theta, data, H, damp, eta = quad
        with pytest.raises(ValueError, match="epsilon"):
            finetune(spec, theta, data, [0], batch_size=64, eta=eta, damp=damp, steps=1, seeds=[0], epsilon=-1e-8)
        with pytest.raises(ValueError):
            LissaConfig(eta=0.0, lambda_damp=damp, t_steps=1)
        with pytest.raises(ValueError):
            LissaConfig(eta=eta, lambda_damp=damp, t_steps=0)


def finetune(spec, theta, data, rows, *, batch_size, eta, damp, steps, seeds, epsilon):
    """pbrf_finetune of ``data``'s rows ``rows`` with the operator and the
    solver settings that a solve of the same items would take."""
    op = GnhOperator(spec, theta, data, batch_size=batch_size)
    cfg = LissaConfig(eta=eta, lambda_damp=damp, t_steps=steps, seed=tuple(seeds))
    return pbrf_finetune(op, subset(data, rows), cfg, epsilon)


class TestPbrfFinetune:
    def test_zero_epsilon_stays_at_reference(self, quad):
        spec, theta, data, H, damp, eta = quad
        moved = finetune(spec, theta, data, [0], batch_size=64, eta=eta, damp=damp, steps=30, seeds=[1], epsilon=0.0)
        assert np.array_equal(moved, theta[None])

    def test_deterministic_given_seed(self, quad):
        spec, theta, data, H, damp, eta = quad
        kw = dict(batch_size=32, eta=eta, damp=damp, steps=25, seeds=[3], epsilon=1e-4)
        a = finetune(spec, theta, data, [0], **kw)
        b = finetune(spec, theta, data, [0], **kw)
        assert np.array_equal(a, b)

    def test_full_batch_matches_ridge_closed_form(self, quad):
        # deterministic descent: displacement/epsilon converges to the
        # damped inverse-curvature direction
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        grad_train = loss_gradient(spec, theta, train).values
        ustar = exact_ihvp(H, damp, grad_train)
        moved = finetune(
            spec, theta, data, [0], batch_size=len(data), eta=eta, damp=damp, steps=80, seeds=[0], epsilon=1e-8
        )
        implied = -(moved[0] - theta) / 1e-8
        rel = np.linalg.norm(implied - ustar) / np.linalg.norm(ustar)
        assert rel <= 0.02

    def test_first_overflowing_step_raises_and_no_later_step_runs(self, monkeypatch):
        # point 2's features are huge, so its training term overflows once
        # theta has moved along it, while the other chains stay finite; the
        # step that overflows is the last one that runs
        spec, theta, data = TestLockstep.setup("relu")
        X = data.X.copy()
        X[2] = 1e200
        data = Dataset(X=X, y=data.y)
        kw = dict(batch_size=8, eta=0.3, damp=0.1, seeds=[1, 2, 3, 4], epsilon=1.0)
        steps = []
        real_gradient = pbrf.pbo_gradient

        def gradient(*args):
            steps.append(len(steps) + 1)
            return real_gradient(*args)

        monkeypatch.setattr(pbrf, "pbo_gradient", gradient)
        with pytest.raises(OverflowError, match="^finetune overflowed; influences are unavailable$"):
            finetune(spec, theta, data, range(4), steps=10, **kw)
        last = len(steps)
        assert 1 < last < 10
        assert np.isfinite(finetune(spec, theta, data, range(4), steps=last - 1, **kw)).all()

    def test_objective_trace_non_increasing(self, quad):
        # step k's batch is fixed by (seed, k), so the finetunes with steps
        # 5, 10, ..., 100 are prefixes of one trajectory
        spec, theta, data, H, damp, eta = quad
        values = []
        for steps in range(5, 101, 5):
            moved = finetune(
                spec, theta, data, [0], batch_size=64, eta=eta, damp=damp, steps=steps, seeds=[4], epsilon=1e-3
            )
            values.append(pbo_objective(spec, moved[0], theta, data[0], data, 1e-3, damp))
        assert len(values) == 20
        increases = np.diff(values)
        assert increases.max() <= 1e-3 * values[0]
        assert values[-1] <= values[0]


class TestPbrfInfluence:
    def test_reference_parameters_give_zeros(self, quad):
        spec, theta, data, H, damp, eta = quad
        scores = pbrf_influence(spec, theta[None].copy(), theta, subset(data, range(5)), 1e-8)
        assert scores.shape == (1, 5) and (scores == 0.0).all()

    def test_quadratic_model_matches_dense_formula(self, quad):
        spec, theta, data, H, damp, eta = quad
        train = data[0]
        tests = subset(data, range(100, 120))
        grad_train = loss_gradient(spec, theta, train).values
        u_exact = exact_ihvp(H, damp, -grad_train)
        exact = -loss_gradients(spec, theta, tests.X, tests.y) @ u_exact
        moved = finetune(
            spec, theta, data, [0], batch_size=len(data), eta=eta, damp=damp, steps=80, seeds=[0], epsilon=1e-8
        )
        (scores,) = pbrf_influence(spec, moved, theta, tests, 1e-8)
        for j in range(len(tests)):
            assert abs(scores[j] - exact[j]) <= 0.02 * abs(exact[j])

    def test_epsilon_linear_response(self, quad):
        # doubling epsilon doubles the displacement but leaves scores fixed
        spec, theta, data, H, damp, eta = quad
        tests = subset(data, range(100, 110))
        scores = {}
        for eps in (1e-8, 2e-8):
            moved = finetune(
                spec, theta, data, [0], batch_size=len(data), eta=eta, damp=damp, steps=60, seeds=[0], epsilon=eps
            )
            (scores[eps],) = pbrf_influence(spec, moved, theta, tests, eps)
        for a, b in zip(scores[1e-8], scores[2e-8]):
            assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))

    def test_matched_seeds_agree_pointwise_with_solver(self, quad):
        # the finetune replays the solve's operator and settings, so their
        # batch sequences are identical and the finetune displacement tracks
        # the solver iterate to first order in epsilon
        spec, theta, data, H, damp, eta = quad
        tests = subset(data, range(100, 120))
        points = subset(data, [0])
        grads = loss_gradients(spec, theta, points.X, points.y)
        op = GnhOperator(spec, theta, data, batch_size=64)
        cfg = LissaConfig(eta=eta, lambda_damp=damp, t_steps=80, seed=(11,))
        (u,), _ = lissa_solve(op, -grads, cfg)
        lissa = -loss_gradients(spec, theta, tests.X, tests.y) @ u
        (pbrf_scores,) = pbrf_influence(spec, pbrf_finetune(op, points, cfg, 1e-8), theta, tests, 1e-8)
        for a, b in zip(lissa, pbrf_scores):
            assert abs(a - b) <= 0.02 * max(abs(a), abs(b))

    def test_overflow_propagates(self, quad):
        # an overflowing finetune leaves no block to read out
        spec, theta, data, H, damp, eta = quad
        with pytest.raises(OverflowError, match="influences are unavailable"):
            finetune(spec, theta, data, [0], batch_size=32, eta=1e6, damp=1.0, steps=100, seeds=[2], epsilon=1.0)

    def test_epsilon_validation(self, quad):
        spec, theta, data, H, damp, eta = quad
        with pytest.raises(ValueError):
            pbrf_influence(spec, theta[None].copy(), theta, subset(data, [0]), 0.0)


LOCKSTEP_SPECS = {
    "linear": ModelSpec(kind="softmax-linear", layer_sizes=(5, 3)),
    "tanh": ModelSpec(kind="mlp", layer_sizes=(5, 6, 3), activation="tanh"),
    "relu": ModelSpec(kind="mlp", layer_sizes=(5, 6, 4, 3), activation="relu"),
}


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
        seeds = (11, 12, 13, 14, 11)
        kw = dict(batch_size=batch_size, eta=0.3, damp=0.1, steps=12, epsilon=epsilon)
        block = finetune(spec, theta, data, rows, seeds=seeds, **kw)
        assert block.shape == (len(rows), spec.n_params)
        for i in range(len(rows)):
            one = finetune(spec, theta, data, rows[i : i + 1], seeds=seeds[i : i + 1], **kw)
            assert block[i].tobytes() == one[0].tobytes()
        if epsilon == 0.0:
            assert np.array_equal(block, np.broadcast_to(theta, block.shape))

    def test_one_seed_per_point(self):
        spec, theta, data = self.setup("linear")
        op = GnhOperator(spec, theta, data, batch_size=8)
        points = Dataset(X=data.X[:3], y=data.y[:3])
        for seed in ((1, 2), (1, 2, 3, 4), (), 1):
            cfg = LissaConfig(eta=0.3, lambda_damp=0.1, t_steps=2, seed=seed)
            with pytest.raises(ValueError, match="one seed per point"):
                pbrf_finetune(op, points, cfg, 1e-8)
        cfg = LissaConfig(eta=0.3, lambda_damp=0.1, t_steps=2, seed=(1, 2))
        with pytest.raises(ValueError, match="one seed per point"):
            pbrf_finetune(op, subset(data, [0]), cfg, 1e-8)

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_SPECS))
    def test_batched_influence_equals_one_row_losses(self, name):
        spec, theta, data = self.setup(name)
        finetunes = finetune(
            spec, theta, data, range(6), batch_size=8, eta=0.3, damp=0.1, steps=8, seeds=range(6), epsilon=1e-8
        )
        tests = subset(data, range(20, 40))
        block = pbrf_influence(spec, finetunes, theta, tests, 1e-8)
        assert block.shape == (len(finetunes), len(tests))
        for values, scores in zip(finetunes, block):
            assert scores.tobytes() == pbrf_influence(spec, values[None], theta, tests, 1e-8)[0].tobytes()
            for j in range(len(tests)):
                ex = tests[j]
                moved = -nll_loss(spec, values, ex.x, ex.y)
                ref = -nll_loss(spec, theta, ex.x, ex.y)
                assert scores[j].tobytes() == ((moved - ref) / 1e-8).tobytes()


class TestCompareInfluences:
    def test_identical_maps(self):
        scores = np.sin(np.arange(12) + 1.0)
        cmp = compare_influences(scores, scores.copy())
        assert cmp.pearson == pytest.approx(1.0, abs=1e-12)
        assert cmp.slope == pytest.approx(1.0, abs=1e-12)

    def test_doubled_scores_keep_correlation(self):
        scores = np.sin(np.arange(12) + 1.0)
        cmp = compare_influences(scores, 2 * scores)
        assert cmp.pearson == pytest.approx(1.0, abs=1e-12)
        assert cmp.slope == pytest.approx(2.0, abs=1e-12)

    def test_unequal_shapes_rejected(self):
        a = np.arange(12.0)
        for b in (a.reshape(3, 4), a[:10], np.arange(13.0)):
            with pytest.raises(ValueError, match="differ in shape"):
                compare_influences(a, b)

    def test_too_few_points_rejected(self):
        a = np.arange(5.0)
        with pytest.raises(ValueError):
            compare_influences(a, a)

    def test_trichotomy_counts(self):
        # four agreeing, four near-zero, four disagreeing by construction
        x, y = np.empty(12), np.empty(12)
        for i, base in enumerate((1.0, 1.5, -1.2, 2.0)):
            x[i] = base
            y[i] = base * 1.05
        for i in range(4, 8):
            x[i] = 0.001 * (i - 3)
            y[i] = -0.001 * (i - 3)
        for i, base in enumerate((1.0, 1.5, -1.2, 1.8), start=8):
            x[i] = base
            y[i] = -base
        cmp = compare_influences(x, y)
        assert cmp.class_counts == {"agreeing": 4, "near_zero": 4, "disagreeing": 4}

    def test_counts_equal_a_per_point_loop(self):
        # the scalar rule, one point at a time, on a 160 x 40 scatter with
        # every class present
        rng = SeededRng(31)
        x = rng.normal(6400).reshape(160, 40)
        y = x * (1.0 + 0.4 * rng.normal(6400).reshape(160, 40))
        scale = float(np.abs(np.concatenate([x.ravel(), y.ravel()])).max())
        want = {"agreeing": 0, "near_zero": 0, "disagreeing": 0}
        for xi, yi in zip(x.ravel(), y.ravel()):
            magnitude = max(abs(xi), abs(yi))
            if magnitude <= 0.05 * scale:
                want["near_zero"] += 1
            elif abs(yi - xi) <= 0.2 * magnitude:
                want["agreeing"] += 1
            else:
                want["disagreeing"] += 1
        assert min(want.values()) > 0
        assert compare_influences(x, y).class_counts == want

    def test_classify_agreement_boundaries(self):
        # each boundary pair next to nine agreeing pairs, the last (1, scale),
        # which fix the largest magnitude at scale; every limit is inclusive
        for x, y, scale, kind in (
            (0.0, 0.0, 1.0, "near_zero"),
            (1.0, 1.1, 1.1, "agreeing"),
            (1.0, -1.0, 1.0, "disagreeing"),
            (0.05, 0.0, 1.0, "near_zero"),
            (1.0, 1.25, 1.25, "agreeing"),
        ):
            fill = np.linspace(0.5, 1.0, 9)
            xs = np.append(fill, x)
            ys = np.append(fill[:-1], [scale, y])
            counts = compare_influences(xs, ys).class_counts
            want = {"agreeing": 9, "near_zero": 0, "disagreeing": 0}
            want[kind] += 1
            assert counts == want, (x, y)
