import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit.core import DenseOperator, SeededRng
from lissakit.gnh import GnhOperator, gnh_matrix_exact
from lissakit.lissa import (
    CounterExampleProblem,
    LissaConfig,
    LissaDivergenceError,
    convergence_correlation,
    counterexample_build,
    counterexample_moments,
    counterexample_simulate,
    exact_ihvp,
    lissa_solve,
)
from lissakit.models import ModelSpec, ParamVector, init_params, make_blobs
from lissakit.models import test_gradient as measurement_gradient


def toy_problem(damp=0.3, seed=5):
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta = init_params(spec, SeededRng(seed), scale=0.5)
    data = make_blobs(SeededRng(seed + 1), 512, 10, 4)
    H = gnh_matrix_exact(spec, theta, data)
    g = -measurement_gradient(spec, theta, data[0]).values
    return spec, theta, data, H, g


def growth_problem():
    # ten equal unit eigenvalues, damping 0.1, eta saturating the bound,
    # single-sample batches: per-step second-moment factor 9/1.21
    return counterexample_build(10, 1.0, 1, 0.1, 1.0 / 1.1, seed=0)


class TestExactIhvp:
    def test_identity(self):
        u = exact_ihvp(np.eye(2), 1.0, np.array([3.0, 0.0]))
        assert np.allclose(u, [1.5, 0.0], atol=1e-12)

    def test_diagonal(self):
        u = exact_ihvp(np.diag([2.0, 1.0]), 1.0, np.array([3.0, 0.0]))
        assert np.allclose(u, [1.0, 0.0], atol=1e-12)

    def test_random_psd_residual(self):
        rng = SeededRng(1)
        A = rng.normal(50 * 50).reshape(50, 50)
        H = A @ A.T / 50
        g = rng.normal(50)
        u = exact_ihvp(H, 0.01, g)
        system = H + 0.01 * np.eye(50)
        assert np.linalg.norm(g - system @ u) <= 1e-10 * np.linalg.norm(g)

    def test_singular_system(self):
        with pytest.raises(np.linalg.LinAlgError):
            exact_ihvp(np.diag([1.0, 0.0]), 0.0, np.array([1.0, 1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            exact_ihvp(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0, np.ones(2))

    def test_zero_gradient(self):
        u = exact_ihvp(np.eye(3), 0.5, np.zeros(3))
        assert np.array_equal(u, np.zeros(3))

    @given(st.integers(min_value=2, max_value=10), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_property_residual(self, n, damp):
        rng = SeededRng(n * 100)
        A = rng.normal(n * n).reshape(n, n)
        H = A @ A.T / n
        g = rng.normal(n)
        u = exact_ihvp(H, damp, g)
        system = H + damp * np.eye(n)
        assert np.linalg.norm(g - system @ u) <= 1e-10 * np.linalg.norm(g)


class TestLissaSolve:
    def test_identity_operator_fixed_point(self):
        # H = I, damping 1, eta = 1/2 lands on u* after one step and stays
        op = DenseOperator(np.eye(2))
        cfg = LissaConfig(eta=0.5, lambda_damp=1.0, t_steps=7, snapshot_every=1)
        u, trace = lissa_solve(op, np.array([1.0, 0.0]), cfg)
        assert np.array_equal(u, [0.5, 0.0])
        for step, snap in trace.snapshots:
            assert np.array_equal(snap, [0.5, 0.0])
        assert np.allclose(trace.norms[1:], 0.5)

    def test_identity_operator_geometric_approach(self):
        # smaller eta: per-coordinate iterate 0.5 * (1 - (1 - 2 eta)^t)
        op = DenseOperator(np.eye(2))
        cfg = LissaConfig(eta=0.25, lambda_damp=1.0, t_steps=12, snapshot_every=1)
        _, trace = lissa_solve(op, np.array([1.0, 0.0]), cfg)
        for step, snap in trace.snapshots:
            want = 0.5 * (1.0 - 0.5**step)
            assert np.allclose(snap, [want, 0.0], atol=1e-14)

    def test_zero_gradient_stays_zero(self):
        op = DenseOperator(np.eye(3))
        cfg = LissaConfig(eta=0.1, lambda_damp=1.0, t_steps=5)
        u, trace = lissa_solve(op, np.zeros(3), cfg)
        assert np.array_equal(u, np.zeros(3))
        assert np.array_equal(trace.norms, np.zeros(6))

    def test_deterministic_contraction_bound(self):
        # full-dataset operator at eta = 1/(lambda_max + damp): the error
        # shrinks at least by (1 - damp * eta) every step
        spec, theta, data, H, g = toy_problem()
        damp = 0.3
        eta = 1.0 / (np.linalg.eigvalsh(H)[-1] + damp)
        ustar = exact_ihvp(H, damp, g)
        op = GnhOperator(spec, theta, data)
        cfg = LissaConfig(eta=eta, lambda_damp=damp, t_steps=40, snapshot_every=1)
        _, trace = lissa_solve(op, g, cfg)
        for step, snap in trace.snapshots:
            bound = (1.0 - damp * eta) ** step * np.linalg.norm(ustar)
            assert np.linalg.norm(snap - ustar) <= bound * (1 + 1e-9)

    def test_u0_at_solution_stays(self):
        spec, theta, data, H, g = toy_problem()
        ustar = exact_ihvp(H, 0.3, g)
        op = GnhOperator(spec, theta, data)
        eta = 1.0 / (np.linalg.eigvalsh(H)[-1] + 0.3)
        cfg = LissaConfig(eta=eta, lambda_damp=0.3, t_steps=10, u0=ustar)
        u, _ = lissa_solve(op, g, cfg)
        assert np.allclose(u, ustar, atol=1e-10)

    def test_param_vector_round_trip(self):
        spec, theta, data, H, g = toy_problem()
        gv = ParamVector(g, spec.segments)
        op = GnhOperator(spec, theta, data)
        cfg = LissaConfig(eta=0.5, lambda_damp=0.5, t_steps=3)
        u, _ = lissa_solve(op, gv, cfg)
        assert isinstance(u, ParamVector)
        assert u.segments == spec.segments

    def test_seed_determinism(self):
        spec, theta, data, H, g = toy_problem()
        op = GnhOperator(spec, theta, data, batch_size=16, rng=SeededRng(99))
        cfg = LissaConfig(eta=0.5, lambda_damp=0.5, t_steps=20, seed=3)
        u1, _ = lissa_solve(op, g, cfg)
        u2, _ = lissa_solve(op, g, cfg)
        assert np.array_equal(u1, u2)
        u3, _ = lissa_solve(op, g, LissaConfig(eta=0.5, lambda_damp=0.5, t_steps=20, seed=4))
        assert not np.array_equal(u1, u3)

    def test_snapshots_strictly_increasing_and_cover_final(self):
        op = DenseOperator(np.eye(2))
        cfg = LissaConfig(eta=0.1, lambda_damp=1.0, t_steps=7, snapshot_every=3)
        _, trace = lissa_solve(op, np.ones(2), cfg)
        steps = [s for s, _ in trace.snapshots]
        assert steps == [3, 6, 7]

    def test_divergence_raises_with_step(self):
        problem, sampler = growth_problem()
        cfg = LissaConfig(
            eta=problem.eta, lambda_damp=problem.lambda_damp, t_steps=500,
            seed=5, u0=problem.u0,
        )
        with pytest.raises(LissaDivergenceError) as err:
            lissa_solve(sampler, np.zeros(10), cfg)
        assert 0 < err.value.step < 500
        assert err.value.norm > 1e12

    def test_non_finite_iterate_raises(self):
        class BrokenOp:
            n_params = 2
            segments = (("all", 0, 2),)

            def matvec(self, v):
                return np.full(2, np.inf)

        cfg = LissaConfig(eta=0.5, lambda_damp=1.0, t_steps=5)
        with pytest.raises(LissaDivergenceError) as err:
            lissa_solve(BrokenOp(), np.array([1.0, 0.0]), cfg)
        assert err.value.step == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LissaConfig(eta=0.0, lambda_damp=1.0, t_steps=1)
        with pytest.raises(ValueError):
            LissaConfig(eta=0.1, lambda_damp=-1.0, t_steps=1)
        with pytest.raises(ValueError):
            LissaConfig(eta=0.1, lambda_damp=1.0, t_steps=0)


class TestConvergenceCorrelation:
    def solve_with_snapshots(self):
        spec, theta, data, H, g = toy_problem(seed=5)
        grads = [measurement_gradient(spec, theta, data[i]).values for i in range(1, 9)]
        damp = 0.5
        eta = 1.0 / (np.linalg.eigvalsh(H)[-1] + damp)
        op = GnhOperator(spec, theta, data, batch_size=64, rng=SeededRng(7))
        cfg = LissaConfig(eta=eta, lambda_damp=damp, t_steps=60, seed=2, snapshot_every=2)
        _, trace = lissa_solve(op, g, cfg)
        return H, g, grads, trace

    def test_final_snapshot_reference_ends_at_one(self):
        _, _, grads, trace = self.solve_with_snapshots()
        series = convergence_correlation(trace, grads)
        assert series[-1][1] == pytest.approx(1.0, abs=1e-12)

    def test_exact_reference_converges(self):
        H, g, grads, trace = self.solve_with_snapshots()
        series = convergence_correlation(trace, grads, reference=exact_ihvp(H, 0.5, g))
        values = [c for _, c in series]
        assert values[-1] >= 0.99
        burn_in = next(i for i, c in enumerate(values) if c >= 0.9)
        drops = [values[i + 1] - values[i] for i in range(burn_in, len(values) - 1)]
        assert min(drops) >= -0.05

    def test_identical_gradients_rejected(self):
        _, _, grads, trace = self.solve_with_snapshots()
        with pytest.raises(ValueError):
            convergence_correlation(trace, [grads[0], grads[0]])

    def test_needs_two_gradients(self):
        _, _, grads, trace = self.solve_with_snapshots()
        with pytest.raises(ValueError):
            convergence_correlation(trace, grads[:1])


class TestCounterExampleBuild:
    def test_equal_spectrum_growth_factor(self):
        problem, _ = growth_problem()
        assert np.allclose(problem.second_moment_diagonal, 9.0 / 1.21)

    def test_batch_threshold_arithmetic(self):
        problem, _ = growth_problem()
        assert problem.batch_threshold == pytest.approx((1.0 / 1.1) ** 2 * 10.0)
        assert 8 <= problem.batch_threshold < 9

    def test_below_threshold_batch_has_divergent_step_size(self):
        # |B| = 8 is under the threshold: some step size in (0, 1] pushes a
        # second-moment factor above 1
        factors = []
        for eta in np.linspace(0.05, 1.0, 20):
            problem, _ = counterexample_build(10, 1.0, 8, 0.1, eta, seed=0)
            factors.append(problem.second_moment_diagonal.max())
        assert max(factors) > 1.0

    def test_large_batch_removes_noise_term(self):
        problem, _ = counterexample_build(10, 1.0, 10**9, 0.1, 1.0 / 1.1, seed=0)
        contraction_sq = (1.0 - problem.eta * 1.1) ** 2
        assert np.allclose(problem.second_moment_diagonal, contraction_sq, atol=1e-8)

    def test_rotation_orthogonal(self):
        problem, _ = counterexample_build(12, np.linspace(0.5, 3.0, 12), 2, 0.2, 0.1, seed=4)
        eye = problem.rotation @ problem.rotation.T
        assert np.abs(eye - np.eye(12)).max() <= 1e-10

    def test_mean_matrix_spectrum(self):
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        problem, _ = counterexample_build(4, lam, 2, 0.2, 0.1, seed=4)
        assert np.allclose(np.linalg.eigvalsh(problem.mean_matrix()), np.sort(lam))

    def test_default_u0_targets_worst_coordinate(self):
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        problem, _ = counterexample_build(4, lam, 2, 0.2, 0.1, seed=4)
        top = int(np.argmax(problem.second_moment_diagonal))
        assert np.array_equal(problem.u0, problem.rotation[:, top])
        assert np.linalg.norm(problem.u0) == pytest.approx(1.0)

    def test_sampler_moments_by_enumeration(self):
        # averaging x x^T over all sign patterns gives H exactly, and
        # averaging (x x^T)^2 gives Tr(H) H exactly: ||x||^2 is constant
        lam = np.array([2.0, 1.0, 0.5, 0.25])
        problem, sampler = counterexample_build(4, lam, 1, 0.3, 0.25, seed=3)
        H = problem.mean_matrix()
        first = np.zeros((4, 4))
        second = np.zeros((4, 4))
        patterns = list(itertools.product([-1.0, 1.0], repeat=4))
        for signs in patterns:
            x = sampler.rank_one_factor(np.array(signs))
            outer = np.outer(x, x)
            first += outer
            second += outer @ outer
        first /= len(patterns)
        second /= len(patterns)
        assert np.allclose(first, H, atol=1e-12)
        assert np.allclose(second, problem.trace * H, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_build(3, np.array([1.0, -0.5, 2.0]), 1, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            counterexample_build(3, 0.0, 1, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            counterexample_build(3, np.ones(4), 1, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            counterexample_build(3, 1.0, 0, 0.1, 0.5, seed=0)


class TestCounterExampleMoments:
    def test_step_zero_is_u0_norm(self):
        problem, _ = growth_problem()
        assert counterexample_moments(problem, t=0) == pytest.approx(1.0)

    def test_equal_spectrum_closed_form(self):
        problem, _ = growth_problem()
        u0 = SeededRng(8).normal(10)
        factor = 9.0 / 1.21
        for t in (1, 3, 6):
            want = factor**t * float(u0 @ u0)
            assert counterexample_moments(problem, u0, t) == pytest.approx(want, rel=1e-10)

    def test_exact_by_enumeration(self):
        # brute-force expectation over every sign sequence; the coordinate
        # coupling through s matters, so the naive per-coordinate power of
        # the one-step factors is measurably wrong at t = 2
        lam = np.array([2.0, 1.0, 0.5, 0.25])
        problem, _ = counterexample_build(4, lam, 1, 0.3, 0.25, seed=3)
        V, root = problem.rotation, np.sqrt(lam)
        eta, damp = problem.eta, problem.lambda_damp

        def step(u, signs):
            x = V @ (root * np.array(signs))
            return u - eta * (x * (x @ u) + damp * u)

        patterns = list(itertools.product([-1.0, 1.0], repeat=4))
        one = np.mean([np.sum(step(problem.u0, s) ** 2) for s in patterns])
        two = np.mean(
            [np.sum(step(step(problem.u0, s1), s2) ** 2) for s1 in patterns for s2 in patterns]
        )
        assert counterexample_moments(problem, t=1) == pytest.approx(one, rel=1e-12)
        assert counterexample_moments(problem, t=2) == pytest.approx(two, rel=1e-12)
        coords_sq = (V.T @ problem.u0) ** 2
        naive = float((problem.second_moment_diagonal**2 * coords_sq).sum())
        assert abs(naive - two) > 1e-3

    def test_monte_carlo_matches_in_growth_regime(self):
        problem, _ = growth_problem()
        mc = counterexample_simulate(problem, 2000, 8, seed=36)
        exact = np.array([counterexample_moments(problem, t=t) for t in range(9)])
        rel = np.abs(mc.second_moment / exact - 1.0)
        assert rel[5] <= 0.10
        assert rel[1:].max() <= 0.15

    def test_monte_carlo_matches_on_unequal_spectrum(self):
        lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
        problem, _ = counterexample_build(6, lam, 4, 0.5, 0.2, seed=7)
        mc = counterexample_simulate(problem, 4000, 6, seed=9)
        for t in range(1, 7):
            exact = counterexample_moments(problem, t=t)
            assert abs(mc.second_moment[t] - exact) <= 3 * mc.second_moment_se[t]

    def test_mean_iterate_contracts_despite_growth(self):
        problem, _ = growth_problem()
        mc = counterexample_simulate(problem, 500, 6, seed=36)
        rate = 1.0 - problem.lambda_damp * problem.eta
        for t in range(1, 7):
            bound = rate**t * np.linalg.norm(problem.u0) + 3 * mc.mean_iterate_se[t]
            assert np.linalg.norm(mc.mean_iterate[t]) <= bound

    def test_simulate_validation(self):
        problem, _ = growth_problem()
        with pytest.raises(ValueError):
            counterexample_simulate(problem, 1, 3, seed=0)
        with pytest.raises(ValueError):
            counterexample_simulate(problem, 10, 0, seed=0)
