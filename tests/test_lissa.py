import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import DenseOperator, mean_matrix, rank_one_factor, sampler_matvec, solve_loop
from lissakit.core import SeededRng, derive_seed, sym_eig
from lissakit.gnh import GnhOperator, gnh_matrix_exact
from lissakit.influence import eigen_reweight
from lissakit import lissa
from lissakit.lissa import (
    CounterExampleMonteCarlo,
    CounterExampleProblem,
    LissaConfig,
    LissaDivergenceError,
    RotatedRankOneSampler,
    convergence_correlation,
    counterexample_build,
    counterexample_moments,
    counterexample_simulate,
    exact_ihvp,
    lissa_solve,
)
from lissakit.models import ModelSpec, init_params, loss_gradient, loss_gradients, make_blobs


def toy_problem(damp=0.3, seed=5):
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta = init_params(spec, SeededRng(seed), scale=0.5)
    data = make_blobs(SeededRng(seed + 1), 512, 10, 4)
    H = gnh_matrix_exact(spec, theta, data)
    g = loss_gradient(spec, theta, data[0]).values
    return spec, theta, data, H, g


def growth_problem():
    # ten equal unit eigenvalues, damping 0.1, eta saturating the bound,
    # single-sample batches: per-step second-moment factor 9/1.21
    return counterexample_build([1.0] * 10, 1, 0.1, 1.0 / 1.1, seed=0)


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
        # a PSD H leaves H + lambda I singular or indefinite at lambda <= 0
        for damp in (0.0, -0.5):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                exact_ihvp(np.diag([1.0, 0.0]), damp, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("kind, sizes", [("softmax-linear", (4, 3)), ("mlp", (4, 5, 3))])
    def test_singular_gnh_at_zero_damping_raises(self, kind, sizes):
        # shifting every last-layer bias by one constant changes no softmax, so
        # the GNH is singular and a null eigenvalue + 0 comes out non-positive
        spec = ModelSpec(kind=kind, layer_sizes=sizes)
        for seed in range(4):
            theta = init_params(spec, SeededRng(seed), scale=0.5)
            data = make_blobs(SeededRng(seed + 1), 30, sizes[0], sizes[-1])
            g = loss_gradient(spec, theta, data[0]).values
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                exact_ihvp(gnh_matrix_exact(spec, theta, data), 0.0, g)

    def test_one_solve_when_the_first_residual_meets_the_bound(self, monkeypatch):
        _, _, _, H, g = toy_problem()
        G = np.stack([g, 2.0 * g, SeededRng(3).normal(g.size)], axis=1)
        solve = np.linalg.solve
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        for rhs in (g, G):
            calls.clear()
            u = exact_ihvp(H, 0.3, rhs)
            assert len(calls) == 1
            residual = rhs - (H @ u + 0.3 * u)
            assert np.all(np.linalg.norm(residual, axis=0) <= 1e-10 * np.linalg.norm(rhs, axis=0))

    def test_a_missed_bound_raises_after_one_solve(self, monkeypatch):
        # no second round: a first solve that misses the bound is an error
        _, _, _, H, g = toy_problem()
        solve = np.linalg.solve
        calls = []

        def off(a, b):
            calls.append(1)
            return solve(a, b) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", off)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            exact_ihvp(H, 0.3, g)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("damp", [0.01, 0.3])
    def test_eigenbasis_solve_equals_lu(self, seed, damp, monkeypatch):
        # the solve in sym_eig(H) makes no LU solve and agrees with it to
        # rounding, for a vector and for a block
        n = 20 + 10 * seed
        A = SeededRng(seed).normal(n * n).reshape(n, n)
        H = A @ A.T / n
        eig = sym_eig(H)
        G = SeededRng(seed + 10).normal(n * 5).reshape(n, 5)
        for rhs in (G[:, 0], G):
            lu = exact_ihvp(H, damp, rhs)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", None)
                u = exact_ihvp(H, damp, rhs, eig)
            assert u.shape == rhs.shape
            assert np.max(np.abs(u - lu)) <= 1e-12 * np.max(np.abs(lu))

    def test_singular_shifted_system_raises_on_both_paths(self):
        # H + lambda I = diag(2, 0): LU finds it singular, and the eigenbasis
        # solve divides by 0, which the residual check reports
        H, g = np.diag([1.0, -1.0]), np.array([1.0, 1.0])
        for eig in (None, sym_eig(H)):
            with pytest.raises(np.linalg.LinAlgError):
                exact_ihvp(H, 1.0, g, eig)

    def test_eigenbasis_of_another_matrix_raises(self):
        _, _, _, H, g = toy_problem()
        for other in (2.0 * H, H + 0.01 * np.eye(H.shape[0])):
            with pytest.raises(np.linalg.LinAlgError, match="residual"):
                exact_ihvp(H, 0.3, g, sym_eig(other))

    def test_zero_gradient(self):
        u = exact_ihvp(np.eye(3), 0.5, np.zeros(3))
        assert np.array_equal(u, np.zeros(3))

    def test_block_matches_column_solves(self):
        _, _, _, H, _ = toy_problem()
        G = SeededRng(8).normal(H.shape[0] * 6).reshape(H.shape[0], 6)
        U = exact_ihvp(H, 0.3, G)
        assert U.shape == G.shape
        for j in range(G.shape[1]):
            u = exact_ihvp(H, 0.3, G[:, j])
            assert np.linalg.norm(U[:, j] - u) <= 1e-13 * np.linalg.norm(u)

    def test_one_column_block_is_bit_identical_to_vector(self):
        spec, _, _, H, g = toy_problem()
        u = exact_ihvp(H, 0.3, g)
        column = exact_ihvp(H, 0.3, g[:, None])
        assert column.shape == (g.size, 1)
        assert np.array_equal(column[:, 0], u)

    def test_bad_gradient_shape_rejected(self):
        for g in (np.ones((3, 1, 1)), np.ones((4, 2)), np.ones(4)):
            with pytest.raises(ValueError, match="does not match"):
                exact_ihvp(np.eye(3), 1.0, g)

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

    def test_seed_determinism(self):
        spec, theta, data, H, g = toy_problem()
        op = GnhOperator(spec, theta, data, batch_size=16).reseeded(99)
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
        problem = growth_problem()
        sampler = RotatedRankOneSampler(problem).reseeded(0)
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

            def reseeded(self, seed):
                return self

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


class TestFastPathsEqualReferenceLoops:
    """The sampler and the solver take their products through ndarray.dot,
    read signs from the RNG's sign table, and step in place on the matvec
    result; each must give the bits of the plain expressions."""

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 2, 10, 33])
    def test_sampler_matvec_equals_reference(self, n, batch_size):
        problem = counterexample_build(np.linspace(2.0, 0.1, n), batch_size, 0.1, 0.4, seed=n)
        sampler = RotatedRankOneSampler(problem).reseeded(7)
        rng = SeededRng(7)
        v = SeededRng(8).normal(n)
        # enough calls of B n words each to cross several block edges
        for _ in range(40):
            got = sampler.matvec(v)
            want = sampler_matvec(problem, rng, v)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            v = got / np.linalg.norm(got) + 0.5 * v
        assert sampler.rng.position == rng.position

    @staticmethod
    def operators():
        spec, theta, data, H, g = toy_problem()
        mlp = ModelSpec("mlp", (5, 4, 3), "tanh")
        mlp_theta = init_params(mlp, SeededRng(31))
        mlp_data = make_blobs(SeededRng(32), 40, 5, 3)
        mlp_g = loss_gradients(mlp, mlp_theta, mlp_data.X[:1], mlp_data.y[:1])[0]
        lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.05])
        problem = counterexample_build(lam, 2, 0.3, 0.3, seed=12)
        sampler = RotatedRankOneSampler(problem).reseeded(0)
        return {
            "dense": (DenseOperator(H), g, None),
            "gnh-minibatch": (GnhOperator(mlp, mlp_theta, mlp_data, batch_size=6).reseeded(0), mlp_g, None),
            "gnh-full": (GnhOperator(mlp, mlp_theta, mlp_data), mlp_g, mlp_g),
            "sampler-g0": (sampler, np.zeros(problem.n), problem.u0),
            "sampler": (sampler, np.linspace(-1.0, 1.0, problem.n), problem.u0),
        }

    @pytest.mark.parametrize("every", [0, 1, 3])
    @pytest.mark.parametrize("name", ["dense", "gnh-minibatch", "gnh-full", "sampler-g0", "sampler"])
    def test_lissa_solve_equals_reference_loop(self, name, every):
        op, g, u0 = self.operators()[name]
        cfg = LissaConfig(eta=0.3, lambda_damp=0.2, t_steps=10, seed=41, snapshot_every=every, u0=u0)
        u, trace = lissa_solve(op, g, cfg)
        want_u, want_norms, want_snapshots = solve_loop(op, g, cfg)
        assert u.tobytes() == want_u.tobytes()
        assert trace.norms.tobytes() == want_norms.tobytes()
        assert [step for step, _ in trace.snapshots] == [step for step, _ in want_snapshots]
        for (_, got), (_, want) in zip(trace.snapshots, want_snapshots):
            assert got.tobytes() == want.tobytes()
        assert trace.final() is u


class ScheduledOp:
    """Identity curvature whose copy for seed s returns inf from its
    ``diverge_at[s]``-th matvec on, counting each seed's calls in ``calls``."""

    n_params = 3
    segments = (("all", 0, 3),)

    def __init__(self, diverge_at, calls, seed=None):
        self.diverge_at, self.calls, self.seed = diverge_at, calls, seed

    def reseeded(self, seed):
        return ScheduledOp(self.diverge_at, self.calls, seed)

    def matvec(self, v):
        self.calls[self.seed] = self.calls.get(self.seed, 0) + 1
        if self.calls[self.seed] >= self.diverge_at.get(self.seed, math.inf):
            return np.full(3, np.inf)
        return v.copy()


def single_solves_error(op, G, cfg):
    """The (step, norm) that solving the chains one by one in order raises
    first, or None."""
    for r, g in enumerate(G):
        try:
            lissa_solve(op, g, replace(cfg, seed=cfg.seed[r]))
        except LissaDivergenceError as exc:
            return exc.step, exc.norm
    return None


class TestLockstep:
    """R chains stepped together are bit for bit R single solves: iterates,
    norms, snapshots and the raised error."""

    @staticmethod
    def assert_chains_equal_single_solves(op, G, cfg):
        U, trace = lissa_solve(op, G, cfg)
        R, n = len(cfg.seed), op.n_params
        assert U.shape == (R, n) and trace.norms.shape == (R, cfg.t_steps + 1)
        assert U.flags.c_contiguous and trace.final() is U
        for r in range(R):
            g = G[r] if np.ndim(G) == 2 else G
            u, single = lissa_solve(op, g, replace(cfg, seed=cfg.seed[r]))
            assert U[r].tobytes() == u.tobytes()
            assert trace.norms[r].tobytes() == single.norms.tobytes()
            assert [s for s, _ in trace.snapshots] == [s for s, _ in single.snapshots]
            for (_, block), (_, want) in zip(trace.snapshots, single.snapshots):
                assert block[r].tobytes() == want.tobytes()

    @pytest.mark.parametrize("every", [0, 3])
    @pytest.mark.parametrize("u0", ["none", "shared"])
    @pytest.mark.parametrize("name", ["gnh-minibatch", "gnh-full", "sampler"])
    def test_chains_equal_single_solves(self, name, u0, every):
        op, g, _ = TestFastPathsEqualReferenceLoops.operators()[name]
        R, n = 5, op.n_params
        G = np.stack([(1.0 + 0.5 * r) * g + 0.1 * r for r in range(R)])
        U0 = SeededRng(3).normal(R * n).reshape(R, n)
        u0_arg = {"none": None, "shared": U0[0]}[u0]
        seeds = tuple(derive_seed(41, r) for r in range(R))
        cfg = LissaConfig(eta=0.3, lambda_damp=0.2, t_steps=10, seed=seeds, snapshot_every=every, u0=u0_arg)
        self.assert_chains_equal_single_solves(op, G, cfg)

    def test_shared_gradient_and_one_seed_broadcast(self):
        # an (n,) g with R seeds
        op, g, _ = TestFastPathsEqualReferenceLoops.operators()["gnh-minibatch"]
        seeds = (5, 6, 7)
        cfg = LissaConfig(eta=0.3, lambda_damp=0.2, t_steps=6, seed=seeds, snapshot_every=2)
        self.assert_chains_equal_single_solves(op, g, cfg)

    @pytest.mark.parametrize("chains", [10, 300])
    def test_more_chains_than_a_pass(self, monkeypatch, chains):
        # 10 chains in passes of 4, and 300 in the real passes of 256
        if chains == 10:
            monkeypatch.setattr(lissa, "_PASS_CHAINS", 4)
        op, g, u0 = TestFastPathsEqualReferenceLoops.operators()["sampler"]
        seeds = tuple(derive_seed(9, r) for r in range(chains))
        cfg = LissaConfig(eta=0.3, lambda_damp=0.2, t_steps=3, seed=seeds, snapshot_every=1, u0=u0)
        self.assert_chains_equal_single_solves(op, g, cfg)

    def test_error_names_the_lowest_diverging_chain(self):
        # chain 4 diverges at step 2 and chain 1 only at step 7: the error is
        # chain 1's, chains 2 and 3 step on until chain 1 fails, chains above
        # 4 stop with it, and chain 0 steps on to T
        calls = {}
        op = ScheduledOp({1: 7, 4: 2}, calls)
        cfg = LissaConfig(eta=0.5, lambda_damp=1.0, t_steps=10, seed=tuple(range(6)))
        with pytest.raises(LissaDivergenceError) as err:
            lissa_solve(op, np.ones(3), cfg)
        assert (err.value.step, err.value.norm) == (7, math.inf)
        assert calls == {0: 10, 1: 7, 2: 7, 3: 7, 4: 2, 5: 2}
        assert single_solves_error(ScheduledOp({1: 7, 4: 2}, {}), [np.ones(3)] * 6, cfg) == (7, math.inf)

    @pytest.mark.parametrize("pass_chains", [256, 8])
    def test_sampled_divergence_equals_single_solves(self, monkeypatch, pass_chains):
        # the growth regime: some chains outgrow the guard, at various steps
        monkeypatch.setattr(lissa, "_PASS_CHAINS", pass_chains)
        problem = growth_problem()
        sampler = RotatedRankOneSampler(problem).reseeded(0)
        seeds = tuple(derive_seed(2, r) for r in range(40))
        cfg = LissaConfig(eta=problem.eta, lambda_damp=problem.lambda_damp, t_steps=60, seed=seeds, u0=problem.u0)
        G = np.zeros((40, problem.n))
        want = single_solves_error(sampler, G, cfg)
        assert want is not None and want[0] > 1
        with pytest.raises(LissaDivergenceError) as err:
            lissa_solve(sampler, G, cfg)
        assert (err.value.step, err.value.norm) == want

    def test_chain_count_checks(self):
        op = DenseOperator(np.eye(2))
        cfg = LissaConfig(eta=0.5, lambda_damp=1.0, t_steps=2, seed=(1, 2, 3))
        with pytest.raises(ValueError, match="one per gradient row"):
            lissa_solve(op, np.ones((2, 2)), cfg)
        with pytest.raises(ValueError, match="one per gradient row"):
            lissa_solve(op, np.ones(2), replace(cfg, seed=()))
        # one u0, shared by every chain, and one seed per gradient row
        with pytest.raises(ValueError, match="u0 does not match.*one \\(2,\\) start, which every chain shares"):
            lissa_solve(op, np.ones(2), replace(cfg, u0=np.ones((3, 2))))
        with pytest.raises(ValueError, match="needs a tuple of one seed per row"):
            lissa_solve(op, np.ones((2, 2)), replace(cfg, seed=1))

    def test_simulate_memory_does_not_grow_with_the_runs(self):
        # runs step in passes: 4000 runs hold about what 256 do
        problem = growth_problem()
        peaks = {}
        for runs in (256, 4000):
            tracemalloc.start()
            counterexample_simulate(problem, runs, 8, seed=1)
            peaks[runs] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[4000] <= 2 * peaks[256], peaks


class TestConvergenceCorrelation:
    def solve_with_snapshots(self):
        spec, theta, data, H, g = toy_problem(seed=5)
        grads = -loss_gradients(spec, theta, data.X[1:9], data.y[1:9])
        damp = 0.5
        eta = 1.0 / (np.linalg.eigvalsh(H)[-1] + damp)
        op = GnhOperator(spec, theta, data, batch_size=64).reseeded(7)
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
            convergence_correlation(trace, grads[[0, 0]])

    def test_needs_two_gradients(self):
        _, _, grads, trace = self.solve_with_snapshots()
        with pytest.raises(ValueError):
            convergence_correlation(trace, grads[:1])


class TestCounterExampleBuild:
    def test_equal_spectrum_growth_factor(self):
        problem = growth_problem()
        assert np.allclose(problem.second_moment_diagonal, 9.0 / 1.21)

    def test_batch_threshold_arithmetic(self):
        problem = growth_problem()
        assert problem.batch_threshold == pytest.approx((1.0 / 1.1) ** 2 * 10.0)
        assert 8 <= problem.batch_threshold < 9

    def test_below_threshold_batch_has_divergent_step_size(self):
        # |B| = 8 is under the threshold: some step size in (0, 1] pushes a
        # second-moment factor above 1
        factors = []
        for eta in np.linspace(0.05, 1.0, 20):
            problem = counterexample_build([1.0] * 10, 8, 0.1, eta, seed=0)
            factors.append(problem.second_moment_diagonal.max())
        assert max(factors) > 1.0

    def test_large_batch_removes_noise_term(self):
        problem = counterexample_build([1.0] * 10, 10**9, 0.1, 1.0 / 1.1, seed=0)
        contraction_sq = (1.0 - problem.eta * 1.1) ** 2
        assert np.allclose(problem.second_moment_diagonal, contraction_sq, atol=1e-8)

    def test_rotation_orthogonal(self):
        problem = counterexample_build(np.linspace(0.5, 3.0, 12), 2, 0.2, 0.1, seed=4)
        eye = problem.rotation @ problem.rotation.T
        assert np.abs(eye - np.eye(12)).max() <= 1e-10

    def test_mean_matrix_spectrum(self):
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        problem = counterexample_build(lam, 2, 0.2, 0.1, seed=4)
        assert np.allclose(np.linalg.eigvalsh(mean_matrix(problem)), np.sort(lam))

    def test_default_u0_targets_worst_coordinate(self):
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        problem = counterexample_build(lam, 2, 0.2, 0.1, seed=4)
        top = int(np.argmax(problem.second_moment_diagonal))
        assert np.array_equal(problem.u0, problem.rotation[:, top])
        assert np.linalg.norm(problem.u0) == pytest.approx(1.0)

    def test_sampler_moments_by_enumeration(self):
        # averaging x x^T over all sign patterns gives H exactly, and
        # averaging (x x^T)^2 gives Tr(H) H exactly: ||x||^2 is constant
        lam = np.array([2.0, 1.0, 0.5, 0.25])
        problem = counterexample_build(lam, 1, 0.3, 0.25, seed=3)
        H = mean_matrix(problem)
        first = np.zeros((4, 4))
        second = np.zeros((4, 4))
        patterns = list(itertools.product([-1.0, 1.0], repeat=4))
        for signs in patterns:
            x = rank_one_factor(problem, np.array(signs))
            outer = np.outer(x, x)
            first += outer
            second += outer @ outer
        first /= len(patterns)
        second /= len(patterns)
        assert np.allclose(first, H, atol=1e-12)
        assert np.allclose(second, problem.trace * H, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_reseeded_sampler_equals_a_new_sampler_at_its_seed(self, seed):
        problem = counterexample_build([2.0, 1.0, 0.5, 0.25, 0.1], 3, 0.1, 0.4, seed=5)
        sampler = RotatedRankOneSampler(problem).reseeded(1)
        sampler.matvec(problem.u0)  # moves the original's stream, not the copy's
        iterates = []
        for op in (sampler.reseeded(seed), RotatedRankOneSampler(problem).reseeded(seed)):
            u, g, steps = problem.u0, np.ones(problem.n), []
            for _ in range(8):
                u = u - problem.eta * (op.matvec(u) + problem.lambda_damp * u - g)
                steps.append(u.tobytes())
            iterates.append(steps)
        assert iterates[0] == iterates[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_build(np.array([1.0, -0.5, 2.0]), 1, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            counterexample_build([0.0] * 3, 1, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            counterexample_build([1.0] * 3, 0, 0.1, 0.5, seed=0)
        # the dimension is the length of one eigenvalue vector
        for shapeless in (1.0, [], np.ones((2, 2))):
            with pytest.raises(ValueError, match="non-empty vector"):
                counterexample_build(shapeless, 1, 0.1, 0.5, seed=0)


class TestCounterExampleMoments:
    def test_step_zero_is_u0_norm(self):
        problem = growth_problem()
        assert counterexample_moments(problem, 0)[0] == pytest.approx(1.0)

    def test_equal_spectrum_closed_form(self):
        u0 = SeededRng(8).normal(10)
        problem = replace(growth_problem(), u0=u0)
        factor = 9.0 / 1.21
        for t in (1, 3, 6):
            want = factor**t * float(u0 @ u0)
            assert counterexample_moments(problem, t)[t] == pytest.approx(want, rel=1e-10)

    def test_exact_by_enumeration(self):
        # brute-force expectation over every sign sequence; the coordinate
        # coupling through s matters, so the naive per-coordinate power of
        # the one-step factors is measurably wrong at t = 2
        lam = np.array([2.0, 1.0, 0.5, 0.25])
        problem = counterexample_build(lam, 1, 0.3, 0.25, seed=3)
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
        exact = counterexample_moments(problem, 2)
        assert exact[1] == pytest.approx(one, rel=1e-12)
        assert exact[2] == pytest.approx(two, rel=1e-12)
        coords_sq = (V.T @ problem.u0) ** 2
        naive = float((problem.second_moment_diagonal**2 * coords_sq).sum())
        assert abs(naive - two) > 1e-3

    @staticmethod
    def per_t_moment(problem, u0, t):
        # one closed-form value per call, the recurrence rerun from u0 each time
        r = (problem.rotation.T @ np.asarray(u0, dtype=np.float64)) ** 2
        lam = problem.eigenvalues
        contraction_sq = (1.0 - problem.eta * (lam + problem.lambda_damp)) ** 2
        scale = problem.eta**2 / problem.batch_size
        for _ in range(t):
            s = float(lam @ r)
            r = contraction_sq * r + scale * (lam * s - lam**2 * r)
        return float(r.sum())

    @pytest.mark.parametrize(
        "build, explicit_u0",
        [
            (growth_problem, False),
            (growth_problem, True),
            (lambda: counterexample_build([3.0, 2.0, 1.5, 1.0, 0.5, 0.2], 4, 0.5, 0.2, seed=7), False),
            (lambda: counterexample_build([3.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.05], 1, 0.3, 0.3, seed=12), True),
        ],
    )
    def test_one_pass_equals_per_step_reruns(self, build, explicit_u0):
        problem = build()
        if explicit_u0:
            problem = replace(problem, u0=SeededRng(8).normal(problem.n))
        got = counterexample_moments(problem, 40)
        want = np.array([self.per_t_moment(problem, problem.u0, t) for t in range(41)])
        assert got.shape == (41,)
        assert np.array_equal(got, want)

    def test_moments_validation(self):
        problem = growth_problem()
        assert counterexample_moments(problem, 0).shape == (1,)
        with pytest.raises(ValueError):
            counterexample_moments(problem, -1)

    def test_monte_carlo_matches_in_growth_regime(self):
        problem = growth_problem()
        mc = counterexample_simulate(problem, 2000, 8, seed=36)
        exact = counterexample_moments(problem, 8)
        rel = np.abs(mc.second_moment / exact - 1.0)
        assert rel[5] <= 0.10
        assert rel[1:].max() <= 0.15

    def test_monte_carlo_matches_on_unequal_spectrum(self):
        lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
        problem = counterexample_build(lam, 4, 0.5, 0.2, seed=7)
        mc = counterexample_simulate(problem, 4000, 6, seed=9)
        exact = counterexample_moments(problem, 6)
        for t in range(1, 7):
            assert abs(mc.second_moment[t] - exact[t]) <= 3 * mc.second_moment_se[t]

    def test_mean_iterate_contracts_despite_growth(self):
        problem = growth_problem()
        mc = counterexample_simulate(problem, 500, 6, seed=36)
        rate = 1.0 - problem.lambda_damp * problem.eta
        for t in range(1, 7):
            bound = rate**t * np.linalg.norm(problem.u0) + 3 * mc.mean_se[t]
            assert mc.mean_norm[t] <= bound

    @staticmethod
    def per_step_simulate(problem, n_runs, t, seed):
        # the moments summed one step at a time, through a per-step helper
        sampler = RotatedRankOneSampler(problem).reseeded(seed)
        g = np.zeros(problem.n)
        sum_sq = np.zeros(t + 1)
        sum_sq2 = np.zeros(t + 1)
        sum_u = np.zeros((t + 1, problem.n))
        sum_uu = np.zeros((t + 1, problem.n))

        def record(step, u):
            nsq = float(u @ u)
            sum_sq[step] += nsq
            sum_sq2[step] += nsq * nsq
            sum_u[step] += u
            sum_uu[step] += u * u

        for run in range(n_runs):
            cfg = LissaConfig(eta=problem.eta, lambda_damp=problem.lambda_damp, t_steps=t,
                              seed=derive_seed(seed, 17, run), snapshot_every=1, u0=problem.u0)
            _, trace = lissa_solve(sampler, g, cfg)
            record(0, problem.u0)
            for step, u in trace.snapshots:
                record(step, u)
        second = sum_sq / n_runs
        var_sq = np.maximum(sum_sq2 / n_runs - second**2, 0.0)
        mean_u = sum_u / n_runs
        var_u = np.maximum(sum_uu / n_runs - mean_u**2, 0.0)
        denom = n_runs - 1
        return CounterExampleMonteCarlo(
            second_moment=second,
            second_moment_se=np.sqrt(var_sq * n_runs / denom / n_runs),
            mean_norm=np.array([np.linalg.norm(mean_u[step]) for step in range(t + 1)]),
            mean_se=np.sqrt(var_u.sum(axis=1) * n_runs / denom / n_runs),
        )

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_run_sums_equal_per_step_sums(self, batch_size):
        lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.05])
        problem = counterexample_build(lam, batch_size, 0.3, 0.3, seed=12)
        got = counterexample_simulate(problem, 60, 7, seed=13)
        want = self.per_step_simulate(problem, 60, 7, seed=13)
        for name in ("second_moment", "second_moment_se", "mean_norm", "mean_se"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_run_sums_equal_per_step_sums_across_passes(self, monkeypatch):
        # passes of 8 runs (the last one short), set by the float budget
        lam = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.05])
        problem = counterexample_build(lam, 2, 0.3, 0.3, seed=12)
        monkeypatch.setattr(lissa, "_PASS_FLOATS", 8 * 8 * 7 + 5)
        got = counterexample_simulate(problem, 60, 7, seed=13)
        want = self.per_step_simulate(problem, 60, 7, seed=13)
        for name in ("second_moment", "second_moment_se", "mean_norm", "mean_se"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_simulate_validation(self):
        problem = growth_problem()
        with pytest.raises(ValueError):
            counterexample_simulate(problem, 1, 3, seed=0)
        with pytest.raises(ValueError):
            counterexample_simulate(problem, 10, 0, seed=0)


def _shape_cases():
    """Each call that takes one parameter-space vector, given that vector
    through ``bad``, which reshapes it to two dimensions."""
    spec, theta, data, H, g = toy_problem()
    op = DenseOperator(H)
    cfg = LissaConfig(eta=0.1, lambda_damp=0.3, t_steps=3, snapshot_every=1)
    grads = -loss_gradients(spec, theta, data.X[1:9], data.y[1:9])
    return {
        "lissa_solve-g": lambda bad: lissa_solve(op, bad(g), cfg),
        "lissa_solve-u0": lambda bad: lissa_solve(op, g, replace(cfg, u0=bad(g))),
        "convergence_correlation": lambda bad: convergence_correlation(
            lissa_solve(op, g, cfg)[1], grads, reference=bad(g)
        ),
        "eigen_reweight": lambda bad: eigen_reweight(bad(g), sym_eig(H), 0.3),
        "GnhOperator": lambda bad: GnhOperator(spec, bad(theta), data),
    }


@pytest.mark.parametrize("bad", [lambda v: v[:, None], lambda v: v[None, :]], ids=["column", "row"])
@pytest.mark.parametrize("call", list(_shape_cases()))
def test_vector_shapes_are_checked_not_raveled(call, bad):
    # an (n, 1) or (1, n) array was once flattened without a word; a (1, n)
    # gradient is a block of one lockstep chain, which needs a tuple of one
    # seed, and stays one
    if call == "lissa_solve-g" and bad(np.zeros(2)).shape == (1, 2):
        with pytest.raises(ValueError, match="one seed per row"):
            _shape_cases()[call](bad)
        spec, theta, data, H, g = toy_problem()
        cfg = LissaConfig(eta=0.1, lambda_damp=0.3, t_steps=3, snapshot_every=1)
        u, trace = lissa_solve(DenseOperator(H), bad(g), replace(cfg, seed=(0,)))
        single, single_trace = lissa_solve(DenseOperator(H), g, cfg)
        assert u.tobytes() == single.tobytes() and u.shape == (1, single.size)
        assert trace.norms.tobytes() == single_trace.norms.tobytes() and trace.norms.ndim == 2
        return
    with pytest.raises(ValueError, match="does not match"):
        _shape_cases()[call](bad)
