import math
import tracemalloc

import numpy as np
import pytest

from lissakit import gnh, models
from _reference import softmax_hessian
from lissakit.core import MeanSe, SeededRng, sym_eig
from lissakit.gnh import (
    GnhOperator,
    _gnh_hvp,
    gnh_matrix_exact,
    gnh_trace_exact,
    sample_batch,
)
from lissakit.lissa import LissaConfig, lissa_solve
from lissakit.models import (
    Dataset,
    ModelSpec,
    _jvp_batch,
    _linearize,
    _take_rows,
    init_params,
    make_blobs,
)

LINEAR = ModelSpec(kind="softmax-linear", layer_sizes=(4, 3))
MLP = ModelSpec(kind="mlp", layer_sizes=(5, 6, 3), activation="tanh")
# two hidden layers: the sweeps read each layer's input from a different cache
DEEP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="tanh")
DEEP_RELU = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="relu")
# three hidden layers: four weight layers, ten layer pairs l <= m, six of
# them off the block diagonal
DEEPER_RELU = ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 7, 3), activation="relu")


def toy_fixture(spec, n=40, seed=1):
    theta = init_params(spec, SeededRng(seed), scale=0.7)
    data = make_blobs(SeededRng(seed + 1), n, spec.input_dim, spec.n_classes)
    return theta, data


def numerical_logsumexp_hessian(h, eps=1e-4):
    def f(v):
        return math.log(np.exp(v - v.max()).sum()) + v.max()

    k = h.size
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            hpp = h.copy(); hpp[i] += eps; hpp[j] += eps
            hpm = h.copy(); hpm[i] += eps; hpm[j] -= eps
            hmp = h.copy(); hmp[i] -= eps; hmp[j] += eps
            hmm = h.copy(); hmm[i] -= eps; hmm[j] -= eps
            H[i, j] = (f(hpp) - f(hpm) - f(hmp) + f(hmm)) / (4 * eps * eps)
    return H


class TestSoftmaxHessian:
    def test_two_class_uniform(self):
        S = softmax_hessian(np.zeros(2))
        assert np.allclose(S, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_rows_sum_to_zero(self):
        for seed in range(5):
            h = SeededRng(seed).normal(4) * 3
            S = softmax_hessian(h)
            assert np.allclose(S @ np.ones(4), 0.0, atol=1e-14)
            assert np.allclose(S, S.T, atol=1e-15)

    def test_matches_numerical_hessian(self):
        # the loss Hessian in logits is the Hessian of log-sum-exp
        h = np.array([0.3, -1.1, 0.7])
        S = softmax_hessian(h)
        assert np.allclose(S, numerical_logsumexp_hessian(h), atol=1e-6)

    def test_rejects_single_logit(self):
        with pytest.raises(ValueError):
            softmax_hessian(np.array([1.0]))


class TestDenseGnh:
    def test_single_example_kronecker_structure(self):
        # At theta = 0 a softmax-linear GNH for one example is S kron
        # [[x x^T, x], [x^T, 1]] in (weights, bias) block order.
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(3, 2))
        x = np.array([0.5, -1.0, 2.0])
        data = Dataset(X=x[None, :], y=np.array([1]))
        H = gnh_matrix_exact(spec, np.zeros(spec.n_params), data)
        S = softmax_hessian(np.zeros(2))
        ww = np.kron(S, np.outer(x, x))
        wb = np.kron(S, x[:, None])
        bb = S
        expected = np.block([[ww, wb], [wb.T, bb]])
        assert np.allclose(H, expected, atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEP_RELU])
    def test_psd(self, spec):
        theta, data = toy_fixture(spec)
        H = gnh_matrix_exact(spec, theta, data)
        w = sym_eig(H).values
        assert w[-1] >= -1e-10 * max(w[0], 1.0)

    def test_duplicated_examples_leave_mean_unchanged(self):
        theta, data = toy_fixture(LINEAR, n=7)
        doubled = Dataset(X=np.vstack([data.X, data.X]), y=np.concatenate([data.y, data.y]))
        H1 = gnh_matrix_exact(LINEAR, theta, data)
        H2 = gnh_matrix_exact(LINEAR, theta, doubled)
        assert np.allclose(H1, H2, atol=1e-13)

    def test_chunking_invariant(self, monkeypatch):
        theta, data = toy_fixture(MLP, n=23)
        built = []
        for rows in (4, 64):
            monkeypatch.setattr(gnh, "_PASS_ROWS", rows)
            built.append(gnh_matrix_exact(MLP, theta, data))
        assert np.allclose(*built, atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEP_RELU, DEEPER_RELU])
    def test_matches_per_example_reference(self, spec, monkeypatch):
        # sum_b J_b^T S(h_b) J_b, one example at a time, with each J_b read
        # column by column from forward-mode JVPs along the unit vectors; 37
        # rows in passes of 7 leave a short last pass
        theta, data = toy_fixture(spec, n=37, seed=4)
        lin = _linearize(spec, theta, data.X)
        units = np.eye(spec.n_params)
        jac = np.stack([_jvp_batch(spec, lin, e) for e in units], axis=-1)
        logits, _ = models._forward(spec, theta, data.X)
        reference = sum(j.T @ softmax_hessian(h) @ j for j, h in zip(jac, logits)) / len(data)
        monkeypatch.setattr(gnh, "_PASS_ROWS", 7)
        H = gnh_matrix_exact(spec, theta, data)
        assert np.max(np.abs(H - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert np.array_equal(H, H.T)

    def test_saturated_layer_adds_exactly_zero(self):
        # features of about 1e300 saturate every first-layer tanh: that
        # layer's factor is exactly 0 while ||a||^2 overflows, and 0 * inf
        # once made H nan; the per-example JVP reference never squares a
        spec = ModelSpec(kind="mlp", layer_sizes=(4, 5, 3), activation="tanh")
        theta = init_params(spec, SeededRng(2), scale=0.5)
        data = make_blobs(SeededRng(3), 30, 4, 3, separation=1e300)
        lin = _linearize(spec, theta, data.X)
        assert not lin.derivs[0].any()
        jac = np.stack([_jvp_batch(spec, lin, e) for e in np.eye(spec.n_params)], axis=-1)
        logits, _ = models._forward(spec, theta, data.X)
        reference = sum(j.T @ softmax_hessian(h) @ j for j, h in zip(jac, logits)) / len(data)
        with np.errstate(over="ignore"):
            H = gnh_matrix_exact(spec, theta, data)
            trace = gnh_trace_exact(spec, theta, data)
        assert np.isfinite(H).all() and np.max(np.abs(reference)) > 0
        assert np.max(np.abs(H - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert abs(trace - np.trace(reference)) <= 1e-13 * np.trace(reference)

    def test_underflowing_factor_times_overflowing_input_is_finite(self):
        # features of about 1e200 at init_scale 1e-200 keep the first tanh
        # layer unsaturated: that layer's R^T R underflows and its
        # [a, 1][a, 1]^T overflows, which once made H and Tr(H) nan; scaled
        # by 2^e and 2^-e per row, both stay in range, and H is the
        # full-batch matvec of each unit vector
        spec = ModelSpec(kind="mlp", layer_sizes=(4, 5, 3), activation="tanh")
        theta = init_params(spec, SeededRng(0), scale=1e-200)
        data = make_blobs(SeededRng(1), 64, 4, 3, separation=1e200)
        op = GnhOperator(spec, theta, data)
        columns = np.column_stack([op.matvec(e) for e in np.eye(spec.n_params)])
        H = gnh_matrix_exact(spec, theta, data)
        assert np.isfinite(H).all() and np.max(np.abs(columns)) > 0
        assert np.max(np.abs(H - columns)) <= 1e-12 * np.max(np.abs(columns))
        trace = np.trace(columns)
        assert abs(gnh_trace_exact(spec, theta, data) - trace) <= 1e-12 * trace

    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_RELU])
    def test_last_layer_bias_shift_is_a_null_vector(self, spec):
        # +c on every class bias adds c to every logit, which no softmax sees
        # (S 1 = 0): every GNH here is singular, whatever the data
        name, offset, length = spec.segments[-1]
        shift = np.zeros(spec.n_params)
        shift[offset + length - spec.n_classes : offset + length] = 1.0
        for seed in range(3):
            theta, data = toy_fixture(spec, n=25, seed=seed)
            H = gnh_matrix_exact(spec, theta, data)
            assert np.linalg.norm(H @ shift) <= 1e-13 * np.linalg.norm(H)

    def test_wide_layer_pair_stays_within_three_matrices(self):
        # softmax-linear 999 -> 2 (n = 2000) has a [x, 1] outer product of
        # 10^6 floats per row, so a pass of 128 rows would hold 32 n x n
        # matrices' worth of it; the passes shrink until H, its one block and
        # a pass's arrays fit in 3 n^2 floats
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(999, 2))
        theta, data = toy_fixture(spec, n=9, seed=7)
        tracemalloc.start()
        try:
            H = gnh_matrix_exact(spec, theta, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * H.nbytes
        assert np.array_equal(H, H.T)

    def test_tiny_model_passes_take_full_rows(self, monkeypatch):
        # mlp 8-6-4 (n = 82) would get n^2 / 2 // 81 = 41 rows a pass from
        # the n^2 / 2 budget alone; the floor gives it passes of 128
        spec = ModelSpec(kind="mlp", layer_sizes=(8, 6, 4), activation="tanh")
        theta, data = toy_fixture(spec, n=200, seed=8)
        passes = []
        linearize = gnh._linearize
        monkeypatch.setattr(gnh, "_linearize", lambda *args: passes.append(len(args[2])) or linearize(*args))
        gnh_matrix_exact(spec, theta, data)
        assert passes == [128, 72]

    def test_refuses_large_models(self):
        big = ModelSpec(kind="softmax-linear", layer_sizes=(1000, 3))
        data = Dataset(X=np.zeros((1, 1000)), y=np.array([0]))
        with pytest.raises(ValueError):
            gnh_matrix_exact(big, np.zeros(big.n_params), data)


class TestTraceExact:
    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEP_RELU, DEEPER_RELU])
    def test_matches_dense_trace(self, spec, monkeypatch):
        # 300 rows in passes of 128 leave a short last pass of 44, and a pass
        # budget of 7 rows' factors leaves one of 6
        theta, data = toy_fixture(spec, n=300, seed=5)
        reference = np.trace(gnh_matrix_exact(spec, theta, data))
        assert abs(gnh_trace_exact(spec, theta, data) - reference) <= 1e-13 * reference
        per_row = spec.n_classes * max(spec.layer_sizes[1:])
        monkeypatch.setattr(gnh, "_TRACE_PASS_FLOATS", 7 * per_row)
        assert abs(gnh_trace_exact(spec, theta, data) - reference) <= 1e-13 * reference

    def test_model_over_the_dense_limit(self):
        # softmax-linear 1000 -> 3 (n = 3003) has no dense GNH here; its
        # per-example trace is Tr(S_b) (||x_b||^2 + 1) with Tr(S_b) = 1 - ||p_b||^2
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(1000, 3))
        theta, data = toy_fixture(spec, n=9, seed=8)
        logits, _ = models._forward(spec, theta, data.X)
        p = models._softmax(logits)
        expected = np.mean((1.0 - np.sum(p * p, axis=1)) * (np.sum(data.X**2, axis=1) + 1.0))
        assert gnh_trace_exact(spec, theta, data) == pytest.approx(expected, rel=1e-13)

    def test_empty_dataset_rejected(self):
        data = Dataset(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            gnh_trace_exact(LINEAR, init_params(LINEAR, SeededRng(0)), data)


class TestHvp:
    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEP_RELU])
    def test_full_dataset_hvp_matches_dense(self, spec):
        theta, data = toy_fixture(spec)
        H = gnh_matrix_exact(spec, theta, data)
        op = GnhOperator(spec, theta, data)
        rng = SeededRng(99)
        for _ in range(5):
            u = rng.normal(spec.n_params)
            got = op.matvec(u)
            want = H @ u
            assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_zero_vector(self):
        theta, data = toy_fixture(LINEAR)
        op = GnhOperator(LINEAR, theta, data)
        assert np.allclose(op.matvec(np.zeros(LINEAR.n_params)), 0.0)

    def test_fd_mode_close_to_exact_on_same_batch(self):
        theta, data = toy_fixture(MLP, n=16, seed=3)
        exact = GnhOperator(MLP, theta, data)
        fd = GnhOperator(MLP, theta, data, fd_delta=0.01)
        rng = SeededRng(17)
        for _ in range(5):
            u = rng.normal(MLP.n_params)
            u /= np.linalg.norm(u)
            a = exact.matvec(u)
            b = fd.matvec(u)
            assert np.linalg.norm(a - b) <= 1e-3 * max(np.linalg.norm(a), 1e-12)

    def test_fd_quadratic_delta_decay(self):
        theta, data = toy_fixture(MLP, n=16, seed=4)
        exact = GnhOperator(MLP, theta, data)
        u = SeededRng(44).normal(MLP.n_params)
        u /= np.linalg.norm(u)
        ref = exact.matvec(u)
        errs = {}
        for delta in (0.02, 0.01):
            fd = GnhOperator(MLP, theta, data, fd_delta=delta)
            errs[delta] = np.linalg.norm(fd.matvec(u) - ref)
        assert errs[0.01] <= errs[0.02] * 0.25 * 1.2

    def test_symmetry_on_fixed_batch(self):
        theta, data = toy_fixture(MLP, n=12, seed=5)
        op = GnhOperator(MLP, theta, data)
        rng = SeededRng(50)
        u, v = rng.normal(MLP.n_params), rng.normal(MLP.n_params)
        hu, hv = op.matvec(u), op.matvec(v)
        lhs, rhs = float(np.dot(v, hu)), float(np.dot(u, hv))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_batch_hvp_psd(self):
        theta, data = toy_fixture(MLP, n=30, seed=6)
        op = GnhOperator(MLP, theta, data, batch_size=4).reseeded(60)
        rng = SeededRng(61)
        for _ in range(10):
            u = rng.normal(MLP.n_params)
            assert float(np.dot(u, op.matvec(u))) >= -1e-10 * float(np.dot(u, u))

    def test_stochastic_hvp_unbiased(self):
        # projection of the averaged batch HVP agrees with the exact one
        theta, data = toy_fixture(LINEAR, n=25, seed=7)
        H = gnh_matrix_exact(LINEAR, theta, data)
        rng = SeededRng(70)
        u = rng.normal(LINEAR.n_params)
        proj = rng.normal(LINEAR.n_params)
        exact = float(proj @ (H @ u))
        op = GnhOperator(LINEAR, theta, data, batch_size=3).reseeded(71)
        samples = np.array([float(proj @ op.matvec(u)) for _ in range(2000)])
        ms = MeanSe.from_samples(samples)
        assert abs(ms.mean - exact) <= 3 * ms.se

    def test_reseeded_reproducible(self):
        theta, data = toy_fixture(LINEAR, n=20, seed=8)
        op = GnhOperator(LINEAR, theta, data, batch_size=5).reseeded(0)
        u = SeededRng(80).normal(LINEAR.n_params)
        a = [op.reseeded(123).matvec(u) for _ in range(2)]
        assert np.array_equal(a[0], a[1])

    @pytest.mark.parametrize("batch_size", [20, 21, 10**9])
    def test_covering_batch_is_the_full_batch_operator(self, monkeypatch, batch_size):
        # a batch of at least the dataset draws nothing and is not stochastic
        def refuse(*args, **kwargs):
            raise AssertionError("batch drawn although batch_size covers the dataset")

        monkeypatch.setattr(gnh, "sample_batch", refuse)
        theta, data = toy_fixture(MLP, n=20, seed=12)
        op = GnhOperator(MLP, theta, data, batch_size=batch_size).reseeded(0)
        full = GnhOperator(MLP, theta, data)
        assert op.batch_size is None and op.reseeded(5) is op
        u = SeededRng(120).normal(MLP.n_params)
        for _ in range(2):
            assert np.array_equal(op.matvec(u), full.matvec(u))

    def test_fresh_batch_per_call(self):
        theta, data = toy_fixture(LINEAR, n=20, seed=9)
        op = GnhOperator(LINEAR, theta, data, batch_size=5).reseeded(1)
        u = SeededRng(90).normal(LINEAR.n_params)
        assert not np.array_equal(op.matvec(u), op.matvec(u))

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_RELU])
    def test_full_batch_matvec_matches_fresh_linearization(self, spec, fd_delta):
        # the state built at construction is reused, never changed, by a matvec
        theta, data = toy_fixture(spec, n=30, seed=10)
        op = GnhOperator(spec, theta, data, fd_delta=fd_delta)
        rng = SeededRng(100)
        for _ in range(3):
            u = rng.normal(spec.n_params)
            fresh = _gnh_hvp(spec, _linearize(spec, theta, data.X), u, fd_delta)
            assert np.array_equal(op.matvec(u), fresh)

    def test_full_batch_operator_runs_one_forward(self, monkeypatch):
        calls = []
        forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda *args: calls.append(1) or forward(*args))
        theta, data = toy_fixture(MLP, n=30, seed=11)
        op = GnhOperator(MLP, theta, data)
        rng = SeededRng(110)
        for _ in range(4):
            op.matvec(rng.normal(MLP.n_params))
        assert op.reseeded(7) is op
        lissa_solve(op, rng.normal(MLP.n_params), LissaConfig(eta=0.5, lambda_damp=0.1, t_steps=5))
        assert len(calls) == 1

    def test_minibatch_operator_runs_one_forward(self, monkeypatch):
        # construction linearizes the dataset; each matvec gathers its rows,
        # here through the row path
        calls, drawn = [], []
        forward, row_hvp = models._forward, gnh._row_hvp
        monkeypatch.setattr(models, "_forward", lambda *args: calls.append(1) or forward(*args))
        monkeypatch.setattr(gnh, "_row_hvp", lambda F, rows, v: drawn.append(rows) or row_hvp(F, rows, v))
        theta, data = toy_fixture(MLP, n=30, seed=12)
        op = GnhOperator(MLP, theta, data, batch_size=6).reseeded(120)
        rng = SeededRng(121)
        for _ in range(4):
            op.matvec(rng.normal(MLP.n_params))
        assert len(drawn) == 4
        assert all(not np.array_equal(a, b) for a, b in zip(drawn, drawn[1:]))
        lissa_solve(op, rng.normal(MLP.n_params), LissaConfig(eta=0.5, lambda_damp=0.1, t_steps=5))
        assert len(drawn) == 9
        assert len(calls) == 1

    def test_matvec_unpacks_theta_only_in_the_forward_pass(self, monkeypatch):
        # the record holds theta's layer views, and a mini-batch matvec
        # gathers its rows from it: either kind of sweep unpacks only v, and
        # the row path nothing; a batch of 150 rows puts B K n = 70,800 over
        # the row path's rule
        calls = []
        unpack = models._unpack
        monkeypatch.setattr(models, "_unpack", lambda *args: calls.append(1) or unpack(*args))
        theta, data = toy_fixture(DEEP_TANH, n=200, seed=13)
        u = SeededRng(130).normal(DEEP_TANH.n_params)
        full = GnhOperator(DEEP_TANH, theta, data)
        mini = GnhOperator(DEEP_TANH, theta, data, batch_size=150).reseeded(131)
        by_rows = mini.batched(6).reseeded(132)
        for op, expected in ((full, 1), (mini, 1), (by_rows, 0)):
            calls.clear()
            op.matvec(u)
            assert len(calls) == expected

    @pytest.mark.parametrize("batch_size", [1, 6])
    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEPER_RELU])
    def test_minibatch_matvec_matches_fresh_linearization_of_its_rows(self, spec, fd_delta, batch_size):
        # the gathered rows agree with a linearization of the drawn rows up
        # to the last bits; a twin stream replays the operator's draws
        theta, data = toy_fixture(spec, n=8, seed=14)
        op = GnhOperator(spec, theta, data, batch_size=batch_size, fd_delta=fd_delta).reseeded(140)
        twin = SeededRng(140)
        rng = SeededRng(141)
        duplicates = False
        for _ in range(6):
            u = rng.normal(spec.n_params)
            rows = sample_batch(data, batch_size, twin)
            duplicates |= np.unique(rows).size < batch_size
            want = _gnh_hvp(spec, _linearize(spec, theta, data.X[rows]), u, fd_delta)
            got = op.matvec(u)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert duplicates == (batch_size > 1)

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    def test_reseeded_equals_a_new_operator_at_its_seed(self, fd_delta):
        theta, data = toy_fixture(DEEP_TANH, n=30, seed=15)
        op = GnhOperator(DEEP_TANH, theta, data, batch_size=5, fd_delta=fd_delta).reseeded(0)
        op.matvec(SeededRng(150).normal(DEEP_TANH.n_params))  # moves op's stream, not the copy's
        twin = op.reseeded(151)
        fresh = GnhOperator(DEEP_TANH, theta, data, batch_size=5, fd_delta=fd_delta).reseeded(151)
        rng = SeededRng(152)
        for _ in range(5):
            u = rng.normal(DEEP_TANH.n_params)
            assert twin.matvec(u).tobytes() == fresh.matvec(u).tobytes()

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    def test_batched_equals_a_new_operator_with_its_batches(self, fd_delta):
        theta, data = toy_fixture(DEEP_TANH, n=30, seed=16)
        full = GnhOperator(DEEP_TANH, theta, data, fd_delta=fd_delta)
        twin = full.batched(5).reseeded(160)
        fresh = GnhOperator(DEEP_TANH, theta, data, batch_size=5, fd_delta=fd_delta).reseeded(160)
        assert twin._lin is full._lin and full.batch_size is None
        rng = SeededRng(161)
        for _ in range(5):
            u = rng.normal(DEEP_TANH.n_params)
            assert twin.matvec(u).tobytes() == fresh.matvec(u).tobytes()
        # the constructor's batch rules: a covering batch is the full batch
        assert full.batched(30).reseeded(162).batch_size is None
        with pytest.raises(ValueError, match="batch size"):
            full.batched(0).reseeded(163)

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_empty_dataset_rejected(self, batch_size):
        data = Dataset(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64))
        theta = init_params(LINEAR, SeededRng(0))
        with pytest.raises(ValueError, match="dataset is empty"):
            GnhOperator(LINEAR, theta, data, batch_size=batch_size).reseeded(1)

    def test_validation_errors(self):
        theta, data = toy_fixture(LINEAR)
        with pytest.raises(ValueError, match=r"call reseeded\(seed\) first"):
            GnhOperator(LINEAR, theta, data, batch_size=4).matvec(np.ones(LINEAR.n_params))
        with pytest.raises(ValueError):
            GnhOperator(LINEAR, theta, data, batch_size=0).reseeded(0)
        with pytest.raises(ValueError):
            GnhOperator(LINEAR, theta, data, fd_delta=0.0)
        op = GnhOperator(LINEAR, theta, data)
        with pytest.raises(ValueError):
            op.matvec(np.ones(3))


class TestRowPath:
    """A mini-batch draw with fd_delta unset, B K n <= 2^14 and N K n <= 2^20
    is F_b^T (F_b v) / B over the centered Jacobian rows that the operator and
    its copies keep; any other draw sweeps the gathered rows."""

    @pytest.mark.parametrize("batch_size", [1, 6])
    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEPER_RELU])
    def test_equals_the_dense_gnh_of_the_drawn_rows(self, spec, batch_size):
        # the drawn rows, duplicates kept, are a dataset of their own whose
        # dense GNH times u is the draw's HVP; a twin stream replays the draws
        theta, data = toy_fixture(spec, n=8, seed=17)
        op = GnhOperator(spec, theta, data, batch_size=batch_size).reseeded(170)
        twin, rng = SeededRng(170), SeededRng(171)
        duplicates = False
        for _ in range(6):
            u = rng.normal(spec.n_params)
            rows = sample_batch(data, batch_size, twin)
            duplicates |= np.unique(rows).size < batch_size
            want = gnh_matrix_exact(spec, theta, Dataset(X=data.X[rows], y=data.y[rows])) @ u
            got = op.matvec(u)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert duplicates == (batch_size > 1)
        assert "F" in vars(op._rows)

    @pytest.mark.parametrize(
        "batch_size, fd_delta, by_rows",
        # softmax-linear 3 -> 2 keeps K n = 16 floats a row: 1024 rows are
        # 2^14 floats, 1025 rows one row more
        [(1024, None, True), (1025, None, False), (6, 0.01, False), (None, None, False)],
    )
    def test_the_rule_selects_the_path(self, monkeypatch, batch_size, fd_delta, by_rows):
        taken, by_row_path = [], []
        take_rows, row_hvp = gnh._take_rows, gnh._row_hvp
        monkeypatch.setattr(gnh, "_take_rows", lambda lin, rows: taken.append(rows) or take_rows(lin, rows))
        monkeypatch.setattr(gnh, "_row_hvp", lambda F, rows, v: by_row_path.append(rows) or row_hvp(F, rows, v))
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(3, 2))
        theta, data = toy_fixture(spec, n=5000, seed=18)
        op = GnhOperator(spec, theta, data, batch_size=batch_size, fd_delta=fd_delta).reseeded(180)
        twin, rng = SeededRng(180), SeededRng(181)
        for _ in range(3):
            u = rng.normal(spec.n_params)
            got = op.matvec(u)
            if batch_size is not None and not by_rows:
                lin = take_rows(op._lin, sample_batch(data, batch_size, twin))
                assert got.tobytes() == _gnh_hvp(spec, lin, u, fd_delta).tobytes()
        sweeps = 0 if batch_size is None or by_rows else 3
        assert (len(taken), len(by_row_path)) == (sweeps, 3 if by_rows else 0)
        assert ("F" in vars(op._rows)) == by_rows

    def test_copies_share_one_rows_array(self, monkeypatch):
        # condition-c1's batched copies of a full-batch operator and a
        # solver's reseeded copies build the rows once, and each copy draws
        # bit for bit as a fresh operator at its batch size and seed
        builds = []
        jacobian_rows = gnh._jacobian_rows
        monkeypatch.setattr(gnh, "_jacobian_rows", lambda *args: builds.append(1) or jacobian_rows(*args))
        theta, data = toy_fixture(DEEP_TANH, n=30, seed=19)
        full = GnhOperator(DEEP_TANH, theta, data)
        op = full.batched(5).reseeded(190)
        copies = {(5, 190): op, (5, 191): op.reseeded(191), (3, 192): full.batched(3).reseeded(192),
                  (5, 194): op.reseeded(193).reseeded(194)}
        rng = SeededRng(195)
        directions = [rng.normal(DEEP_TANH.n_params) for _ in range(4)]
        results = {key: [copy.matvec(u) for u in directions] for key, copy in copies.items()}
        assert len(builds) == 1
        assert all(copy._rows.F is full._rows.F for copy in copies.values())
        for (size, seed), got in results.items():
            fresh = GnhOperator(DEEP_TANH, theta, data, batch_size=size).reseeded(seed)
            for u, row in zip(directions, got):
                assert row.tobytes() == fresh.matvec(u).tobytes()

    def test_model_over_the_cap_builds_no_rows(self):
        # softmax-linear 3 -> 2 keeps K n = 16 floats a row: 65,536 rows
        # fill the cap of 2^20 floats and one more passes it
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(3, 2))
        u = SeededRng(200).normal(spec.n_params)
        for n, by_rows in ((65_536, True), (65_537, False)):
            theta, data = toy_fixture(spec, n=n, seed=20)
            op = GnhOperator(spec, theta, data, batch_size=16).reseeded(201)
            got = op.matvec(u)
            assert ("F" in vars(op._rows)) == by_rows
            if not by_rows:
                lin = _take_rows(op._lin, sample_batch(data, 16, SeededRng(201)))
                assert got.tobytes() == _gnh_hvp(spec, lin, u, None).tobytes()

    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEPER_RELU])
    def test_building_the_rows_at_the_cap_peaks_near_their_size(self, spec):
        # as many rows as fit the cap of 2^20 floats; on top of the record
        # built before, the first draw holds the rows and, while it builds
        # them, the centered factors and their deltas: a peak of 1.11 to
        # 1.25 times the rows' and the record's bytes on these four models
        row_floats = spec.n_classes * spec.n_params
        theta, data = toy_fixture(spec, n=(1 << 20) // row_floats, seed=21)
        op = GnhOperator(spec, theta, data, batch_size=16).reseeded(210)
        lin = op._lin
        record = sum(a.nbytes for a in (*lin.inputs, *lin.derivs, lin.p, *sum(lin.work, ())))
        u = SeededRng(211).normal(spec.n_params)
        tracemalloc.start()
        try:
            op.matvec(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = op._rows.F.nbytes
        assert rows == len(data) * row_floats * 8 > (1 << 20) * 8 - row_floats * 8
        assert peak <= 1.5 * (rows + record), (peak, rows, record)


class TestSampleBatch:
    def test_with_replacement_and_bounds(self):
        data = make_blobs(SeededRng(10), 10, 3, 2)
        rows = sample_batch(data, 500, SeededRng(11))
        assert rows.shape == (500,)
        assert rows.min() >= 0 and rows.max() <= 9
        # with replacement: 500 draws from 10 items must repeat
        assert np.unique(rows).size <= 10

    def test_frequencies_uniform(self):
        data = make_blobs(SeededRng(12), 10, 3, 2)
        rows = sample_batch(data, 10000, SeededRng(13))
        counts = np.bincount(rows, minlength=10)
        sigma = math.sqrt(10000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_singleton_dataset(self):
        data = Dataset(X=np.ones((1, 2)), y=np.array([0]))
        rows = sample_batch(data, 7, SeededRng(14))
        assert np.all(rows == 0)

    def test_deterministic(self):
        data = make_blobs(SeededRng(15), 8, 2, 2)
        a = sample_batch(data, 6, SeededRng(16))
        b = sample_batch(data, 6, SeededRng(16))
        assert np.array_equal(a, b)

    def test_rejects_empty_batch(self):
        data = make_blobs(SeededRng(17), 5, 2, 2)
        with pytest.raises(ValueError):
            sample_batch(data, 0, SeededRng(18))
