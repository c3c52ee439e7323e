import math

import numpy as np
import pytest

from lissakit import models
from lissakit.core import MeanSe, SeededRng, sym_eig
from lissakit.gnh import (
    Batch,
    GnhOperator,
    _gnh_hvp,
    gnh_matrix_exact,
    sample_batch,
    softmax_hessian,
)
from lissakit.lissa import LissaConfig, lissa_solve
from lissakit.models import Dataset, ModelSpec, ParamVector, _linearize, init_params, make_blobs

LINEAR = ModelSpec(kind="softmax-linear", layer_sizes=(4, 3))
MLP = ModelSpec(kind="mlp", layer_sizes=(5, 6, 3), activation="tanh")
# two hidden layers: the sweeps read each layer's input from a different cache
DEEP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="tanh")
DEEP_RELU = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="relu")


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
        H = gnh_matrix_exact(spec, ParamVector(np.zeros(spec.n_params), spec.segments), data)
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
        w, _ = sym_eig(H)
        assert w[-1] >= -1e-10 * max(w[0], 1.0)

    def test_duplicated_examples_leave_mean_unchanged(self):
        theta, data = toy_fixture(LINEAR, n=7)
        doubled = Dataset(X=np.vstack([data.X, data.X]), y=np.concatenate([data.y, data.y]))
        H1 = gnh_matrix_exact(LINEAR, theta, data)
        H2 = gnh_matrix_exact(LINEAR, theta, doubled)
        assert np.allclose(H1, H2, atol=1e-13)

    def test_chunking_invariant(self):
        theta, data = toy_fixture(MLP, n=23)
        assert np.allclose(
            gnh_matrix_exact(MLP, theta, data, chunk=4),
            gnh_matrix_exact(MLP, theta, data, chunk=64),
            atol=1e-12,
        )

    @pytest.mark.parametrize("spec", [LINEAR, MLP, DEEP_TANH, DEEP_RELU])
    def test_matches_per_example_reference(self, spec):
        # centered Jacobian rows against sum_b J_b^T S(h_b) J_b, one example at a time
        theta, data = toy_fixture(spec, n=37, seed=4)
        jac = models._logit_jacobians(spec, _linearize(spec, theta.values, data.X))
        logits, _ = models._forward(spec, theta.values, data.X)
        reference = sum(j.T @ softmax_hessian(h) @ j for j, h in zip(jac, logits)) / len(data)
        H = gnh_matrix_exact(spec, theta, data, chunk=16)
        assert np.max(np.abs(H - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert np.array_equal(H, H.T)

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

    def test_runs_no_per_example_kxk_contraction(self, monkeypatch):
        # the rows go to one BLAS product per chunk, not a per-example einsum
        # against a K x K softmax-Hessian factor
        einsum = np.einsum

        def guarded(subscripts, *operands, **kwargs):
            if subscripts.replace(" ", "") == "bkn,bkj->bnj":
                raise AssertionError("per-example K x K einsum in the dense GNH")
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", guarded)
        theta, data = toy_fixture(MLP, n=20, seed=6)
        H = gnh_matrix_exact(MLP, theta, data)
        assert np.array_equal(H, H.T)

    def test_refuses_large_models(self):
        big = ModelSpec(kind="softmax-linear", layer_sizes=(1000, 3))
        data = Dataset(X=np.zeros((1, 1000)), y=np.array([0]))
        with pytest.raises(ValueError):
            gnh_matrix_exact(big, ParamVector(np.zeros(big.n_params), big.segments), data)


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
        op = GnhOperator(MLP, theta, data, batch_size=4, rng=SeededRng(60))
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
        op = GnhOperator(LINEAR, theta, data, batch_size=3, rng=SeededRng(71))
        samples = np.array([float(proj @ op.matvec(u)) for _ in range(2000)])
        ms = MeanSe.from_samples(samples)
        assert abs(ms.mean - exact) <= 3 * ms.se

    def test_reseeded_reproducible(self):
        theta, data = toy_fixture(LINEAR, n=20, seed=8)
        op = GnhOperator(LINEAR, theta, data, batch_size=5, rng=SeededRng(0))
        u = SeededRng(80).normal(LINEAR.n_params)
        a = [op.reseeded(123).matvec(u) for _ in range(2)]
        assert np.array_equal(a[0], a[1])

    def test_fresh_batch_per_call(self):
        theta, data = toy_fixture(LINEAR, n=20, seed=9)
        op = GnhOperator(LINEAR, theta, data, batch_size=5, rng=SeededRng(1))
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
            fresh = _gnh_hvp(spec, _linearize(spec, theta.values, data.X), u, fd_delta)
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

    def test_minibatch_operator_linearizes_each_fresh_batch(self, monkeypatch):
        batches = []
        forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda spec, theta, X: batches.append(X) or forward(spec, theta, X))
        theta, data = toy_fixture(MLP, n=30, seed=12)
        op = GnhOperator(MLP, theta, data, batch_size=6, rng=SeededRng(120))
        u = SeededRng(121).normal(MLP.n_params)
        for _ in range(4):
            op.matvec(u)
        assert len(batches) == 4
        assert all(not np.array_equal(a, b) for a, b in zip(batches, batches[1:]))

    def test_matvec_unpacks_theta_only_in_the_forward_pass(self, monkeypatch):
        # the record holds theta's layer views: a full-batch matvec unpacks
        # only v; a mini-batch one also runs the batch's forward pass
        calls = []
        unpack = models._unpack
        monkeypatch.setattr(models, "_unpack", lambda *args: calls.append(1) or unpack(*args))
        theta, data = toy_fixture(DEEP_TANH, n=30, seed=13)
        u = SeededRng(130).normal(DEEP_TANH.n_params)
        full = GnhOperator(DEEP_TANH, theta, data)
        mini = GnhOperator(DEEP_TANH, theta, data, batch_size=6, rng=SeededRng(131))
        for op, expected in ((full, 1), (mini, 3)):
            calls.clear()
            op.matvec(u)
            assert len(calls) == expected

    def test_validation_errors(self):
        theta, data = toy_fixture(LINEAR)
        with pytest.raises(ValueError):
            GnhOperator(LINEAR, theta, data, batch_size=4)  # missing rng
        with pytest.raises(ValueError):
            GnhOperator(LINEAR, theta, data, batch_size=0, rng=SeededRng(0))
        with pytest.raises(ValueError):
            GnhOperator(LINEAR, theta, data, fd_delta=0.0)
        op = GnhOperator(LINEAR, theta, data)
        with pytest.raises(ValueError):
            op.matvec(np.ones(3))


class TestSampleBatch:
    def test_with_replacement_and_bounds(self):
        data = make_blobs(SeededRng(10), 10, 3, 2)
        batch = sample_batch(data, 500, SeededRng(11))
        assert len(batch) == 500
        assert batch.ids.min() >= 0 and batch.ids.max() <= 9
        # with replacement: 500 draws from 10 items must repeat
        assert np.unique(batch.ids).size <= 10

    def test_frequencies_uniform(self):
        data = make_blobs(SeededRng(12), 10, 3, 2)
        ids = sample_batch(data, 10000, SeededRng(13)).ids
        counts = np.bincount(ids, minlength=10)
        sigma = math.sqrt(10000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_singleton_dataset(self):
        data = Dataset(X=np.ones((1, 2)), y=np.array([0]))
        batch = sample_batch(data, 7, SeededRng(14))
        assert np.all(batch.ids == 0)

    def test_deterministic(self):
        data = make_blobs(SeededRng(15), 8, 2, 2)
        a = sample_batch(data, 6, SeededRng(16))
        b = sample_batch(data, 6, SeededRng(16))
        assert np.array_equal(a.ids, b.ids)

    def test_rejects_empty_batch(self):
        data = make_blobs(SeededRng(17), 5, 2, 2)
        with pytest.raises(ValueError):
            sample_batch(data, 0, SeededRng(18))
