import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import nll_loss
from lissakit.core import SeededRng
from lissakit.gnh import GnhOperator, _gnh_hvp, _softmax_hessian_apply, sample_batch
from lissakit.models import (
    Dataset,
    Example,
    ModelSpec,
    ParamVector,
    init_params,
    load_dataset_csv,
    loss_gradient,
    loss_gradients,
    make_blobs,
    save_dataset_csv,
    _act,
    _act_deriv,
    _backprop,
    _forward,
    _jvp_batch,
    _linearize,
    _softmax,
    _take_rows,
    _unpack,
)
from lissakit.pbrf import pbo_gradient

LINEAR = ModelSpec(kind="softmax-linear", layer_sizes=(4, 3))
MLP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 4), activation="tanh")
MLP_RELU = ModelSpec(kind="mlp", layer_sizes=(5, 7, 4), activation="relu")
DEEP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="tanh")
# the model sizes of the benchmark and study commands, and a deeper relu net
BLOCK_SPECS = [
    ModelSpec(kind="mlp", layer_sizes=(8, 6, 4)),
    ModelSpec(kind="mlp", layer_sizes=(16, 64, 10)),
    ModelSpec(kind="softmax-linear", layer_sizes=(16, 5)),
    ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 7, 3), activation="relu"),
]
BLOCK_IDS = ["mlp-8-6-4", "mlp-16-64-10", "linear-16-5", "relu-4-6-5-7-3"]


def rand_theta(spec, seed=0, scale=0.8):
    return init_params(spec, SeededRng(seed), scale=scale)


def fd_loss_directional(spec, theta, example, direction, step=1e-6):
    up = theta + step * direction
    dn = theta - step * direction
    return (nll_loss(spec, up, example.x, example.y) - nll_loss(spec, dn, example.x, example.y)) / (2 * step)


class TestModelSpec:
    def test_param_count_linear(self):
        assert LINEAR.n_params == 3 * 4 + 3

    def test_param_count_mlp(self):
        assert MLP_TANH.n_params == (7 * 5 + 7) + (4 * 7 + 4)

    def test_segments_partition(self):
        offset = 0
        for name, seg_off, seg_len in MLP_TANH.segments:
            assert seg_off == offset
            offset += seg_len
        assert offset == MLP_TANH.n_params

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="cnn", layer_sizes=(3, 2))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="softmax-linear", layer_sizes=(3, 1))

    def test_mlp_needs_hidden(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="mlp", layer_sizes=(3, 2))


class TestParamVector:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            ParamVector(np.zeros(5), (("a", 0, 2), ("b", 3, 2)))


class TestForward:
    def test_zero_params_uniform_softmax(self):
        theta = np.zeros(LINEAR.n_params)
        logits, _ = _forward(LINEAR, theta, np.ones((2, 4)))
        assert np.allclose(logits, 0.0)
        assert np.allclose(_softmax(logits), 1.0 / 3)

    def test_mlp_zero_weights_gives_output_bias(self):
        # all weight matrices zero, biases set: logits equal the last bias
        values = np.zeros(MLP_TANH.n_params)
        name, offset, length = MLP_TANH.segments[-1]
        fan_out, fan_in = 4, 7
        bias = np.array([0.3, -0.2, 0.05, 1.0])
        values[offset + fan_out * fan_in : offset + length] = bias
        logits, _ = _forward(MLP_TANH, values, np.ones((2, 5)))
        assert np.allclose(logits, bias)

    def test_softmax_shift_invariance(self):
        theta = rand_theta(MLP_TANH, 3)
        X = SeededRng(9).normal(15).reshape(3, 5)
        logits, _ = _forward(MLP_TANH, theta, X)
        shifted = np.exp(logits - 100.0)
        assert np.allclose(_softmax(logits), shifted / shifted.sum(axis=1, keepdims=True), atol=1e-10)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_softmax_normalized(self, seed):
        theta = rand_theta(MLP_TANH, seed)
        X = SeededRng(seed + 1).normal(10).reshape(2, 5)
        p = _softmax(_forward(MLP_TANH, theta, X)[0])
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(p >= 0)

    def test_input_shape_checked(self):
        # a batch of the wrong width fails loudly instead of broadcasting
        theta = np.zeros(LINEAR.n_params)
        with pytest.raises(ValueError):
            _forward(LINEAR, theta, np.ones((2, 5)))

    @pytest.mark.parametrize("spec", [LINEAR, MLP_RELU, DEEP_TANH])
    def test_caches_hold_each_layer_input(self, spec):
        # each cache is the layer's augmented input [a_l, 1], the first a copy of X
        theta = rand_theta(spec, 4)
        X = SeededRng(40).normal(3 * spec.input_dim).reshape(3, spec.input_dim)
        logits, caches = _forward(spec, theta, X)
        assert len(caches) == spec.n_layers and np.array_equal(caches[0][:, :-1], X)
        for l, a in enumerate(caches):
            assert a.shape == (3, spec.layer_sizes[l] + 1) and np.all(a[:, -1] == 1.0)
        assert logits.shape == (3, spec.n_classes)


class TestGradients:
    def test_linear_closed_form_at_zero(self):
        # At theta = 0 the softmax is uniform; for K = 2 the loss gradient
        # has weight rows (p - onehot) outer x.
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(3, 2))
        x = np.array([1.0, -2.0, 0.5])
        theta = np.zeros(spec.n_params)
        g = loss_gradient(spec, theta, Example(x=x, y=0))
        expected_w = np.vstack([-0.5 * x, 0.5 * x])
        assert np.allclose(g.values[:6].reshape(2, 3), expected_w)
        assert np.allclose(g.values[6:], [-0.5, 0.5])

    @pytest.mark.parametrize("spec,seed", [(LINEAR, 1), (MLP_TANH, 2), (DEEP_TANH, 3)])
    def test_matches_finite_differences(self, spec, seed):
        theta = rand_theta(spec, seed)
        rng = SeededRng(seed + 100)
        ex = Example(x=rng.normal(spec.input_dim), y=1)
        g = loss_gradient(spec, theta, ex)
        for _ in range(20):
            d = rng.normal(spec.n_params)
            d /= np.linalg.norm(d)
            fd = fd_loss_directional(spec, theta, ex, d)
            assert fd == pytest.approx(float(np.dot(g.values, d)), rel=1e-4, abs=1e-9)

    def test_relu_matches_fd_away_from_kinks(self):
        theta = rand_theta(MLP_RELU, 5)
        rng = SeededRng(55)
        x = rng.normal(MLP_RELU.input_dim)
        ex = Example(x=x, y=0)
        g = loss_gradient(MLP_RELU, theta, ex)

        def active_units(values):
            # the hidden layer's output is the last layer's cached input
            _, caches = _forward(MLP_RELU, values, x[None, :])
            return caches[-1][:, :-1] > 0.0

        for _ in range(10):
            d = rng.normal(MLP_RELU.n_params)
            d /= np.linalg.norm(d) * 1e3  # keep the probe inside the linear region
            # both difference points share the relu pattern: no kink between them
            for sign in (1.0, -1.0):
                shifted = theta + sign * 1e-6 * d
                assert np.array_equal(active_units(shifted), active_units(theta))
            fd = fd_loss_directional(MLP_RELU, theta, ex, d)
            assert fd == pytest.approx(float(np.dot(g.values, d)), rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=BLOCK_IDS)
    def test_block_rows_equal_single_example_gradients(self, spec):
        theta = rand_theta(spec, 7)
        data = make_blobs(SeededRng(70), 13, spec.input_dim, spec.n_classes)
        want = np.vstack([loss_gradient(spec, theta, data[i]).values for i in range(len(data))])
        assert np.array_equal(loss_gradients(spec, theta, data.X, data.y), want)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=BLOCK_IDS)
    def test_block_of_chains_equals_each_chain_alone(self, spec):
        # an (R, n) theta: row r is the gradient of example r at theta row r
        R = 5
        thetas = rand_theta(spec, 71) + 0.1 * SeededRng(72).normal(R * spec.n_params).reshape(R, -1)
        data = make_blobs(SeededRng(73), R, spec.input_dim, spec.n_classes)
        want = np.vstack([
            loss_gradient(spec, thetas[r], data[r]).values for r in range(R)
        ])
        assert np.array_equal(loss_gradients(spec, thetas, data.X, data.y), want)

    def test_duplicate_examples_same_gradient(self):
        theta = rand_theta(LINEAR, 8)
        x = SeededRng(80).normal(4)
        g1 = loss_gradient(LINEAR, theta, Example(x=x, y=1))
        g2 = loss_gradient(LINEAR, theta, Example(x=x.copy(), y=1))
        assert np.array_equal(g1.values, g2.values)


class TestActDeriv:
    @pytest.mark.parametrize("spec", [MLP_TANH, MLP_RELU])
    def test_read_off_activation_matches_preactivation_formula(self, spec):
        # the derivative taken from a = act(z) equals the textbook one taken
        # from z, bit for bit, signed zeros and saturated tanh included
        z = np.concatenate([np.linspace(-30.0, 30.0, 2401), [0.0, -0.0, 1e-300, -1e-300]])
        got = _act_deriv(spec, _act(spec, z.copy()))
        if spec.activation == "tanh":
            want = 1.0 - np.tanh(z) ** 2
        else:
            want = (z > 0).astype(np.float64)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLogitJvp:
    """The forward-mode JVP ``_jvp_batch`` at a ``_linearize`` record, and the
    central difference that ``_gnh_hvp(fd_delta=...)`` takes in its place,
    seen through the HVP."""

    def test_zero_direction(self):
        theta = rand_theta(MLP_TANH, 11)
        lin = _linearize(MLP_TANH, theta, SeededRng(110).normal(15).reshape(3, 5))
        assert np.allclose(_jvp_batch(MLP_TANH, lin, np.zeros(MLP_TANH.n_params)), 0.0)

    def test_linear_model_fd_is_exact(self):
        # logits are affine in theta, so central differences are exact at any step
        theta = rand_theta(LINEAR, 12)
        rng = SeededRng(120)
        X, u = rng.normal(12).reshape(3, 4), rng.normal(LINEAR.n_params)
        lin = _linearize(LINEAR, theta, X)
        exact = _gnh_hvp(LINEAR, lin, u, None)
        for delta in (0.01, 0.5):
            fd = _gnh_hvp(LINEAR, lin, u, delta)
            assert np.allclose(fd, exact, atol=1e-10)

    def test_tanh_second_order_decay(self):
        theta = rand_theta(MLP_TANH, 13)
        rng = SeededRng(130)
        x = rng.normal(5)
        u = rng.normal(MLP_TANH.n_params)
        u /= np.linalg.norm(u)
        lin = _linearize(MLP_TANH, theta, x[None, :])
        exact = _gnh_hvp(MLP_TANH, lin, u, None)
        err_2 = np.linalg.norm(_gnh_hvp(MLP_TANH, lin, u, 0.02) - exact)
        err_1 = np.linalg.norm(_gnh_hvp(MLP_TANH, lin, u, 0.01) - exact)
        assert err_1 <= err_2 * 0.25 * 1.2

    def test_exact_matches_tight_fd(self):
        theta = rand_theta(MLP_TANH, 14)
        rng = SeededRng(140)
        lin = _linearize(MLP_TANH, theta, rng.normal(5)[None, :])
        for _ in range(5):
            u = rng.normal(MLP_TANH.n_params)
            exact = _gnh_hvp(MLP_TANH, lin, u, None)
            fd = _gnh_hvp(MLP_TANH, lin, u, 1e-5)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-8)

    def test_linearity_in_direction(self):
        theta = rand_theta(MLP_TANH, 15)
        rng = SeededRng(150)
        lin = _linearize(MLP_TANH, theta, rng.normal(15).reshape(3, 5))
        u, v = rng.normal(MLP_TANH.n_params), rng.normal(MLP_TANH.n_params)

        def jvp(direction):
            return _jvp_batch(MLP_TANH, lin, direction)

        lhs = jvp(2.0 * u + v)
        rhs = 2.0 * jvp(u) + jvp(v)
        assert np.allclose(lhs, rhs, atol=1e-10 * (np.linalg.norm(u) + np.linalg.norm(v)))

    def test_nonpositive_delta_rejected(self):
        # the central-difference step is validated where it is set
        theta = rand_theta(LINEAR, 17)
        data = make_blobs(SeededRng(170), 8, 4, 3)
        for delta in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError):
                GnhOperator(LINEAR, theta, data, fd_delta=delta)


class TestLinearization:
    """One ``_linearize`` record feeds every sweep, and moving the gradients onto
    it changed no bit of them."""

    @staticmethod
    def hand_built_backprop(spec, theta, G, X):
        # the backward sweep as assembled without the record: a forward pass,
        # theta unpacked again and each derivative taken from the caches; a
        # layer's weights and bias are the columns of delta^T [a_l, 1]
        _, caches = _forward(spec, theta, X)
        derivs = [_act_deriv(spec, a[:, :-1]) for a in caches[1:]]
        layers = _unpack(spec, theta)
        grad = np.zeros(spec.n_params)
        delta = G
        for l in range(len(layers) - 1, -1, -1):
            w, _ = layers[l]
            name, offset, length = spec.segments[l]
            fan_out, fan_in = w.shape
            weights_bias = delta.T @ caches[l]
            grad[offset : offset + fan_out * fan_in] = weights_bias[:, :-1].ravel()
            grad[offset + fan_out * fan_in : offset + length] = weights_bias[:, -1]
            if l > 0:
                delta = (delta @ w) * derivs[l - 1]
        return grad

    def hand_built_loss_gradient(self, spec, theta, example):
        X = example.x[None, :]
        g = _softmax(_forward(spec, theta, X)[0])
        g[0, example.y] -= 1.0
        return self.hand_built_backprop(spec, theta, g, X)

    @pytest.mark.parametrize("spec", [MLP_TANH, MLP_RELU, DEEP_TANH])
    def test_loss_gradient_bit_identical_to_hand_built_pass(self, spec):
        theta = rand_theta(spec, 31)
        data = make_blobs(SeededRng(310), 12, spec.input_dim, spec.n_classes)
        for i in range(len(data)):
            got = loss_gradient(spec, theta, data[i]).values
            assert got.tobytes() == self.hand_built_loss_gradient(spec, theta, data[i]).tobytes()

    @pytest.mark.parametrize("spec", [MLP_TANH, MLP_RELU])
    def test_pbo_gradient_bit_identical_to_hand_built_pass(self, spec):
        theta_star = rand_theta(spec, 32)
        rng = SeededRng(320)
        theta = theta_star + 0.1 * rng.normal(spec.n_params)
        data = make_blobs(rng, 16, spec.input_dim, spec.n_classes)
        epsilon, lambda_damp = 1e-3, 0.2
        gap = (_softmax(_forward(spec, theta, data.X)[0])
               - _softmax(_forward(spec, theta_star, data.X)[0])) / len(data)
        want = self.hand_built_backprop(spec, theta, gap, data.X)
        want = want + epsilon * self.hand_built_loss_gradient(spec, theta, data[2])
        want = want + lambda_damp * (theta - theta_star)
        point = Dataset(X=data.X[2:3], y=data.y[2:3])
        got = pbo_gradient(spec, theta[None], theta_star, point, data.X, epsilon, lambda_damp)
        assert got.shape == (1, spec.n_params) and got[0].tobytes() == want.tobytes()

    def test_record_holds_one_pass(self):
        theta = rand_theta(DEEP_TANH, 33)
        X = SeededRng(330).normal(15).reshape(3, 5)
        lin = _linearize(DEEP_TANH, theta, X)
        logits, caches = _forward(DEEP_TANH, theta, X)
        assert len(lin.inputs) == len(lin.layers) == DEEP_TANH.n_layers
        assert lin.inputs[0][:, :-1].tobytes() == X.tobytes()
        for a, b in zip(lin.inputs, caches):
            assert np.array_equal(a, b) and np.all(a[:, -1] == 1.0)
        for (w, b), (w_ref, b_ref) in zip(lin.layers, _unpack(DEEP_TANH, theta)):
            assert np.shares_memory(w, theta) and np.array_equal(w, w_ref)
            assert np.shares_memory(b, theta) and np.array_equal(b, b_ref)
        assert [d.tobytes() for d in lin.derivs] == [_act_deriv(DEEP_TANH, a[:, :-1]).tobytes() for a in caches[1:]]
        assert np.array_equal(lin.p, _softmax(logits))


def reference_jvp(spec, lin, u):
    # the sweeps as plain expressions: every intermediate a fresh array, each
    # layer's bias a column of its direction block [dW | db]
    for l, ((w, _), (dw, db)) in enumerate(zip(lin.layers, _unpack(spec, u))):
        direction = np.swapaxes(np.concatenate([dw, db[..., None]], axis=-1), -1, -2)
        if l == 0:
            dz = lin.inputs[l] @ direction
        else:
            da = lin.derivs[l - 1] * dz
            dz = lin.inputs[l] @ direction + da @ np.swapaxes(w, -1, -2)
    return dz


def reference_backprop(spec, lin, G):
    lead = G.shape[:-2]
    grad = np.zeros(lead + (spec.n_params,))
    delta = G
    for l in range(len(lin.layers) - 1, -1, -1):
        w, _ = lin.layers[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape[-2:]
        weights_bias = np.swapaxes(delta, -1, -2) @ lin.inputs[l]
        grad[..., offset : offset + fan_out * fan_in] = weights_bias[..., :-1].reshape(lead + (-1,))
        grad[..., offset + fan_out * fan_in : offset + length] = weights_bias[..., -1]
        if l > 0:
            delta = (delta @ w) * lin.derivs[l - 1]
    return grad


def reference_apply(p, t):
    pt = p * t
    return pt - p * (pt @ np.ones(p.shape[-1]))[..., None]


def reference_hvp(spec, lin, v, fd_delta):
    X = lin.inputs[0][..., :-1]
    if fd_delta is None:
        t = reference_jvp(spec, lin, v)
    else:
        h_plus, _ = _forward(spec, lin.theta + fd_delta * v, X)
        h_minus, _ = _forward(spec, lin.theta - fd_delta * v, X)
        t = (h_plus - h_minus) / (2.0 * fd_delta)
    return reference_backprop(spec, lin, reference_apply(lin.p, t)) / X.shape[-2]


def bias_add_jvp(spec, lin, u):
    # the same sweeps in other arithmetic, to check the augmented GEMMs
    # against: a broadcast bias add in the tangent, axis sums for the bias
    # gradient and the softmax-Hessian row sum, and 1/B applied to the
    # (B, K) array
    for l, ((w, _), (dw, db)) in enumerate(zip(lin.layers, _unpack(spec, u))):
        a, dw_t = lin.inputs[l][..., :-1], np.swapaxes(dw, -1, -2)
        if l == 0:
            dz = a @ dw_t + db[..., None, :]
        else:
            da = lin.derivs[l - 1] * dz
            dz = a @ dw_t + da @ np.swapaxes(w, -1, -2) + db[..., None, :]
    return dz


def bias_add_backprop(spec, lin, G):
    lead = G.shape[:-2]
    grad = np.zeros(lead + (spec.n_params,))
    delta = G
    for l in range(len(lin.layers) - 1, -1, -1):
        w, _ = lin.layers[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape[-2:]
        weights = np.swapaxes(delta, -1, -2) @ lin.inputs[l][..., :-1]
        grad[..., offset : offset + fan_out * fan_in] = weights.reshape(lead + (-1,))
        grad[..., offset + fan_out * fan_in : offset + length] = delta.sum(axis=-2)
        if l > 0:
            delta = (delta @ w) * lin.derivs[l - 1]
    return grad


def bias_add_apply(p, t):
    return p * t - p * np.sum(p * t, axis=-1, keepdims=True)


def bias_add_hvp(spec, lin, v, fd_delta):
    X = lin.inputs[0][..., :-1]
    if fd_delta is None:
        t = bias_add_jvp(spec, lin, v)
    else:
        h_plus, _ = _forward(spec, lin.theta + fd_delta * v, X)
        h_minus, _ = _forward(spec, lin.theta - fd_delta * v, X)
        t = (h_plus - h_minus) / (2.0 * fd_delta)
    return bias_add_backprop(spec, lin, bias_add_apply(lin.p, t) / X.shape[-2])


def assert_last_bits(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


SWEEP_SPECS = [LINEAR, MLP_TANH, MLP_RELU, DEEP_TANH]
SWEEP_IDS = ["linear", "tanh", "relu", "deep-tanh"]


class TestSweepScratch:
    """The JVP and backward sweeps form their hidden-layer intermediates in the
    record's scratch: bit for bit the plain expressions, never a result that a
    later sweep overwrites, and a full-batch HVP that allocates little."""

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_full_batch_matvec_equals_reference(self, spec, fd_delta):
        theta = rand_theta(spec, 41)
        data = make_blobs(SeededRng(410), 30, spec.input_dim, spec.n_classes)
        op = GnhOperator(spec, theta, data, fd_delta=fd_delta)
        lin = _linearize(spec, theta, data.X)
        rng = SeededRng(411)
        for _ in range(3):
            u = rng.normal(spec.n_params)
            assert np.array_equal(op.matvec(u), reference_hvp(spec, lin, u, fd_delta))

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_minibatch_matvec_equals_reference(self, spec, fd_delta):
        # the sweep over the gathered rows; a draw with fd_delta set is the
        # operator's own, and one without takes the row path, tested in
        # test_gnh.TestRowPath
        theta = rand_theta(spec, 42)
        data = make_blobs(SeededRng(420), 30, spec.input_dim, spec.n_classes)
        op = GnhOperator(spec, theta, data, batch_size=6, fd_delta=fd_delta).reseeded(421)
        draws = SeededRng(421)
        rng = SeededRng(422)
        for _ in range(3):
            u = rng.normal(spec.n_params)
            rows = sample_batch(data, 6, draws)
            sweep = _gnh_hvp(spec, _take_rows(op._lin, rows), u, fd_delta)
            assert np.array_equal(sweep, reference_hvp(spec, _linearize(spec, theta, data.X[rows]), u, fd_delta))
            if fd_delta is not None:
                assert np.array_equal(op.matvec(u), sweep)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_chain_block_gradients_equal_reference(self, spec):
        theta_star = rand_theta(spec, 43)
        rng = SeededRng(430)
        data = make_blobs(rng, 30, spec.input_dim, spec.n_classes)
        R, B = 4, 5
        thetas = theta_star + 0.1 * rng.normal(R * spec.n_params).reshape(R, -1)
        X = data.X[sample_batch(data, B, SeededRng((1, 2, 3, 4)))]
        points = Dataset(X=data.X[:R], y=data.y[:R])

        # chain r's loss gradient at its own point, one row through its own theta
        train = _linearize(spec, thetas, points.X[:, None, :])
        g = train.p.copy()
        g[np.arange(R), 0, points.y] -= 1.0
        want_loss = reference_backprop(spec, train, g)
        assert np.array_equal(loss_gradients(spec, thetas, points.X, points.y), want_loss)

        epsilon, lambda_damp = 1e-2, 0.2
        lin = _linearize(spec, thetas, X)
        ref_p = _softmax(_forward(spec, theta_star, X)[0])
        want = reference_backprop(spec, lin, (lin.p - ref_p) / B)
        want = want + epsilon * want_loss
        want = want + lambda_damp * (thetas - theta_star)
        got = pbo_gradient(spec, thetas, theta_star, points, X, epsilon, lambda_damp)
        assert got.shape == (R, spec.n_params) and np.array_equal(got, want)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_chain_block_jvp_equals_single_jvps(self, spec):
        # an (R, n) record swept along (R, n) directions: row r is the JVP of
        # chain r's own record along its own direction
        rng = SeededRng(450)
        R, B = 3, 5
        thetas = rng.normal(R * spec.n_params).reshape(R, -1)
        X = rng.normal(R * B * spec.input_dim).reshape(R, B, -1)
        u = rng.normal(R * spec.n_params).reshape(R, -1)
        got = _jvp_batch(spec, _linearize(spec, thetas, X), u)
        assert got.shape == (R, B, spec.n_classes)
        for r in range(R):
            want = _jvp_batch(spec, _linearize(spec, thetas[r], X[r]), u[r])
            assert np.array_equal(got[r], want)
            assert np.array_equal(want, reference_jvp(spec, _linearize(spec, thetas[r], X[r]), u[r]))

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_results_survive_the_next_sweep(self, spec):
        theta = rand_theta(spec, 44)
        data = make_blobs(SeededRng(440), 30, spec.input_dim, spec.n_classes)
        rng = SeededRng(441)
        u, v = rng.normal(spec.n_params), rng.normal(spec.n_params)
        op = GnhOperator(spec, theta, data)
        first = op.matvec(u)
        kept = first.copy()
        op.matvec(v)
        assert np.array_equal(first, kept)
        lin = _linearize(spec, theta, data.X)
        first = _jvp_batch(spec, lin, u)
        kept = first.copy()
        _jvp_batch(spec, lin, v)
        assert np.array_equal(first, kept)

    def test_full_batch_matvec_allocates_less_than_one_hidden_array(self):
        spec = ModelSpec(kind="mlp", layer_sizes=(16, 64, 10), activation="tanh")
        data = make_blobs(SeededRng(450), 2048, 16, 10)
        op = GnhOperator(spec, rand_theta(spec, 45), data)
        v = SeededRng(451).normal(spec.n_params)
        op.matvec(v)
        tracemalloc.start()
        try:
            op.matvec(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hidden_array = 2048 * 64 * np.dtype(np.float64).itemsize
        assert peak < hidden_array


class TestBiasAsColumn:
    """The bias as a column of each layer's GEMM and the softmax-Hessian row
    sum as a GEMV agree with the broadcast bias add and the axis sums they
    replaced, to within 1e-13 of the largest magnitude, and no sweep writes
    the augmented inputs' column of ones."""

    @pytest.mark.parametrize("fd_delta", [None, 0.01])
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_matvecs_match_bias_add_sweeps(self, spec, fd_delta):
        theta = rand_theta(spec, 46)
        data = make_blobs(SeededRng(460), 30, spec.input_dim, spec.n_classes)
        full = GnhOperator(spec, theta, data, fd_delta=fd_delta)
        mini = GnhOperator(spec, theta, data, batch_size=6, fd_delta=fd_delta).reseeded(461)
        lin = _linearize(spec, theta, data.X)
        draws = SeededRng(461)
        rng = SeededRng(462)
        for _ in range(3):
            u = rng.normal(spec.n_params)
            assert_last_bits(full.matvec(u), bias_add_hvp(spec, lin, u, fd_delta))
            drawn = _take_rows(lin, sample_batch(data, 6, draws))
            assert_last_bits(mini.matvec(u), bias_add_hvp(spec, drawn, u, fd_delta))

    @pytest.mark.parametrize("shared_batch", [False, True], ids=["own-batch", "shared-batch"])
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_chain_blocks_match_bias_add_sweeps(self, spec, shared_batch):
        # (R, n) parameters over (R, B, in) rows, or over one (B, in) batch
        # that every chain shares, as pbrf's full-batch finetune has it
        rng = SeededRng(470)
        R, B = 3, 5
        thetas = rng.normal(R * spec.n_params).reshape(R, -1)
        X = rng.normal(R * B * spec.input_dim).reshape(R, B, -1)
        u = rng.normal(R * spec.n_params).reshape(R, -1)
        G = rng.normal(R * B * spec.n_classes).reshape(R, B, -1)
        lin = _linearize(spec, thetas, X[0] if shared_batch else X)
        assert_last_bits(_jvp_batch(spec, lin, u), bias_add_jvp(spec, lin, u))
        assert_last_bits(_backprop(spec, lin, G), bias_add_backprop(spec, lin, G))
        assert_last_bits(_softmax_hessian_apply(lin.p, G), bias_add_apply(lin.p, G))

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_columns_of_ones_survive_repeated_sweeps(self, spec):
        theta = rand_theta(spec, 48)
        rng = SeededRng(480)
        data = make_blobs(rng, 30, spec.input_dim, spec.n_classes)
        lin = _linearize(spec, theta, data.X)
        drawn = _take_rows(lin, sample_batch(data, 6, rng))
        chains = _linearize(spec, theta + 0.1 * rng.normal(2 * spec.n_params).reshape(2, -1), data.X[:6])
        for _ in range(3):
            for record in (lin, drawn):
                for fd_delta in (None, 0.01):
                    _gnh_hvp(spec, record, rng.normal(spec.n_params), fd_delta)
            _jvp_batch(spec, chains, rng.normal(2 * spec.n_params).reshape(2, -1))
            _backprop(spec, chains, rng.normal(2 * 6 * spec.n_classes).reshape(2, 6, -1))
        for record in (lin, drawn, chains):
            assert all(np.all(a[..., -1] == 1.0) for a in record.inputs)


class TestData:
    def test_make_blobs_shapes_and_balance(self):
        data = make_blobs(SeededRng(20), 90, 6, 3, separation=2.0)
        assert data.X.shape == (90, 6)
        counts = np.bincount(data.y)
        assert np.all(counts == 30)

    def test_make_blobs_deterministic(self):
        a = make_blobs(SeededRng(21), 40, 5, 4)
        b = make_blobs(SeededRng(21), 40, 5, 4)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_separation_moves_class_means(self):
        wide = make_blobs(SeededRng(22), 600, 8, 2, separation=8.0)
        narrow = make_blobs(SeededRng(22), 600, 8, 2, separation=0.0)
        gap_wide = np.linalg.norm(wide.X[wide.y == 0].mean(0) - wide.X[wide.y == 1].mean(0))
        gap_narrow = np.linalg.norm(narrow.X[narrow.y == 0].mean(0) - narrow.X[narrow.y == 1].mean(0))
        assert gap_wide > gap_narrow + 1.0

    def test_csv_roundtrip(self, tmp_path):
        data = make_blobs(SeededRng(23), 17, 3, 2)
        path = str(tmp_path / "data.csv")
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset_csv(str(path))

    def test_dataset_indexing(self):
        data = Dataset(X=np.eye(3), y=np.array([0, 1, 0]))
        ex = data[1]
        assert ex.y == 1
        assert np.array_equal(ex.x, np.array([0.0, 1.0, 0.0]))
