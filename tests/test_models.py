import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit.core import SeededRng
from lissakit.models import (
    Dataset,
    Example,
    ModelSpec,
    ParamVector,
    forward_logits,
    init_params,
    load_dataset_csv,
    logit_jvp,
    loss_gradient,
    make_blobs,
    nll_loss,
    preactivation_margin,
    save_dataset_csv,
    _act,
    _act_deriv,
)
from lissakit.models import test_gradient as measurement_gradient

LINEAR = ModelSpec(kind="softmax-linear", layer_sizes=(4, 3))
MLP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 4), activation="tanh")
MLP_RELU = ModelSpec(kind="mlp", layer_sizes=(5, 7, 4), activation="relu")
DEEP_TANH = ModelSpec(kind="mlp", layer_sizes=(5, 7, 6, 4), activation="tanh")


def rand_theta(spec, seed=0, scale=0.8):
    return init_params(spec, SeededRng(seed), scale=scale)


def fd_loss_directional(spec, theta, example, direction, step=1e-6):
    up = theta.like(theta.values + step * direction)
    dn = theta.like(theta.values - step * direction)
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

    def test_like_preserves_segments(self):
        pv = ParamVector.zeros(LINEAR)
        pv2 = pv.like(np.ones(LINEAR.n_params))
        assert pv2.segments == pv.segments
        assert pv2.norm() == pytest.approx(np.sqrt(LINEAR.n_params))


class TestForward:
    def test_zero_params_uniform_softmax(self):
        out = forward_logits(LINEAR, ParamVector.zeros(LINEAR), np.ones(4))
        assert np.allclose(out.logits, 0.0)
        assert np.allclose(out.softmax, 1.0 / 3)

    def test_mlp_zero_weights_gives_output_bias(self):
        # all weight matrices zero, biases set: logits equal the last bias
        theta = ParamVector.zeros(MLP_TANH)
        values = theta.values.copy()
        name, offset, length = MLP_TANH.segments[-1]
        fan_out, fan_in = 4, 7
        bias = np.array([0.3, -0.2, 0.05, 1.0])
        values[offset + fan_out * fan_in : offset + length] = bias
        out = forward_logits(MLP_TANH, theta.like(values), np.ones(5))
        assert np.allclose(out.logits, bias)

    def test_softmax_shift_invariance(self):
        theta = rand_theta(MLP_TANH, 3)
        x = SeededRng(9).normal(5)
        out = forward_logits(MLP_TANH, theta, x)
        shifted = np.exp(out.logits - 100.0)
        assert np.allclose(out.softmax, shifted / shifted.sum(), atol=1e-10)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_softmax_normalized(self, seed):
        theta = rand_theta(MLP_TANH, seed)
        x = SeededRng(seed + 1).normal(5)
        out = forward_logits(MLP_TANH, theta, x)
        assert out.softmax.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.softmax >= 0)

    def test_input_shape_checked(self):
        with pytest.raises(ValueError):
            forward_logits(LINEAR, ParamVector.zeros(LINEAR), np.ones(5))


class TestGradients:
    def test_linear_closed_form_at_zero(self):
        # At theta = 0 the softmax is uniform; for K = 2 the loss gradient
        # has weight rows (p - onehot) outer x.
        spec = ModelSpec(kind="softmax-linear", layer_sizes=(3, 2))
        x = np.array([1.0, -2.0, 0.5])
        g = loss_gradient(spec, ParamVector.zeros(spec), Example(x=x, y=0, id=0))
        expected_w = np.vstack([-0.5 * x, 0.5 * x])
        assert np.allclose(g.values[:6].reshape(2, 3), expected_w)
        assert np.allclose(g.values[6:], [-0.5, 0.5])

    @pytest.mark.parametrize("spec,seed", [(LINEAR, 1), (MLP_TANH, 2), (DEEP_TANH, 3)])
    def test_matches_finite_differences(self, spec, seed):
        theta = rand_theta(spec, seed)
        rng = SeededRng(seed + 100)
        ex = Example(x=rng.normal(spec.input_dim), y=1, id=0)
        g = loss_gradient(spec, theta, ex)
        for _ in range(20):
            d = rng.normal(spec.n_params)
            d /= np.linalg.norm(d)
            fd = fd_loss_directional(spec, theta, ex, d)
            assert fd == pytest.approx(float(np.dot(g.values, d)), rel=1e-4, abs=1e-9)

    def test_relu_matches_fd_away_from_kinks(self):
        theta = rand_theta(MLP_RELU, 5)
        rng = SeededRng(55)
        # re-sample until no hidden pre-activation sits within 1e-3 of zero
        for _ in range(50):
            x = rng.normal(MLP_RELU.input_dim)
            if preactivation_margin(MLP_RELU, theta, x) > 1e-3:
                break
        else:
            pytest.fail("could not find input clear of relu kinks")
        ex = Example(x=x, y=0, id=0)
        g = loss_gradient(MLP_RELU, theta, ex)
        for _ in range(10):
            d = rng.normal(MLP_RELU.n_params)
            d /= np.linalg.norm(d) * 1e3  # keep the probe inside the linear region
            fd = fd_loss_directional(MLP_RELU, theta, ex, d)
            assert fd == pytest.approx(float(np.dot(g.values, d)), rel=1e-4, abs=1e-10)

    def test_test_gradient_is_negated_loss_gradient(self):
        theta = rand_theta(MLP_TANH, 7)
        ex = Example(x=SeededRng(70).normal(5), y=2, id=0)
        g = loss_gradient(MLP_TANH, theta, ex)
        f = measurement_gradient(MLP_TANH, theta, ex)
        assert np.array_equal(f.values, -g.values)

    def test_duplicate_examples_same_gradient(self):
        theta = rand_theta(LINEAR, 8)
        x = SeededRng(80).normal(4)
        g1 = loss_gradient(LINEAR, theta, Example(x=x, y=1, id=0))
        g2 = loss_gradient(LINEAR, theta, Example(x=x.copy(), y=1, id=99))
        assert np.array_equal(g1.values, g2.values)


class TestActDeriv:
    @pytest.mark.parametrize("spec", [MLP_TANH, MLP_RELU])
    def test_read_off_activation_matches_preactivation_formula(self, spec):
        # the derivative taken from a = act(z) equals the textbook one taken
        # from z, bit for bit, signed zeros and saturated tanh included
        z = np.concatenate([np.linspace(-30.0, 30.0, 2401), [0.0, -0.0, 1e-300, -1e-300]])
        got = _act_deriv(spec, _act(spec, z))
        if spec.activation == "tanh":
            want = 1.0 - np.tanh(z) ** 2
        else:
            want = (z > 0).astype(np.float64)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLogitJvp:
    def test_zero_direction(self):
        theta = rand_theta(MLP_TANH, 11)
        x = SeededRng(110).normal(5)
        assert np.allclose(logit_jvp(MLP_TANH, theta, x, np.zeros(MLP_TANH.n_params)), 0.0)

    def test_linear_model_fd_is_exact(self):
        # logits are affine in theta, so central differences are exact at any step
        theta = rand_theta(LINEAR, 12)
        rng = SeededRng(120)
        x, u = rng.normal(4), rng.normal(LINEAR.n_params)
        exact = logit_jvp(LINEAR, theta, x, u, mode="exact")
        for delta in (0.01, 0.5):
            fd = logit_jvp(LINEAR, theta, x, u, mode="fd", delta=delta)
            assert np.allclose(fd, exact, atol=1e-10)

    def test_tanh_second_order_decay(self):
        theta = rand_theta(MLP_TANH, 13)
        rng = SeededRng(130)
        x = rng.normal(5)
        u = rng.normal(MLP_TANH.n_params)
        u /= np.linalg.norm(u)
        exact = logit_jvp(MLP_TANH, theta, x, u, mode="exact")
        err_2 = np.linalg.norm(logit_jvp(MLP_TANH, theta, x, u, mode="fd", delta=0.02) - exact)
        err_1 = np.linalg.norm(logit_jvp(MLP_TANH, theta, x, u, mode="fd", delta=0.01) - exact)
        assert err_1 <= err_2 * 0.25 * 1.2

    def test_exact_matches_tight_fd(self):
        theta = rand_theta(MLP_TANH, 14)
        rng = SeededRng(140)
        x = rng.normal(5)
        for _ in range(5):
            u = rng.normal(MLP_TANH.n_params)
            exact = logit_jvp(MLP_TANH, theta, x, u, mode="exact")
            fd = logit_jvp(MLP_TANH, theta, x, u, mode="fd", delta=1e-5)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-8)

    def test_linearity_in_direction(self):
        theta = rand_theta(MLP_TANH, 15)
        rng = SeededRng(150)
        x = rng.normal(5)
        u, v = rng.normal(MLP_TANH.n_params), rng.normal(MLP_TANH.n_params)
        lhs = logit_jvp(MLP_TANH, theta, x, 2.0 * u + v)
        rhs = 2.0 * logit_jvp(MLP_TANH, theta, x, u) + logit_jvp(MLP_TANH, theta, x, v)
        assert np.allclose(lhs, rhs, atol=1e-10 * (np.linalg.norm(u) + np.linalg.norm(v)))

    def test_bad_mode_rejected(self):
        theta = rand_theta(LINEAR, 16)
        with pytest.raises(ValueError):
            logit_jvp(LINEAR, theta, np.ones(4), np.ones(LINEAR.n_params), mode="spectral")

    def test_nonpositive_delta_rejected(self):
        theta = rand_theta(LINEAR, 17)
        with pytest.raises(ValueError):
            logit_jvp(LINEAR, theta, np.ones(4), np.ones(LINEAR.n_params), mode="fd", delta=0.0)


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
        assert ex.y == 1 and ex.id == 1
        assert np.array_equal(ex.x, np.array([0.0, 1.0, 0.0]))
