"""Small classification models with exact gradients.

Two architectures cover the validation needs: a softmax-linear model (logits
affine in the parameters, so curvature statements have closed forms) and a
fully-connected MLP with tanh or relu hidden units.  Parameters live in a
single flat float64 vector with per-layer segmentation so curvature code can
address layers individually; ``ModelSpec.parts`` is the one table of where
each layer's weights and bias sit in it.  ``_linearize`` runs one forward
pass and keeps all that the derivative sweeps at that point read in one
``_Linearization`` record; ``_backprop``, ``_jvp_batch`` and
``gnh._layer_factors`` take the record, so none of them unpacks theta or
pairs the caches of two passes.  The record
holds views of theta, which must not be mutated after.  ``_take_rows``
gathers some of a record's rows into a record of their own, which the sweeps
read without another forward pass.

The record holds each layer's input once, as the augmented row [a_l, 1], so
the bias rides in the weights' GEMM: the JVP's layer tangent is
[a_l, 1] [dW_l | db_l]^T, and the gradient's weights and bias are the columns
of one delta^T [a_l, 1].

The record also owns scratch for the hidden-layer intermediates of its sweeps,
so no sweep allocates an array the size of a hidden layer: it allocates only
logit-sized and parameter-sized arrays, and returns a fresh one.  A record is
therefore swept by one caller at a time: two threads sweeping one record would
overwrite each other's intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import SeededRng

KIND_LINEAR = "softmax-linear"
KIND_MLP = "mlp"
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: layer widths from input to logits."""

    kind: str
    layer_sizes: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if self.kind == KIND_LINEAR and len(sizes) != 2:
            raise ValueError("softmax-linear takes (input_dim, n_classes)")
        if self.kind == KIND_MLP and len(sizes) < 3:
            raise ValueError("mlp needs at least one hidden layer")
        if sizes[-1] < 2:
            raise ValueError("need at least two classes")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @cached_property
    def parts(self) -> tuple:
        """Per layer, where its parameters sit: for the row-major weights and
        then the bias, (rows of theta, their (fan_out, width) shape, their
        columns of the augmented input [a_l, 1]); the bias multiplies the
        constant 1."""
        parts = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            end_w = offset + fan_out * fan_in
            parts.append((
                (slice(offset, end_w), (fan_out, fan_in), slice(0, fan_in)),
                (slice(end_w, end_w + fan_out), (fan_out, 1), slice(fan_in, fan_in + 1)),
            ))
            offset = end_w + fan_out
        return tuple(parts)

    @cached_property
    def segments(self) -> tuple[tuple[str, int, int], ...]:
        """Per-layer (name, offset, length) for weights-plus-bias blocks."""
        return tuple(
            (f"layer{l}", weights[0].start, bias[0].stop - weights[0].start)
            for l, (weights, bias) in enumerate(self.parts)
        )

    @property
    def n_params(self) -> int:
        name, offset, length = self.segments[-1]
        return offset + length


@dataclass
class ParamVector:
    """A gradient with its layer segmentation, as ``loss_gradient`` returns it;
    parameters and every other parameter-space vector are plain (n,) arrays."""

    values: np.ndarray
    segments: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        offset = 0
        for name, seg_off, seg_len in self.segments:
            if seg_off != offset or seg_len < 1:
                raise ValueError("segments must partition the vector contiguously")
            offset += seg_len
        if offset != self.values.size:
            raise ValueError("segments do not cover the vector")


@dataclass(frozen=True)
class Example:
    x: np.ndarray
    y: int


@dataclass
class Dataset:
    """Ordered classification examples held as arrays; an example's id is its row."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ValueError("X must be (n, dim) with one label per row")

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> Example:
        return Example(x=self.X[i], y=int(self.y[i]))


def _unpack(spec: ModelSpec, theta: np.ndarray):
    """Views of the flat vector as per-layer (W, b) pairs; no copies.  A
    leading chain axis on theta, (R, n), gives (R, out, in) and (R, out)."""
    lead = theta.shape[:-1]
    return [
        (theta[..., w_rows].reshape(lead + w_shape), theta[..., b_rows])
        for (w_rows, w_shape, _), (b_rows, _, _) in spec.parts
    ]


def _act(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    """The activation of z, written over z."""
    return np.tanh(z, out=z) if spec.activation == "tanh" else np.maximum(z, 0.0, out=z)


def _act_deriv(spec: ModelSpec, a: np.ndarray) -> np.ndarray:
    """Activation derivative read off the activation a = act(z) itself, as
    one fresh array."""
    if spec.activation == "tanh":
        d = np.square(a)
        return np.subtract(1.0, d, out=d)
    return (a > 0.0).astype(np.float64)


def _with_ones(a: np.ndarray) -> np.ndarray:
    """The augmented rows [a, 1]: a copy of a with a last column of ones."""
    augmented = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    augmented[..., :-1] = a
    augmented[..., -1] = 1.0
    return augmented


def _forward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Batched forward pass; returns logits (..., B, K) and the per-layer
    caches, each layer's input as the augmented row [a_l, 1], which holds
    the only kept copy of each hidden activation.  theta (n,) or (R, n) and
    X (B, in) or (R, B, in) broadcast over their leading axes; a 2-D X
    against a 1-D theta runs plain matmuls."""
    layers = _unpack(spec, theta)
    a = X
    caches = [_with_ones(X)]
    for l, (w, b) in enumerate(layers):
        z = a @ np.swapaxes(w, -1, -2)
        z += b[..., None, :]
        if l == len(layers) - 1:
            return z, caches
        a = _act(spec, z)
        caches.append(_with_ones(a))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _Linearization(NamedTuple):
    """One forward pass at (theta, X) and what every sweep there reads from it:
    ``layers`` holds theta's per-layer (W, b) views, ``inputs`` each layer's
    augmented input [a_l, 1] (``inputs[0][..., :-1]`` is X; a reader that
    wants a_l takes the view ``[..., :-1]``), ``derivs`` each hidden layer's
    activation derivative (entry l - 1 belongs to ``inputs[l]``) and ``p`` the
    softmax probabilities.  ``work`` is the sweeps' scratch: two buffers per
    hidden layer, each shaped like that layer's activation, which every JVP
    and backward sweep at this record overwrites; so one caller at a time
    sweeps a record."""

    theta: np.ndarray
    layers: list
    inputs: list
    derivs: list
    p: np.ndarray
    work: list


def _linearize(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> _Linearization:
    """Run the forward pass at (theta, X) and keep what the sweeps read."""
    h, inputs = _forward(spec, theta, X)
    derivs = [_act_deriv(spec, a[..., :-1]) for a in inputs[1:]]
    work = [(np.empty_like(d), np.empty_like(d)) for d in derivs]
    return _Linearization(theta, _unpack(spec, theta), inputs, derivs, _softmax(h), work)


def _take_rows(lin: _Linearization, rows: np.ndarray) -> _Linearization:
    """The record of the rows ``rows`` of a 2-D ``lin``, duplicates allowed:
    its per-row arrays gathered, theta's layer views shared, fresh scratch.
    It equals ``_linearize`` at those rows up to the last bits, where BLAS
    picks its GEMM kernel by the row count."""
    inputs = [a.take(rows, axis=0) for a in lin.inputs]
    derivs = [d.take(rows, axis=0) for d in lin.derivs]
    work = [(np.empty_like(d), np.empty_like(d)) for d in derivs]
    return _Linearization(lin.theta, lin.layers, inputs, derivs, lin.p.take(rows, axis=0), work)


def _backprop(spec: ModelSpec, lin: _Linearization, G: np.ndarray) -> np.ndarray:
    """Gradient of sum_b <G[b], logits(x_b)> with respect to theta at ``lin``;
    (R, n) for a linearization with a leading chain axis.  Each layer's
    weights and bias are the columns of one GEMM, delta^T [a_l, 1], scattered
    into their rows of theta.  Each hidden delta is formed in ``lin.work``;
    the gradient is a fresh array."""
    lead = G.shape[:-2]
    grad = np.empty(lead + (spec.n_params,))
    delta = G
    for l in range(len(lin.layers) - 1, -1, -1):
        weights_bias = np.swapaxes(delta, -1, -2) @ lin.inputs[l]
        for rows, shape, cols in spec.parts[l]:
            grad[..., rows].reshape(lead + shape)[...] = weights_bias[..., cols]
        if l > 0:
            delta = np.matmul(delta, lin.layers[l][0], out=lin.work[l - 1][0])
            delta *= lin.derivs[l - 1]
    return grad


def _jvp_batch(spec: ModelSpec, lin: _Linearization, u: np.ndarray) -> np.ndarray:
    """Directional derivative of logits along parameter direction u at ``lin``;
    for a linearization with a leading chain axis, u is (R, n), one direction
    per chain, and the tangent (R, B, K).  Layer l's tangent is
    [a_l, 1] [dW_l | db_l]^T, plus da_l W_l^T past the first layer, for the
    direction block [dW_l | db_l] of u.  Each hidden layer's tangent is formed
    in ``lin.work``; the logit tangent is a fresh array."""
    da = None
    for l, ((w, _), (dw, db)) in enumerate(zip(lin.layers, _unpack(spec, u))):
        direction = np.concatenate([dw, db[..., None]], axis=-1).swapaxes(-1, -2)
        if l == len(lin.layers) - 1:
            t = lin.inputs[l] @ direction
            if da is not None:
                t += da @ w.swapaxes(-1, -2)
            return t
        dz, scratch = lin.work[l]
        np.matmul(lin.inputs[l], direction, out=dz)
        if da is not None:
            dz += np.matmul(da, w.swapaxes(-1, -2), out=scratch)
        dz *= lin.derivs[l]
        da = dz


def _nll_from_logits(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of logits h (..., K) at labels y, which
    broadcasts against h's leading axes."""
    shifted = h - h.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    labels = np.broadcast_to(y, h.shape[:-1])[..., None]
    return lse - np.take_along_axis(shifted, labels, axis=-1)[..., 0]


def loss_gradients(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(N, n) block of the per-example loss gradients at the rows X (N, in)
    with labels y (N,), from one linearization of the rows as (N, 1, in).
    theta is (n,), shared by every row, or (N, n), row r's own parameters.
    The gradient of the measurement f = log softmax(logits)[y] is the
    negated block."""
    lin = _linearize(spec, theta, X[:, None, :])
    g = lin.p.copy()
    g[np.arange(len(y)), 0, y] -= 1.0
    return _backprop(spec, lin, g)


def loss_gradient(spec: ModelSpec, theta: np.ndarray, example: Example) -> ParamVector:
    """Gradient of the cross-entropy loss at one example: the one-row block."""
    g = loss_gradients(spec, theta, example.x[None, :], np.array([example.y]))[0]
    return ParamVector(g, spec.segments)


def init_params(spec: ModelSpec, rng: SeededRng, scale: float = 1.0) -> np.ndarray:
    """Random unit-scale initialization: W ~ N(0, scale^2 / fan_in), b = 0."""
    theta = np.zeros(spec.n_params)
    for (rows, (fan_out, fan_in), _), _ in spec.parts:
        theta[rows] = rng.normal(fan_out * fan_in) * (scale / math.sqrt(fan_in))
    return theta


def make_blobs(
    rng: SeededRng,
    n_examples: int,
    dim: int,
    n_classes: int,
    separation: float = 2.0,
) -> Dataset:
    """Gaussian class clusters: x = mu_y + N(0, I), ||mu_k|| ~ separation.

    Labels cycle through the classes so every class appears essentially
    equally often regardless of n_examples.
    """
    if n_examples < 1 or dim < 1 or n_classes < 2:
        raise ValueError("need n_examples >= 1, dim >= 1, n_classes >= 2")
    means = rng.normal(n_classes * dim).reshape(n_classes, dim)
    means *= separation / math.sqrt(dim)
    y = np.arange(n_examples, dtype=np.int64) % n_classes
    X = rng.normal(n_examples * dim).reshape(n_examples, dim) + means[y]
    return Dataset(X=X, y=y)


def save_dataset_csv(dataset: Dataset, path: str) -> None:
    """One row per example: feature columns then integer label."""
    dim = dataset.X.shape[1]
    header = ",".join([f"x{i}" for i in range(dim)] + ["label"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(dataset)):
            feats = ",".join(repr(float(v)) for v in dataset.X[i])
            fh.write(f"{feats},{dataset.y[i]}\n")


def load_dataset_csv(path: str) -> Dataset:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[-1] != "label":
            raise ValueError("dataset csv must end with a 'label' column")
        dim = len(header) - 1
        rows, labels = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 1:
                raise ValueError("row width does not match header")
            rows.append([float(v) for v in parts[:dim]])
            labels.append(int(parts[dim]))
    X = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("dataset features must be finite")
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError("dataset labels must fit int64") from None
    return Dataset(X=X, y=y)
