"""Small classification models with exact gradients.

Two architectures cover the validation needs: a softmax-linear model (logits
affine in the parameters, so curvature statements have closed forms) and a
fully-connected MLP with tanh or relu hidden units.  Parameters live in a
single flat float64 vector with per-layer segmentation so curvature code can
address layers individually.  ``_linearize`` runs one forward pass and keeps
all that the derivative sweeps at that point read in one ``_Linearization``
record; ``_backprop``, ``_jvp_batch`` and ``_logit_jacobians`` take the record,
so none of them unpacks theta or pairs the caches of two passes.  The record
holds views of theta and of the inputs, which must not be mutated after.

The record also owns scratch for the hidden-layer intermediates of its sweeps,
so no sweep allocates an array the size of a hidden layer: it allocates only
logit-sized and parameter-sized arrays, and returns a fresh one.  A record is
therefore swept by one caller at a time: two threads sweeping one record would
overwrite each other's intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    def segments(self) -> tuple[tuple[str, int, int], ...]:
        """Per-layer (name, offset, length) for weights-plus-bias blocks."""
        segs = []
        offset = 0
        for l in range(self.n_layers):
            fan_in, fan_out = self.layer_sizes[l], self.layer_sizes[l + 1]
            length = fan_out * fan_in + fan_out
            segs.append((f"layer{l}", offset, length))
            offset += length
        return tuple(segs)

    @property
    def n_params(self) -> int:
        name, offset, length = self.segments[-1]
        return offset + length


@dataclass
class ParamVector:
    """Flat parameter (or parameter-space) vector with layer segmentation."""

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

    def like(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=np.float64), self.segments)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.segments)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _vector(x) -> np.ndarray:
    """Flat float64 values of a ParamVector or any array-like."""
    values = x.values if isinstance(x, ParamVector) else x
    return np.asarray(values, dtype=np.float64).ravel()


@dataclass(frozen=True)
class Example:
    x: np.ndarray
    y: int
    id: int


@dataclass
class Dataset:
    """Ordered classification examples held as arrays."""

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray = field(default=None)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ValueError("X must be (n, dim) with one label per row")
        if self.ids is None:
            self.ids = np.arange(self.X.shape[0], dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
            if self.ids.size != self.X.shape[0]:
                raise ValueError("one id per example required")

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> Example:
        return Example(x=self.X[i], y=int(self.y[i]), id=int(self.ids[i]))


def _unpack(spec: ModelSpec, theta: np.ndarray):
    """Views of the flat vector as per-layer (W, b) pairs; no copies.  A
    leading chain axis on theta, (R, n), gives (R, out, in) and (R, out)."""
    lead = theta.shape[:-1]
    layers = []
    for l, (name, offset, length) in enumerate(spec.segments):
        fan_in, fan_out = spec.layer_sizes[l], spec.layer_sizes[l + 1]
        w = theta[..., offset : offset + fan_out * fan_in].reshape(lead + (fan_out, fan_in))
        b = theta[..., offset + fan_out * fan_in : offset + length]
        layers.append((w, b))
    return layers


def _act(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if spec.activation == "tanh" else np.maximum(z, 0.0)


def _act_deriv(spec: ModelSpec, a: np.ndarray) -> np.ndarray:
    """Activation derivative read off the activation a = act(z) itself."""
    if spec.activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _forward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Batched forward pass; returns logits (..., B, K) and the per-layer
    caches, the input of each layer.  Each hidden layer's activation is the
    next input.  theta (n,) or (R, n) and X (B, in) or (R, B, in) broadcast
    over their leading axes; a 2-D X against a 1-D theta runs plain matmuls."""
    layers = _unpack(spec, theta)
    a = X
    caches = []
    for l, (w, b) in enumerate(layers):
        caches.append(a)
        z = a @ np.swapaxes(w, -1, -2) + b[..., None, :]
        a = _act(spec, z) if l < len(layers) - 1 else z
    return a, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _Linearization(NamedTuple):
    """One forward pass at (theta, X) and what every sweep there reads from it:
    ``layers`` holds theta's per-layer (W, b) views, ``inputs`` each layer's
    input (``inputs[0]`` is X), ``derivs`` each hidden layer's activation
    derivative (entry l - 1 belongs to ``inputs[l]``) and ``p`` the softmax
    probabilities.  ``work`` is the sweeps' scratch: two buffers per hidden
    layer, each shaped like that layer's activation, which every JVP and
    backward sweep at this record overwrites; so one caller at a time sweeps
    a record."""

    theta: np.ndarray
    layers: list
    inputs: list
    derivs: list
    p: np.ndarray
    work: list


def _linearize(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> _Linearization:
    """Run the forward pass at (theta, X) and keep what the sweeps read."""
    h, inputs = _forward(spec, theta, X)
    derivs = [_act_deriv(spec, a) for a in inputs[1:]]
    work = [(np.empty_like(a), np.empty_like(a)) for a in inputs[1:]]
    return _Linearization(theta, _unpack(spec, theta), inputs, derivs, _softmax(h), work)


def _backprop(spec: ModelSpec, lin: _Linearization, G: np.ndarray) -> np.ndarray:
    """Gradient of sum_b <G[b], logits(x_b)> with respect to theta at ``lin``;
    (R, n) for a linearization with a leading chain axis.  Each hidden delta
    is formed in ``lin.work``; the gradient is a fresh array."""
    lead = G.shape[:-2]
    grad = np.zeros(lead + (spec.n_params,))
    delta = G
    for l in range(len(lin.layers) - 1, -1, -1):
        w, _ = lin.layers[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape[-2:]
        weights = np.swapaxes(delta, -1, -2) @ lin.inputs[l]
        grad[..., offset : offset + fan_out * fan_in] = weights.reshape(lead + (-1,))
        grad[..., offset + fan_out * fan_in : offset + length] = delta.sum(axis=-2)
        if l > 0:
            delta = np.matmul(delta, w, out=lin.work[l - 1][0])
            delta *= lin.derivs[l - 1]
    return grad


def _jvp_batch(spec: ModelSpec, lin: _Linearization, u: np.ndarray) -> np.ndarray:
    """Directional derivative of logits along parameter direction u at ``lin``.
    Each hidden layer's tangent is formed in ``lin.work``; the (B, K) logit
    tangent is a fresh array."""
    da = None
    for l, ((w, _), (dw, db)) in enumerate(zip(lin.layers, _unpack(spec, u))):
        a = lin.inputs[l]
        if l == len(lin.layers) - 1:
            return a @ dw.T + db if da is None else a @ dw.T + da @ w.T + db
        dz, scratch = lin.work[l]
        np.matmul(a, dw.T, out=dz)
        if da is not None:
            dz += np.matmul(da, w.T, out=scratch)
        dz += db
        dz *= lin.derivs[l]
        da = dz


def _logit_jacobians(spec: ModelSpec, lin: _Linearization) -> np.ndarray:
    """Per-example logit Jacobians, shape (B, K, n_params), at ``lin``."""
    B, K = lin.inputs[0].shape[0], spec.n_classes
    jac = np.zeros((B, K, spec.n_params))
    delta = np.broadcast_to(np.eye(K), (B, K, K)).copy()
    for l in range(len(lin.layers) - 1, -1, -1):
        w, _ = lin.layers[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape
        jac[:, :, offset : offset + fan_out * fan_in] = np.einsum(
            "bko,bi->bkoi", delta, lin.inputs[l]
        ).reshape(B, K, fan_out * fan_in)
        jac[:, :, offset + fan_out * fan_in : offset + length] = delta
        if l > 0:
            delta = (delta @ w) * lin.derivs[l - 1][:, None, :]
    return jac


def nll_loss(spec: ModelSpec, theta: ParamVector, x: np.ndarray, y: int) -> float:
    """Cross-entropy loss -log softmax(logits)[y]."""
    h, _ = _forward(spec, theta.values, np.asarray(x, dtype=np.float64)[None, :])
    return _nll_from_logits(h, np.array([y]))[0]


def _nll_from_logits(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of logits h (..., K) at labels y, which
    broadcasts against h's leading axes."""
    shifted = h - h.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    labels = np.broadcast_to(y, h.shape[:-1])[..., None]
    return lse - np.take_along_axis(shifted, labels, axis=-1)[..., 0]


def _loss_gradient_rows(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the summed cross-entropy over rows X (..., B, in) with
    labels y (..., B); (R, n) for an (R, n) block of chains."""
    lin = _linearize(spec, theta, X)
    g = lin.p.copy()
    g[(*np.indices(y.shape, sparse=True), y)] -= 1.0
    return _backprop(spec, lin, g)


def loss_gradient(spec: ModelSpec, theta: ParamVector, example: Example) -> ParamVector:
    """Gradient of the cross-entropy loss at one example."""
    return theta.like(
        _loss_gradient_rows(spec, theta.values, example.x[None, :], np.array([example.y]))
    )


def test_gradient(spec: ModelSpec, theta: ParamVector, example: Example) -> ParamVector:
    """Gradient of the measurement f = log softmax(logits)[y] (= -loss)."""
    g = loss_gradient(spec, theta, example)
    return theta.like(-g.values)


def init_params(spec: ModelSpec, rng: SeededRng, scale: float = 1.0) -> ParamVector:
    """Random unit-scale initialization: W ~ N(0, scale^2 / fan_in), b = 0."""
    theta = np.zeros(spec.n_params)
    for l, (name, offset, length) in enumerate(spec.segments):
        fan_in, fan_out = spec.layer_sizes[l], spec.layer_sizes[l + 1]
        w = rng.normal(fan_out * fan_in) * (scale / math.sqrt(fan_in))
        theta[offset : offset + fan_out * fan_in] = w
    return ParamVector(theta, spec.segments)


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
    return Dataset(X=X, y=np.array(labels, dtype=np.int64))
