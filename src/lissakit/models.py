"""Small classification models with exact gradients and directional logit
derivatives.

Two architectures cover the validation needs: a softmax-linear model (logits
affine in the parameters, so curvature statements have closed forms) and a
fully-connected MLP with tanh or relu hidden units.  Parameters live in a
single flat float64 vector with per-layer segmentation so curvature code can
address layers individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    @classmethod
    def zeros(cls, spec: ModelSpec) -> "ParamVector":
        return cls(np.zeros(spec.n_params), spec.segments)


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


@dataclass(frozen=True)
class LogitOutput:
    logits: np.ndarray
    softmax: np.ndarray


def _unpack(spec: ModelSpec, theta: np.ndarray):
    """Views of the flat vector as per-layer (W, b) pairs; no copies."""
    layers = []
    for l, (name, offset, length) in enumerate(spec.segments):
        fan_in, fan_out = spec.layer_sizes[l], spec.layer_sizes[l + 1]
        w = theta[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        b = theta[offset + fan_out * fan_in : offset + length]
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
    """Batched forward pass; returns logits (B, K) and per-layer (input,
    pre-activation) caches.  Each hidden layer's activation is the next input."""
    layers = _unpack(spec, theta)
    a = X
    caches = []
    for l, (w, b) in enumerate(layers):
        z = a @ w.T + b
        caches.append((a, z))
        a = _act(spec, z) if l < len(layers) - 1 else z
    return a, caches


def _backprop(spec: ModelSpec, theta: np.ndarray, G: np.ndarray, caches) -> np.ndarray:
    """Gradient of sum_b <G[b], logits(x_b)> with respect to theta."""
    layers = _unpack(spec, theta)
    grad = np.zeros(spec.n_params)
    delta = G
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        a_prev, _ = caches[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape
        grad[offset : offset + fan_out * fan_in] = (delta.T @ a_prev).ravel()
        grad[offset + fan_out * fan_in : offset + length] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ w) * _act_deriv(spec, a_prev)
    return grad


def _jvp_batch(spec: ModelSpec, theta: np.ndarray, u: np.ndarray, caches) -> np.ndarray:
    """Directional derivative of logits along parameter direction u, batched."""
    layers = _unpack(spec, theta)
    du_layers = _unpack(spec, u)
    for l, ((w, _), (dw, db)) in enumerate(zip(layers, du_layers)):
        a, _ = caches[l]
        if l == 0:
            dz = a @ dw.T + db
        else:
            da = _act_deriv(spec, a) * dz
            dz = a @ dw.T + da @ w.T + db
    return dz


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward_logits(spec: ModelSpec, theta: ParamVector, x: np.ndarray) -> LogitOutput:
    """Logits and softmax probabilities for a single input."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.input_dim,):
        raise ValueError(f"expected input of shape ({spec.input_dim},)")
    h, _ = _forward(spec, theta.values, x[None, :])
    return LogitOutput(logits=h[0], softmax=_softmax(h[0]))


def nll_loss(spec: ModelSpec, theta: ParamVector, x: np.ndarray, y: int) -> float:
    """Cross-entropy loss -log softmax(logits)[y]."""
    h, _ = _forward(spec, theta.values, np.asarray(x, dtype=np.float64)[None, :])
    return _nll_from_logits(h, np.array([y]))[0]


def _nll_from_logits(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    shifted = h - h.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return lse - shifted[np.arange(h.shape[0]), y]


def loss_gradient(spec: ModelSpec, theta: ParamVector, example: Example) -> ParamVector:
    """Gradient of the cross-entropy loss at one example."""
    X = example.x[None, :]
    h, caches = _forward(spec, theta.values, X)
    g = _softmax(h)
    g[0, example.y] -= 1.0
    return theta.like(_backprop(spec, theta.values, g, caches))


def test_gradient(spec: ModelSpec, theta: ParamVector, example: Example) -> ParamVector:
    """Gradient of the measurement f = log softmax(logits)[y] (= -loss)."""
    g = loss_gradient(spec, theta, example)
    return theta.like(-g.values)


def logit_jvp(
    spec: ModelSpec,
    theta: ParamVector,
    x: np.ndarray,
    u: np.ndarray,
    mode: str = "exact",
    delta: float = 0.01,
) -> np.ndarray:
    """Jacobian-vector product of the logits with a parameter direction.

    ``exact`` propagates the tangent through the network in one forward-mode
    sweep; ``fd`` uses the central difference (h(theta + delta u) -
    h(theta - delta u)) / (2 delta).
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape != (spec.n_params,):
        raise ValueError("direction has wrong length")
    if mode == "exact":
        _, caches = _forward(spec, theta.values, x[None, :])
        return _jvp_batch(spec, theta.values, u, caches)[0]
    if mode == "fd":
        if delta <= 0:
            raise ValueError("delta must be positive")
        h_plus, _ = _forward(spec, theta.values + delta * u, x[None, :])
        h_minus, _ = _forward(spec, theta.values - delta * u, x[None, :])
        return (h_plus[0] - h_minus[0]) / (2.0 * delta)
    raise ValueError(f"unknown jvp mode {mode!r}")


def preactivation_margin(spec: ModelSpec, theta: ParamVector, x: np.ndarray) -> float:
    """Smallest |pre-activation| over hidden units (inf for linear models).

    Relu directional checks are only meaningful away from the kink; callers
    can re-sample inputs until this margin clears a threshold.
    """
    if spec.n_layers == 1:
        return math.inf
    _, caches = _forward(spec, theta.values, np.asarray(x, dtype=np.float64)[None, :])
    margins = [float(np.min(np.abs(z))) for _, z in caches[:-1]]
    return min(margins)


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
    return Dataset(X=np.array(rows, dtype=np.float64), y=np.array(labels, dtype=np.int64))
