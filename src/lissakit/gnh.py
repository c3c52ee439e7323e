"""Gauss-Newton Hessian of the cross-entropy loss as a matrix-vector oracle.

The curvature of -log softmax factors through the logits: per example the
contribution is J S J^T where J is the parameter-to-logit Jacobian and
S = diag(p) - p p^T is the softmax Hessian.  This matrix is positive
semi-definite at every parameter point, which is what makes it usable as the
metric for influence computations.  The operator below averages per-example
contributions either over the full dataset (deterministic) or over fresh
i.i.d. batches drawn with replacement (one new batch per matrix-vector call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng
from .models import (
    Dataset,
    ModelSpec,
    ParamVector,
    _backprop,
    _forward,
    _jvp_batch,
    _softmax,
    _unpack,
    _act_deriv,
)

MAX_DENSE_PARAMS = 2000


def softmax_hessian(logits: np.ndarray) -> np.ndarray:
    """Hessian of -log softmax at the given logits: diag(p) - p p^T."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if logits.size < 2:
        raise ValueError("need at least two logits")
    p = _softmax(logits[None, :])[0]
    return np.diag(p) - np.outer(p, p)


@dataclass(frozen=True)
class Batch:
    """Examples drawn for one stochastic curvature evaluation."""

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.ids.size


def sample_batch(dataset: Dataset, size: int, rng: SeededRng) -> Batch:
    """i.i.d. uniform draw with replacement; duplicates are expected."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    idx = rng.integers(size, len(dataset))
    return Batch(ids=dataset.ids[idx], X=dataset.X[idx], y=dataset.y[idx])


def _softmax_hessian_apply(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of S_b t_b for batched probabilities p and logit vectors t."""
    return p * t - p * np.sum(p * t, axis=1, keepdims=True)


def _gnh_hvp(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, v: np.ndarray, fd_delta: float | None) -> np.ndarray:
    """Gauss-Newton HVP averaged over the rows of X: mean_b J_b^T S_b J_b v.

    ``fd_delta=None`` takes J v in one forward-mode sweep.  A float takes the
    central difference (h(theta + fd_delta v) - h(theta - fd_delta v)) /
    (2 fd_delta) instead, at two more forward passes; the softmax factor S and
    the backward sweep still use the unperturbed parameters.
    """
    h, caches = _forward(spec, theta, X)
    if fd_delta is None:
        t = _jvp_batch(spec, theta, v, caches)
    else:
        h_plus, _ = _forward(spec, theta + fd_delta * v, X)
        h_minus, _ = _forward(spec, theta - fd_delta * v, X)
        t = (h_plus - h_minus) / (2.0 * fd_delta)
    w = _softmax_hessian_apply(_softmax(h), t)
    return _backprop(spec, theta, w / X.shape[0], caches)


class GnhOperator:
    """Stochastic (or full-dataset) Gauss-Newton Hessian-vector products.

    With ``batch_size=None`` every call uses the whole dataset and the
    operator is deterministic.  Otherwise each ``matvec`` draws a fresh
    i.i.d. batch from ``rng``, so repeated calls see independent curvature
    estimates whose mean is the full-dataset operator.  ``fd_delta`` switches
    the Jacobian-vector product from forward mode to central differences.
    """

    def __init__(
        self,
        spec: ModelSpec,
        theta: ParamVector,
        dataset: Dataset,
        batch_size: int | None = None,
        rng: SeededRng | None = None,
        fd_delta: float | None = None,
    ):
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError("batch size must be >= 1")
            if rng is None:
                raise ValueError("stochastic operator needs an rng")
        if fd_delta is not None and not fd_delta > 0:
            raise ValueError("fd_delta must be positive")
        if theta.values.size != spec.n_params:
            raise ValueError("theta does not match the model spec")
        self.spec = spec
        self.theta = theta
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng
        self.fd_delta = fd_delta
        self.n_params = spec.n_params
        self.segments = spec.segments

    def reseeded(self, seed: int) -> "GnhOperator":
        """Copy of this operator with its batch stream reset to ``seed``."""
        return GnhOperator(
            self.spec,
            self.theta,
            self.dataset,
            batch_size=self.batch_size,
            rng=None if self.batch_size is None else SeededRng(seed),
            fd_delta=self.fd_delta,
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_params,):
            raise ValueError(f"expected vector of length {self.n_params}")
        if self.batch_size is None:
            X = self.dataset.X
        else:
            X = sample_batch(self.dataset, self.batch_size, self.rng).X
        return _gnh_hvp(self.spec, self.theta.values, X, v, self.fd_delta)


def _logit_jacobians(spec: ModelSpec, theta: np.ndarray, caches) -> np.ndarray:
    """Per-example logit Jacobians, shape (B, K, n_params), from the caches of
    one forward pass."""
    layers = _unpack(spec, theta)
    B, K = caches[0][0].shape[0], spec.n_classes
    jac = np.zeros((B, K, spec.n_params))
    delta = np.broadcast_to(np.eye(K), (B, K, K)).copy()
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        a_prev, _ = caches[l]
        name, offset, length = spec.segments[l]
        fan_out, fan_in = w.shape
        jac[:, :, offset : offset + fan_out * fan_in] = np.einsum(
            "bko,bi->bkoi", delta, a_prev
        ).reshape(B, K, fan_out * fan_in)
        jac[:, :, offset + fan_out * fan_in : offset + length] = delta
        if l > 0:
            delta = (delta @ w) * _act_deriv(spec, a_prev)[:, None, :]
    return jac


def _softmax_hessian_factor(p: np.ndarray) -> np.ndarray:
    """Per-example factor F with S = F F^T, batched: F = diag(q)(I - q q^T),
    q = sqrt(p).  Uses that q has unit norm, so I - q q^T is a projector."""
    B, K = p.shape
    q = np.sqrt(p)
    eye = np.broadcast_to(np.eye(K), (B, K, K))
    return q[:, :, None] * (eye - q[:, :, None] * q[:, None, :])


def gnh_matrix_exact(
    spec: ModelSpec, theta: ParamVector, dataset: Dataset, chunk: int = 128
) -> np.ndarray:
    """Dense Gauss-Newton Hessian averaged over the whole dataset.

    Desk-scale oracle: refuses models with more than MAX_DENSE_PARAMS
    parameters, where the dense matrix stops being a sensible object.
    """
    n = spec.n_params
    if n > MAX_DENSE_PARAMS:
        raise ValueError(f"dense GNH limited to {MAX_DENSE_PARAMS} parameters, got {n}")
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    H = np.zeros((n, n))
    for start in range(0, len(dataset), chunk):
        X = dataset.X[start : start + chunk]
        h, caches = _forward(spec, theta.values, X)
        jac = _logit_jacobians(spec, theta.values, caches)
        factor = _softmax_hessian_factor(_softmax(h))
        # columns of M_b = J_b^T F_b, flattened across the chunk
        m = np.einsum("bkn,bkj->bnj", jac, factor)
        flat = m.transpose(1, 0, 2).reshape(n, -1)
        H += flat @ flat.T
    return H / len(dataset)
