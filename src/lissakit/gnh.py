"""Gauss-Newton Hessian of the cross-entropy loss as a matrix-vector oracle.

The curvature of -log softmax factors through the logits: per example the
contribution is J S J^T where J is the parameter-to-logit Jacobian and
S = diag(p) - p p^T is the softmax Hessian.  This matrix is positive
semi-definite at every parameter point, which is what makes it usable as the
metric for influence computations.  The operator below averages per-example
contributions either over the full dataset (deterministic) or over fresh
i.i.d. batches drawn with replacement (one new batch per matrix-vector call).

An HVP splits into a linearization at (theta, X), the record that
``models._linearize`` builds, and a sweep along v that reads it.  The
full-batch operator linearizes once at construction, so theta and the dataset
must not be mutated afterwards; the mini-batch operator linearizes each drawn
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng
from .models import (
    Dataset,
    ModelSpec,
    ParamVector,
    _Linearization,
    _backprop,
    _forward,
    _jvp_batch,
    _linearize,
    _logit_jacobians,
    _softmax,
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
    """i.i.d. uniform draw with replacement; duplicates are expected.  An rng
    of R seeds draws R batches at once: ids and y (R, size), X (R, size, in)."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    idx = rng.integers(size, len(dataset))
    return Batch(ids=dataset.ids[idx], X=dataset.X[idx], y=dataset.y[idx])


def _softmax_hessian_apply(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of S_b t_b for batched probabilities p and logit vectors t."""
    return p * t - p * np.sum(p * t, axis=1, keepdims=True)


def _gnh_hvp(spec: ModelSpec, lin: _Linearization, v: np.ndarray, fd_delta: float | None) -> np.ndarray:
    """Gauss-Newton HVP averaged over the linearized rows: mean_b J_b^T S_b J_b v.

    ``fd_delta=None`` takes J v in one forward-mode sweep.  A float takes the
    central difference (h(theta + fd_delta v) - h(theta - fd_delta v)) /
    (2 fd_delta) instead, at two forward passes per call; the softmax factor S
    and the backward sweep still use the linearization.
    """
    X = lin.inputs[0]
    if fd_delta is None:
        t = _jvp_batch(spec, lin, v)
    else:
        h_plus, _ = _forward(spec, lin.theta + fd_delta * v, X)
        h_minus, _ = _forward(spec, lin.theta - fd_delta * v, X)
        t = (h_plus - h_minus) / (2.0 * fd_delta)
    w = _softmax_hessian_apply(lin.p, t)
    return _backprop(spec, lin, w / X.shape[0])


class GnhOperator:
    """Stochastic (or full-dataset) Gauss-Newton Hessian-vector products.

    With ``batch_size=None`` every call uses the whole dataset and the
    operator is deterministic: it linearizes once, at construction, so each
    ``matvec`` costs one JVP and one backward sweep, and ``theta`` and
    ``dataset`` must not be mutated afterwards.  Otherwise each ``matvec``
    draws a fresh i.i.d. batch from ``rng`` and linearizes it, so repeated
    calls see independent curvature estimates whose mean is the full-dataset
    operator.  ``fd_delta`` switches the Jacobian-vector product from forward
    mode to central differences.

    A linearization record owns the scratch its sweeps write their hidden-layer
    intermediates into, so one caller at a time may call ``matvec`` on one
    operator; each result is a fresh array.  Commands build their full-batch
    operators themselves, and ``map_items`` callers build one per item, so no
    operator is shared between threads.
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
        self._full_lin = _linearize(spec, theta.values, dataset.X) if batch_size is None else None

    def reseeded(self, seed: int) -> "GnhOperator":
        """Copy of this operator with its batch stream reset to ``seed``; the
        full-batch operator has no batch stream and returns itself."""
        if self.batch_size is None:
            return self
        return GnhOperator(
            self.spec,
            self.theta,
            self.dataset,
            batch_size=self.batch_size,
            rng=SeededRng(seed),
            fd_delta=self.fd_delta,
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_params,):
            raise ValueError(f"expected vector of length {self.n_params}")
        lin = self._full_lin
        if lin is None:
            X = sample_batch(self.dataset, self.batch_size, self.rng).X
            lin = _linearize(self.spec, self.theta.values, X)
        return _gnh_hvp(self.spec, lin, v, self.fd_delta)


def gnh_matrix_exact(
    spec: ModelSpec, theta: ParamVector, dataset: Dataset, chunk: int = 128
) -> np.ndarray:
    """Dense Gauss-Newton Hessian averaged over the whole dataset.

    Each example contributes its centered Jacobian rows sqrt(p_k) (J_k - p^T J),
    since sum_k p_k (J_k - p^T J)^T (J_k - p^T J) = J^T (diag p - p p^T) J; one
    product ``rows.T @ rows`` per chunk (a BLAS syrk) keeps H exactly symmetric.

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
        lin = _linearize(spec, theta.values, dataset.X[start : start + chunk])
        rows = _logit_jacobians(spec, lin)
        rows -= lin.p[:, None, :] @ rows
        rows *= np.sqrt(lin.p)[:, :, None]
        rows = rows.reshape(-1, n)
        H += rows.T @ rows
    return H / len(dataset)
