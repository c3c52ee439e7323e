"""Gauss-Newton Hessian of the cross-entropy loss as a matrix-vector oracle.

The curvature of -log softmax factors through the logits: per example the
contribution is J S J^T where J is the parameter-to-logit Jacobian and
S = diag(p) - p p^T is the softmax Hessian.  This matrix is positive
semi-definite at every parameter point, which is what makes it usable as the
metric for influence computations.  The operator below averages per-example
contributions either over the full dataset (deterministic) or over fresh
i.i.d. batches drawn with replacement (one new batch per matrix-vector call).

An HVP splits into a linearization at (theta, X), the record that
``models._linearize`` builds, and a sweep along v that reads it.  Every
operator linearizes its whole dataset once, at construction, so theta and the
dataset must not be mutated afterwards; a mini-batch call gathers its drawn
rows from that record (``models._take_rows``) and sweeps them, or, for a
small draw, gathers them from the record's centered Jacobian rows F and
forms F_b^T (F_b v) / B.

The dense readers -- ``gnh_matrix_exact``, ``gnh_trace_exact`` and the rows
F -- read each layer's Kronecker factors from one generator,
``_layer_factors``, which walks the layers from the logits down and holds
one logit delta at a time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import SeededRng
from .models import (
    Dataset,
    ModelSpec,
    _Linearization,
    _backprop,
    _forward,
    _jvp_batch,
    _linearize,
    _take_rows,
)

MAX_DENSE_PARAMS = 2000
# Rows of one linearization pass of gnh_matrix_exact and gnh_trace_exact.
_PASS_ROWS = 128
# Floats of one gnh_matrix_exact pass's per-row arrays allowed whatever n is,
# so a tiny model is not split into many short passes by the n^2 / 2 budget.
_PASS_FLOOR_FLOATS = 1 << 16
# Most floats of the centered Jacobian rows that the operators sharing one
# linearization keep: N K n for N examples, K classes and n parameters (8 MB).
_ROWS_MAX_FLOATS = 1 << 20
# Most floats B K n of a draw's gathered rows for the row path.  The row
# path's two GEMVs cost about 1 ns a float of the block, the sweep mostly a
# fixed cost per layer.  Timed per HVP on a 2-core Xeon, the two meet at
# about 2.0e4 to 2.5e4 floats on one-layer models (softmax-linear 16-5,
# 32-10, 64-3), 3.5e4 to 5.2e4 on mlp 16-64-10 and 6.5e4 on mlp 8-6-4 and
# 5-7-6-4, so 2^14 keeps the row path below every crossover measured.
_ROWS_MAX_WORK = 1 << 14


def sample_batch(dataset: Dataset, size: int, rng: SeededRng) -> np.ndarray:
    """Row indices of an i.i.d. uniform draw with replacement; duplicates are
    expected.  Shape (size,), or (R, size) for an rng of R seeds, which draws
    R batches at once."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    return rng.integers(size, len(dataset))


def _softmax_hessian_apply(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of S_b t_b = p_b * t_b - p_b (p_b . t_b) for probabilities p and
    logit vectors t, (..., B, K) each; the row sums p_b . t_b are one GEMV."""
    pt = p * t
    pt -= p * (pt @ np.ones(pt.shape[-1]))[..., None]
    return pt


def _gnh_hvp(spec: ModelSpec, lin: _Linearization, v: np.ndarray, fd_delta: float | None) -> np.ndarray:
    """Gauss-Newton HVP averaged over the linearized rows: mean_b J_b^T S_b J_b v.

    ``fd_delta=None`` takes J v in one forward-mode sweep.  A float takes the
    central difference (h(theta + fd_delta v) - h(theta - fd_delta v)) /
    (2 fd_delta) instead, at two forward passes per call; the softmax factor S
    and the backward sweep still use the linearization.  The mean's 1/B
    divides the (n,) result, not a (B, K) array.
    """
    if fd_delta is None:
        t = _jvp_batch(spec, lin, v)
    else:
        X = lin.inputs[0][..., :-1]
        h_plus, _ = _forward(spec, lin.theta + fd_delta * v, X)
        h_minus, _ = _forward(spec, lin.theta - fd_delta * v, X)
        t = (h_plus - h_minus) / (2.0 * fd_delta)
    hvp = _backprop(spec, lin, _softmax_hessian_apply(lin.p, t))
    hvp /= lin.p.shape[-2]
    return hvp


def _row_hvp(F: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Gauss-Newton HVP mean_b J_b^T S_b J_b v over the drawn rows
    ``rows`` of the centered Jacobian rows F (N, K, n) of ``_jacobian_rows``:
    F_b^T (F_b v) / B for the gathered (B K, n) block F_b, two GEMVs."""
    F_b = F.take(rows, axis=0).reshape(-1, v.size)
    hvp = F_b.dot(v).dot(F_b)
    hvp /= rows.size
    return hvp


class _SharedRows:
    """The centered Jacobian rows of one linearization record, built on the
    first read of ``F``; every operator copy that shares the record shares
    this object, so the rows are built at most once per record."""

    def __init__(self, spec: ModelSpec, lin: _Linearization):
        self.spec = spec
        self.lin = lin

    @cached_property
    def F(self) -> np.ndarray:
        return _jacobian_rows(self.spec, self.lin)


class GnhOperator:
    """Stochastic (or full-dataset) Gauss-Newton Hessian-vector products.

    Every operator linearizes its whole dataset once, at construction, so
    ``theta`` and ``dataset`` must not be mutated afterwards.  With
    ``batch_size=None``, or a batch size of at least the dataset (which is
    normalized to None), every call uses the whole dataset and the operator
    is deterministic: each ``matvec`` costs one JVP and one backward sweep.
    Otherwise the operator draws only from the stream of a ``reseeded(seed)``
    copy: each ``matvec`` of that copy draws a fresh i.i.d. batch of rows,
    gathers their layer inputs, activation derivatives and softmax
    probabilities from the record, and sweeps those rows, so repeated calls
    see independent curvature estimates whose mean is the full-dataset
    operator.  ``fd_delta`` switches the Jacobian-vector product from forward
    mode to central differences.

    A draw with ``fd_delta`` unset whose gathered rows B K n are at most
    ``_ROWS_MAX_WORK``, of a model whose N K n fits ``_ROWS_MAX_FLOATS``,
    takes the row path instead: it gathers the drawn rows of the centered
    Jacobian rows F (N, K, n), built at the first such draw, and returns
    F_b^T (F_b v) / B, two GEMVs in place of a JVP and a backward sweep, equal
    to the sweep up to the last bits.

    A full-batch ``matvec`` writes its hidden-layer intermediates into the
    record's scratch, so one caller at a time may call it on one full-batch
    operator; a mini-batch ``matvec`` gathers its rows into fresh arrays.
    Each result is a fresh array.  ``reseeded`` and ``batched`` copies share
    the record and its rows F.
    """

    def __init__(
        self,
        spec: ModelSpec,
        theta: np.ndarray,
        dataset: Dataset,
        batch_size: int | None = None,
        fd_delta: float | None = None,
    ):
        self.spec = spec
        self.dataset = dataset
        self.fd_delta = fd_delta
        self.n_params = spec.n_params
        self._set_batches(batch_size)
        if fd_delta is not None and not fd_delta > 0:
            raise ValueError("fd_delta must be positive")
        if np.shape(theta) != (spec.n_params,):
            raise ValueError("theta does not match the model spec")
        if len(dataset) < 1:
            raise ValueError("dataset is empty")
        self.theta = theta
        self.segments = spec.segments
        self._lin = _linearize(spec, theta, dataset.X)
        self._rows = _SharedRows(spec, self._lin)

    def _set_batches(self, batch_size: int | None) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.batch_size = None if batch_size is None or batch_size >= len(self.dataset) else batch_size
        self.rng = None
        # a draw whose gathered rows are few floats, of a model whose rows fit
        # the cap, takes the row path; any other draw the sweep
        row_floats = self.spec.n_classes * self.n_params
        self._by_rows = (
            self.batch_size is not None
            and self.fd_delta is None
            and self.batch_size * row_floats <= _ROWS_MAX_WORK
            and len(self.dataset) * row_floats <= _ROWS_MAX_FLOATS
        )

    def reseeded(self, seed: int) -> "GnhOperator":
        """Copy of this operator that draws its batches from a stream at
        ``seed``, sharing its linearization; the full-batch operator has no
        batch stream and returns itself."""
        if self.batch_size is None:
            return self
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, rng=SeededRng(seed))
        return twin

    def batched(self, batch_size: int) -> "GnhOperator":
        """Copy of this operator with batches of ``batch_size`` rows, as one
        built with it would be, sharing its linearization; a mini-batch copy
        has no stream until ``reseeded``."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._set_batches(batch_size)
        return twin

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_params,):
            raise ValueError(f"expected vector of length {self.n_params}")
        if self.batch_size is None:
            return _gnh_hvp(self.spec, self._lin, v, self.fd_delta)
        if self.rng is None:
            raise ValueError("a mini-batch operator draws only from a stream: call reseeded(seed) first")
        rows = sample_batch(self.dataset, self.batch_size, self.rng)
        if self._by_rows:
            return _row_hvp(self._rows.F, rows, v)
        return _gnh_hvp(self.spec, _take_rows(self._lin, rows), v, self.fd_delta)


def _write_block(H: np.ndarray, spec: ModelSpec, l: int, m: int, block: np.ndarray) -> None:
    """Write the (l, m) block, held as (fan_out_l fan_out_m) x
    ((fan_in_l + 1)(fan_in_m + 1)), into H's rows of layer l and columns of
    layer m, through strided views of H."""
    sizes = spec.layer_sizes
    block = block.reshape(sizes[l + 1], sizes[m + 1], sizes[l] + 1, sizes[m] + 1)
    block = block.transpose(0, 2, 1, 3)
    for rows_l, shape_l, cols_l in spec.parts[l]:
        for rows_m, shape_m, cols_m in spec.parts[m]:
            H[rows_l, rows_m].reshape(shape_l + shape_m)[...] = block[:, cols_l, :, cols_m]


def _layer_factors(spec: ModelSpec, lin: _Linearization):
    """Each layer's Kronecker factors at a 2-D ``lin``, last layer first: the
    triples (l, R_l 2^e, [a_l, 1] 2^-e).

    Layer l's logit Jacobian is the Kronecker product of its logit delta
    D_l = d logits / d z_l, (B, K, fan_out_l) for z_l the layer's
    pre-activation, and its augmented input [a_l, 1], the record's
    ``inputs[l]``.  With the centered factor R_l = sqrt(p) (D_l - p^T D_l),
    J_l^T (diag p - p p^T) J_m is R_l^T R_m in each row's Kronecker factors.
    Each row's pair is scaled by 2^e and 2^-e, for e the exponent of that
    row's largest |[a_l, 1]|.  Powers of two are exact, so every product of
    the two keeps its bits wherever nothing overflows or goes subnormal, and
    a huge input's outer product no longer overflows while a tiny factor's
    underflows (0 * inf).

    The walk holds one delta at a time, and each R_l is a fresh array that
    the caller may overwrite.
    """
    B, K = lin.p.shape
    sqrt_p = np.sqrt(lin.p)[:, :, None]
    delta = np.broadcast_to(np.eye(K), (B, K, K))
    for l in range(spec.n_layers - 1, -1, -1):
        r = np.subtract(delta, lin.p[:, None, :] @ delta)
        r *= sqrt_p
        _, e = np.frexp(np.max(np.abs(lin.inputs[l]), axis=1))
        yield l, np.ldexp(r, e[:, None, None], out=r), np.ldexp(lin.inputs[l], -e[:, None])
        if l > 0:
            delta = delta @ lin.layers[l][0]
            delta *= lin.derivs[l - 1][:, None, :]


def _jacobian_rows(spec: ModelSpec, lin: _Linearization) -> np.ndarray:
    """The centered Jacobian rows F_b = sqrt(p_b) (J_b - p_b^T J_b) of every
    row of a 2-D ``lin``, (B, K, n), so that J_b^T S_b J_b = F_b^T F_b.  Layer
    l's entries are the Kronecker products R_l kron [a_l, 1] of
    ``_layer_factors``, each written in place into its parameters' columns
    viewed as (fan_out, width)."""
    B, K = lin.p.shape
    F = np.empty((B, K, spec.n_params))
    for l, r, a in _layer_factors(spec, lin):
        for rows, shape, cols in spec.parts[l]:
            np.multiply(r[..., None], a[:, None, None, cols], out=F[..., rows].reshape((B, K) + shape))
    return F


def gnh_matrix_exact(spec: ModelSpec, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Dense Gauss-Newton Hessian averaged over the whole dataset.

    With the Kronecker factors R_l and [a_l, 1] of each layer's logit
    Jacobian that ``_layer_factors`` yields for a pass, the (l, m) block of
    J^T (diag p - p p^T) J is sum_b (R_l^T R_m)_b kron ([a_l, 1] [a_m, 1]^T)_b,
    so each pass adds one GEMM per layer pair l <= m, over its rows, to that
    block held as (fan_out_l fan_out_m) x ((fan_in_l + 1)(fan_in_m + 1)).
    Once after the passes each block is written into the parameter layout
    (weights row-major, then bias), each l < m block is mirrored by
    transpose and each diagonal block symmetrized, so H is exactly symmetric.

    A pass takes _PASS_ROWS rows, fewer where one row's factor products are
    so wide that a pass's per-row arrays would exceed n^2 / 2 floats, or
    _PASS_FLOOR_FLOATS where that is more: a tiny model's n^2 / 2 would
    otherwise cut its rows into many short passes.

    Desk-scale oracle: refuses models with more than MAX_DENSE_PARAMS
    parameters, where the dense matrix stops being a sensible object.
    """
    n = spec.n_params
    if n > MAX_DENSE_PARAMS:
        raise ValueError(f"dense GNH limited to {MAX_DENSE_PARAMS} parameters, got {n}")
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    sizes, L = spec.layer_sizes, spec.n_layers
    pairs = [(l, m) for l in range(L) for m in range(l, L)]
    blocks = {
        (l, m): np.zeros((sizes[l + 1] * sizes[m + 1], (sizes[l] + 1) * (sizes[m] + 1)))
        for l, m in pairs
    }
    widest = max(max(b.shape) for b in blocks.values())
    rows = max(1, min(_PASS_ROWS, max(n * n // 2, _PASS_FLOOR_FLOATS) // widest))
    for start in range(0, len(dataset), rows):
        lin = _linearize(spec, theta, dataset.X[start : start + rows])
        B = lin.p.shape[0]
        factors = {l: (r, a) for l, r, a in _layer_factors(spec, lin)}
        for l, m in pairs:
            (r_l, a_l), (r_m, a_m) = factors[l], factors[m]
            outer_r = (np.swapaxes(r_l, 1, 2) @ r_m).reshape(B, -1)
            outer_a = (a_l[:, :, None] * a_m[:, None, :]).reshape(B, -1)
            blocks[l, m] += outer_r.T @ outer_a
    H = np.empty((n, n))
    for l, m in pairs:
        _write_block(H, spec, l, m, blocks.pop((l, m)))
    for l, (_, off_l, len_l) in enumerate(spec.segments):
        seg_l = slice(off_l, off_l + len_l)
        diagonal = H[seg_l, seg_l]
        diagonal[...] = 0.5 * (diagonal + diagonal.T)
        for _, off_m, len_m in spec.segments[l + 1 :]:
            seg_m = slice(off_m, off_m + len_m)
            H[seg_m, seg_l] = H[seg_l, seg_m].T
    H /= len(dataset)
    return H


_TRACE_PASS_FLOATS = 1 << 22  # floats of one pass's centered factors in gnh_trace_exact


def gnh_trace_exact(spec: ModelSpec, theta: np.ndarray, dataset: Dataset) -> float:
    """Tr(H) of the dense Gauss-Newton Hessian, without forming H.

    Layer l's diagonal block is sum_b (R_l^T R_l)_b kron ([a_l, 1] [a_l, 1]^T)_b
    (see ``gnh_matrix_exact``), and the trace of a Kronecker product is the
    product of the traces, so
    Tr(H) = (1/N) sum_b sum_l ||R_{l,b}||_F^2 (||a_{l,b}||^2 + 1).
    A pass takes _PASS_ROWS rows, fewer where one row's factors (n_classes
    times the widest layer) are so wide that a pass would exceed
    _TRACE_PASS_FLOATS.
    No array grows with the parameter count squared, so there is no
    MAX_DENSE_PARAMS limit here.
    """
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    per_row = spec.n_classes * max(spec.layer_sizes[1:])
    rows = max(1, min(_PASS_ROWS, _TRACE_PASS_FLOATS // per_row))
    total = 0.0
    for start in range(0, len(dataset), rows):
        lin = _linearize(spec, theta, dataset.X[start : start + rows])
        terms = [0.0] * spec.n_layers
        for l, r, augmented in _layer_factors(spec, lin):
            # ||a||^2 + 1 in that order, the constant 1 scaled with a
            a, one = augmented[:, :-1], augmented[:, -1]
            terms[l] = float(np.sum(np.square(r, out=r), axis=(1, 2)) @ (np.sum(a * a, axis=1) + one * one))
        for term in terms:  # in layer order 0 ... L - 1, which fixes the sum's rounding
            total += term
    return total / len(dataset)
