"""Randomized spectral statistics of a curvature operator.

Everything here touches the operator only through matrix-vector products,
except the reference Tr(H) of condition C1, which is the exact closed-form
trace of ``gnh.gnh_trace_exact``, read from the per-layer factors of H; no
dense matrix is built:

* per-parameter trace and squared Frobenius norm via Gaussian probes with
  entry variance 1/N, so the probe estimates Tr(H)/N directly;
* a random-projection sketch Phi H Phi^T whose shift-corrected top
  eigenvalues approximate the leading eigenvalues of H;
* step size / batch size / iteration count recommendations for the
  stochastic iHVP solver, derived from those statistics;
* an empirical check of the batch-noise bound E[Hb^2] - H^2 <= (C/|B|) Tr(H) H
  that underlies the batch size rule.

Sketch rows are regenerated on demand from ``(seed, layer, row)`` substreams,
so the projection matrix is never materialized and any row can be replayed
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MeanSe, SeededRng, derive_seed, sym_eig
from .gnh import GnhOperator, gnh_trace_exact
from .models import Dataset, ModelSpec


@dataclass(frozen=True)
class SketchConfig:
    """Random-projection setup: block dimension, seed, and layout.

    ``summed`` projects the whole parameter vector to dimension d.
    ``concatenated`` keeps one d-dimensional projection per layer and stacks
    them, giving total dimension L*d from the same per-layer row streams.
    """

    d: int
    seed: int
    layout: str = "summed"

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("sketch dimension must be >= 2")
        if self.layout not in ("summed", "concatenated"):
            raise ValueError(f"unknown sketch layout {self.layout!r}")


@dataclass(frozen=True)
class HyperParams:
    """Recommended stochastic-solver settings.

    ``t_steps`` is None when damping is zero: the contraction argument gives
    no finite step count in that case.
    """

    eta: float
    batch_size_min: int
    t_steps: int | None


def _probe_loop(n: int, n_probes: int, rng: SeededRng, sample) -> MeanSe:
    """Mean and standard error of ``sample(g)`` over Gaussian probes g ~ N(0, I/N)."""
    if n_probes < 2:
        raise ValueError("need at least two probes")
    samples = np.empty(n_probes)
    for i in range(n_probes):
        samples[i] = sample(rng.normal(n) * math.sqrt(1.0 / n))
    return MeanSe.from_samples(samples)


def estimate_trace(op, n_probes: int, rng: SeededRng) -> MeanSe:
    """Per-parameter trace Tr(H)/N from Gaussian probes g ~ N(0, I/N).

    Each probe draws a fresh stochastic operator evaluation, so with batched
    operators the estimate covers both probe and batch randomness.
    """
    return _probe_loop(op.n_params, n_probes, rng, lambda g: float(g @ op.matvec(g)))


def estimate_frobenius(op, n_probes: int, rng: SeededRng) -> MeanSe:
    """Per-parameter squared Frobenius norm Tr(H^2)/N.

    Uses (Hb g)^T (Hb' g) with two independent operator draws per probe so
    the batch noise cancels in expectation.
    """
    return _probe_loop(
        op.n_params, n_probes, rng, lambda g: float(op.matvec(g) @ op.matvec(g))
    )


_VAR_KEY_LAYER = 1  # substream namespace: (layer key, row key) per sketch row


def _probe_row(cfg: SketchConfig, layer: int, row: int, length: int) -> np.ndarray:
    """Row ``row`` of the layer's projection block, entries N(0, 1/d)."""
    seed = derive_seed(cfg.seed, _VAR_KEY_LAYER + layer, row)
    return SeededRng(seed).normal(length) * (1.0 / math.sqrt(cfg.d))


def sketch_size(op, cfg: SketchConfig) -> int:
    """Number of sketch columns: d summed, d per layer concatenated."""
    return cfg.d if cfg.layout == "summed" else cfg.d * len(op.segments)


def _probe_vector(op, cfg: SketchConfig, index: int) -> np.ndarray:
    """Probe ``index`` as a full-length parameter-space vector."""
    if not 0 <= index < sketch_size(op, cfg):
        raise ValueError("probe index out of range")
    v = np.zeros(op.n_params)
    if cfg.layout == "summed":
        for layer, (name, offset, length) in enumerate(op.segments):
            v[offset : offset + length] = _probe_row(cfg, layer, index, length)
    else:
        layer, row = divmod(index, cfg.d)
        name, offset, length = op.segments[layer]
        v[offset : offset + length] = _probe_row(cfg, layer, row, length)
    return v


_ROW_BLOCK = 64  # probe rows stacked per projection-back product


def sketch_operator(op, cfg: SketchConfig) -> np.ndarray:
    """Random sketch Phi H Phi^T computed column-by-column.

    Each probe column is pushed through the operator, then projected back
    with the same row streams in blocks, so Phi itself is never held in
    memory.
    """
    total = sketch_size(op, cfg)
    y = np.empty((op.n_params, total))
    for j in range(total):
        y[:, j] = op.matvec(_probe_vector(op, cfg, j))
    sketch = np.empty((total, total))
    for start in range(0, total, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, total)
        rows = np.vstack([_probe_vector(op, cfg, i) for i in range(start, stop)])
        sketch[start:stop, :] = rows @ y
    return (sketch + sketch.T) / 2.0


def top_eigenvalue_from_sketch(sketch: np.ndarray) -> float:
    """Shift-corrected top eigenvalue of a sketch.

    The random projection inflates every eigenvalue by roughly Tr(H)/d; the
    mean sketch eigenvalue tracks that inflation, so subtracting
    trace(sketch)/d recenters the bulk at zero and leaves outliers near the
    true leading eigenvalues.
    """
    sketch = np.asarray(sketch, dtype=np.float64)
    shift = float(np.trace(sketch)) / sketch.shape[0]
    return float(sym_eig(sketch).values[0] - shift)


def step_size(lambda_max: float, lambda_damp: float) -> float:
    """eta = 1/(lambda_max + lambda), the largest step the contraction bound allows."""
    if not lambda_max + lambda_damp > 0:
        raise ValueError(f"step size needs lambda_max + lambda_damp > 0, got {lambda_max + lambda_damp!r}")
    return 1.0 / (lambda_max + lambda_damp)


def step_count(eta: float, lambda_damp: float, t_multiplier: float) -> int | None:
    """T = mult/(lambda * eta) steps, a multiple of the contraction time constant.

    None when damping is zero: the contraction argument gives no finite count.
    Raises ValueError when lambda * eta underflows to 0 or the count overflows.
    """
    if lambda_damp <= 0:
        return None
    rate = lambda_damp * eta
    steps = t_multiplier / rate if rate > 0 else math.inf
    if not math.isfinite(steps):
        raise ValueError(f"eta = {eta!r} and lambda_damp = {lambda_damp!r} give no finite step count")
    return max(1, math.ceil(steps))


def recommend_hyperparams(
    trace: float,
    lambda_max: float,
    lambda_damp: float,
    c_const: float = 2.0,
    t_multiplier: float = 2.0,
) -> HyperParams:
    """Solver settings from the total trace Tr(H) and the top eigenvalue.

    Step size saturates the contraction bound: eta = 1/(lambda_max + lambda).
    The batch size keeps the stochastic curvature noise from breaking
    second-moment convergence: |B| >= C * Tr(H) / lambda_max.  The step count
    runs a fixed multiple of the contraction time constant 1/(lambda * eta).
    Raises ValueError on a non-positive input or a non-finite batch size.
    """
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    if trace <= 0:
        raise ValueError("trace estimate must be positive")
    if lambda_damp < 0:
        raise ValueError("damping must be non-negative")
    if c_const <= 0 or t_multiplier <= 0:
        raise ValueError("c_const and t_multiplier must be positive")
    eta = step_size(lambda_max, lambda_damp)
    batch = c_const * trace / lambda_max
    if not math.isfinite(batch):
        raise ValueError(f"c_const * trace / lambda_max = {batch!r} gives no finite batch_size")
    return HyperParams(
        eta=eta,
        batch_size_min=max(1, math.ceil(batch)),
        t_steps=step_count(eta, lambda_damp, t_multiplier),
    )


def condition_c1_lhs(op_batch, op_full, n_probes: int, rng: SeededRng) -> MeanSe:
    """Probe estimate of Tr(E[Hb^2] - H^2)/N.

    Each probe compares ||Hb g||^2 (fresh stochastic draw) against ||H g||^2
    (reference operator) for the same Gaussian probe g ~ N(0, I/N).
    """
    if op_full.n_params != op_batch.n_params:
        raise ValueError("operators act on different parameter spaces")

    def sample(g):
        hb = op_batch.matvec(g)
        hf = op_full.matvec(g)
        return float(hb @ hb) - float(hf @ hf)

    return _probe_loop(op_batch.n_params, n_probes, rng, sample)


@dataclass(frozen=True)
class ConditionC1Row:
    """One batch size's noise level against the C=1 reference line."""

    batch_size: int
    lhs_trace: MeanSe
    rhs_trace: float


def check_condition_c1(
    spec: ModelSpec,
    theta: np.ndarray,
    dataset: Dataset,
    batch_sizes: list[int],
    n_probes: int,
    rng: SeededRng,
    fd_delta: float | None = None,
) -> list[ConditionC1Row]:
    """Batch-noise profile of a model's curvature operator.

    For each batch size the probe estimate of Tr(E[Hb^2] - H^2)/N is paired
    with the reference value Tr(H)^2 / (N |B|) at C = 1 (callers compare
    against C times this).  A batch size covering the whole dataset gives the
    deterministic full-batch operator, where the noise term is identically
    zero.  ``fd_delta`` sets both operators' Jacobian-vector products, as in
    ``GnhOperator``.  Every batch size's operator shares the full-batch
    operator's linearization, so the dataset is linearized once.
    """
    op_full = GnhOperator(spec, theta, dataset, fd_delta=fd_delta)
    trace_h = gnh_trace_exact(spec, theta, dataset)
    n = spec.n_params
    rows = []
    for b in batch_sizes:
        if b < 1:
            raise ValueError("batch sizes must be >= 1")
        op_b = op_full.batched(b).reseeded(derive_seed(rng.seed, b))
        lhs = condition_c1_lhs(op_b, op_full, n_probes, rng.substream(b + 1_000_003))
        rhs = trace_h * trace_h / (n * b)
        rows.append(ConditionC1Row(batch_size=b, lhs_trace=lhs, rhs_trace=rhs))
    return rows
