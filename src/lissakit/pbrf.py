"""Influence via proximal Bregman finetuning.

Finetuning minimizes, around a frozen reference parameter vector, the mean
Bregman divergence between current and reference logits plus an
epsilon-weighted training-point loss and a quadratic proximity penalty.  The
minimizer's displacement, divided by epsilon, reads out the damped
inverse-curvature influence by finite differences.  With a small epsilon and
the stochastic solver's step size, step count and batch stream, the finetune
equals the solver's iteration to first order in epsilon, so the comparison
checks the finetune code against the solver code rather than against an
independent ground truth.  All arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SeededRng, pearson_corr
from .gnh import sample_batch
from .models import (
    Dataset,
    Example,
    ModelSpec,
    ParamVector,
    _backprop,
    _forward,
    _linearize,
    _loss_gradient_rows,
    _nll_from_logits,
    _softmax,
    nll_loss,
)


@dataclass(frozen=True)
class PboConfig:
    """Finetuning settings; lr, steps, and batch size mirror the paired solve.
    ``seed`` is one seed, or one per chain for a lockstep finetune."""

    epsilon: float = 1e-8
    lambda_damp: float = 0.0
    lr: float = 0.1
    steps: int = 100
    batch_size: int = 32
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.lambda_damp < 0:
            raise ValueError("damping must be non-negative")
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class PbrfResult:
    """Finetuned parameters plus diagnostics; overflow is always explicit."""

    theta_pbrf: ParamVector
    displacement_norm: float
    overflow: bool
    steps_run: int


def _bregman_gaps(logits: np.ndarray, ref_logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy Bregman divergence between matching rows of logits.

    l(h, y) - l(h_ref, y) - (h - h_ref) . grad_l(h_ref, y) per row;
    non-negative by convexity of the loss in the logits.
    """
    losses = _nll_from_logits(logits, y)
    ref_losses = _nll_from_logits(ref_logits, y)
    ref_grad = _softmax(ref_logits)
    ref_grad[np.arange(len(y)), y] -= 1.0
    return losses - ref_losses - ((logits - ref_logits) * ref_grad).sum(axis=1)


def _batch_bregman_mean(spec, theta_values, theta_star_values, X, y) -> float:
    logits, _ = _forward(spec, theta_values, X)
    ref_logits, _ = _forward(spec, theta_star_values, X)
    return float(_bregman_gaps(logits, ref_logits, y).mean())


def pbo_objective(
    spec: ModelSpec,
    theta: ParamVector,
    theta_star: ParamVector,
    train_point: Example,
    batch,
    cfg: PboConfig,
) -> float:
    """Mean Bregman term over ``batch`` (anything with .X/.y) plus the
    epsilon-weighted training loss and the proximity penalty."""
    value = _batch_bregman_mean(spec, theta.values, theta_star.values, batch.X, batch.y)
    if cfg.epsilon:
        value += cfg.epsilon * nll_loss(spec, theta, train_point.x, train_point.y)
    shift = theta.values - theta_star.values
    return value + 0.5 * cfg.lambda_damp * float(shift @ shift)


def _train_rows(train_point):
    """The training term's rows: one row for an Example, X (R, 1, in) and
    y (R, 1) for a Dataset of R train points, one per chain."""
    if isinstance(train_point, Dataset):
        return train_point.X[:, None, :], train_point.y[:, None]
    return train_point.x[None, :], np.array([train_point.y])


def pbo_gradient(
    spec: ModelSpec,
    theta,
    theta_star: ParamVector,
    train_point,
    batch,
    cfg: PboConfig,
) -> np.ndarray:
    """Exact objective gradient; the label one-hots cancel in the Bregman term,
    leaving the softmax gap between current and reference logits.

    ``theta`` is a ParamVector or an array of parameters.  For R chains it is
    an (R, n) block, ``train_point`` a Dataset of R points and ``batch.X``
    (R, B, in), or (B, in) shared by every chain; the gradient is (R, n).
    """
    theta = getattr(theta, "values", theta)
    lin = _linearize(spec, theta, batch.X)
    ref_logits, _ = _forward(spec, theta_star.values, batch.X)
    gap = (lin.p - _softmax(ref_logits)) / batch.y.shape[-1]
    grad = _backprop(spec, lin, gap)
    if cfg.epsilon:
        grad = grad + cfg.epsilon * _loss_gradient_rows(spec, theta, *_train_rows(train_point))
    return grad + cfg.lambda_damp * (theta - theta_star.values)


def _displacement_norm(theta: np.ndarray, theta_star: np.ndarray) -> float:
    """||theta - theta_star||, finite whenever every entry of the difference
    is: the difference is divided by its largest magnitude before squaring."""
    with np.errstate(over="ignore"):
        shift = theta - theta_star
    scale = float(np.max(np.abs(shift)))
    if not 0.0 < scale < math.inf:
        return scale
    return scale * float(np.linalg.norm(shift / scale))


def pbrf_finetune(
    spec: ModelSpec,
    theta_star: ParamVector,
    train_point,
    dataset: Dataset,
    cfg: PboConfig,
):
    """SGD on the proximal Bregman objective, starting from the reference.

    Batches are drawn with the same sampler and seed discipline as the
    stochastic solver, so a finetune and a solve with matching (lr, steps,
    batch size, seed) see identical batch sequences.  A batch size covering
    the whole dataset switches to deterministic full-batch descent, mirroring
    the curvature operator's convention.  A non-finite update stops early and
    flags overflow; the last finite parameters are returned.

    ``train_point`` is one Example, finetuned from the seed ``cfg.seed``, and
    the result one PbrfResult.  Or it is a Dataset of R train points with
    ``cfg.seed`` holding R seeds: the R finetunes run in lockstep as one (R, n)
    block, each chain with its own seed, overflow flag and step count, and the
    result is a list of R PbrfResults, each equal to finetuning its point alone.
    """
    chains = isinstance(train_point, Dataset)
    if chains != (np.ndim(cfg.seed) == 1) or (chains and len(cfg.seed) != len(train_point)):
        raise ValueError("give one seed for an Example, one per point for a Dataset")
    rng = SeededRng(cfg.seed)
    full_batch = cfg.batch_size >= len(dataset)
    lead = (len(train_point),) if chains else ()
    theta = np.broadcast_to(theta_star.values, lead + (spec.n_params,)).copy()
    overflow = np.zeros(lead, dtype=bool)
    steps_run = np.zeros(lead, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            batch = dataset if full_batch else sample_batch(dataset, cfg.batch_size, rng)
            grad = pbo_gradient(spec, theta, theta_star, train_point, batch, cfg)
            proposal = theta - cfg.lr * grad
            overflow |= ~np.isfinite(proposal).all(axis=-1)
            if overflow.all():
                break
            theta = np.where(overflow[..., None], theta, proposal)
            steps_run[~overflow] = step
    results = [
        PbrfResult(
            theta_pbrf=ParamVector(values, spec.segments),
            displacement_norm=_displacement_norm(values, theta_star.values),
            overflow=bool(flag),
            steps_run=int(run),
        )
        for values, flag, run in zip(
            theta.reshape(-1, spec.n_params), overflow.ravel(), steps_run.ravel()
        )
    ]
    return results if chains else results[0]


def pbrf_influence(
    spec: ModelSpec,
    result,
    theta_star: ParamVector,
    test_points,
    epsilon: float,
):
    """Influence scores as the measurement change per unit epsilon.

    score(test) = (f(test; theta_pbrf) - f(test; theta_star)) / epsilon with
    f the log-probability of the test label; to first order in epsilon this
    equals -grad_f . (H + lambda)^-1 grad_loss(train), the same sign
    convention the solver pipeline reports.  ``result`` is one PbrfResult,
    giving one {test id: score} map, or a list of them, giving one map each.

    Each f is a one-row forward pass, as in ``nll_loss``, so every score is
    bit for bit the one-example value: the reference f once per test point,
    the moved f of every (result, test point) pair as one stacked forward,
    (R, J, 1, in) rows against (R, 1, n) parameters.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    results = result if isinstance(result, list) else [result]
    if any(r.overflow for r in results):
        raise OverflowError("finetune overflowed; influences are unavailable")
    X = np.array([ex.x for ex in test_points], dtype=np.float64).reshape(-1, 1, spec.input_dim)
    y = np.array([ex.y for ex in test_points], dtype=np.int64).reshape(-1, 1)
    thetas = np.stack([r.theta_pbrf.values for r in results])[:, None, :]
    ref = -_nll_from_logits(_forward(spec, theta_star.values, X)[0], y)
    moved = -_nll_from_logits(_forward(spec, thetas, X)[0], y)
    scores = (moved - ref)[..., 0] / epsilon
    maps = [dict(zip((ex.id for ex in test_points), row)) for row in scores]
    return maps if isinstance(result, list) else maps[0]


@dataclass
class InfluenceComparison:
    """Scatter summary of two score maps over a shared test set."""

    pearson: float
    slope: float
    rows: list[tuple]
    class_counts: dict


def classify_agreement(
    x: float, y: float, scale: float, near_zero_frac: float, agree_rtol: float
) -> str:
    """Deterministic trichotomy for one scatter point.

    Points whose magnitudes are both below near_zero_frac * scale are
    near-zero; otherwise the relative residual from the x = y diagonal
    decides between agreeing and disagreeing.
    """
    magnitude = max(abs(x), abs(y))
    if magnitude <= near_zero_frac * scale:
        return "near_zero"
    if abs(y - x) <= agree_rtol * magnitude:
        return "agreeing"
    return "disagreeing"


def compare_influences(
    lissa_scores: dict,
    pbrf_scores: dict,
    near_zero_frac: float = 0.05,
    agree_rtol: float = 0.2,
) -> InfluenceComparison:
    """Pearson correlation, origin slope, and trichotomy counts for two maps.

    The maps must carry identical id sets with at least ten entries; rows
    come back id-sorted as (id, lissa, pbrf) ready for emission.
    """
    if set(lissa_scores) != set(pbrf_scores):
        raise ValueError("score maps cover different ids")
    if len(lissa_scores) < 10:
        raise ValueError("need at least ten scores to compare")
    ids = sorted(lissa_scores)
    x = np.array([lissa_scores[i] for i in ids], dtype=np.float64)
    y = np.array([pbrf_scores[i] for i in ids], dtype=np.float64)
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("all reference scores are zero")
    slope = float(x @ y) / denom
    scale = float(np.max(np.abs(np.concatenate([x, y]))))
    counts = {"agreeing": 0, "near_zero": 0, "disagreeing": 0}
    for xi, yi in zip(x, y):
        counts[classify_agreement(xi, yi, scale, near_zero_frac, agree_rtol)] += 1
    rows = [(i, float(xi), float(yi)) for i, xi, yi in zip(ids, x, y)]
    return InfluenceComparison(
        pearson=pearson_corr(x, y), slope=slope, rows=rows, class_counts=counts
    )
