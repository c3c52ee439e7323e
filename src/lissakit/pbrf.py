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

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, pearson_corr
from .gnh import sample_batch
from .models import (
    Dataset,
    Example,
    ModelSpec,
    _backprop,
    _forward,
    _linearize,
    _nll_from_logits,
    _softmax,
    loss_gradients,
    nll_loss,
)


@dataclass(frozen=True)
class PboConfig:
    """Finetuning settings; lr, steps, and batch size mirror the paired solve.
    ``seed`` holds one seed per finetuned point."""

    epsilon: float = 1e-8
    lambda_damp: float = 0.0
    lr: float = 0.1
    steps: int = 100
    batch_size: int = 32
    seed: tuple[int, ...] = (0,)

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
    """R lockstep finetunes: the (R, n) finetuned parameters, row r for point
    r, and the (R,) overflow flags; overflow is always explicit."""

    theta: np.ndarray
    overflow: np.ndarray


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


def _batch_bregman_mean(spec, theta, theta_star, X, y) -> float:
    logits, _ = _forward(spec, theta, X)
    ref_logits, _ = _forward(spec, theta_star, X)
    return float(_bregman_gaps(logits, ref_logits, y).mean())


def pbo_objective(
    spec: ModelSpec,
    theta: np.ndarray,
    theta_star: np.ndarray,
    train_point: Example,
    batch,
    cfg: PboConfig,
) -> float:
    """Mean Bregman term over ``batch`` (anything with .X/.y) plus the
    epsilon-weighted training loss and the proximity penalty."""
    value = _batch_bregman_mean(spec, theta, theta_star, batch.X, batch.y)
    if cfg.epsilon:
        value += cfg.epsilon * nll_loss(spec, theta, train_point.x, train_point.y)
    shift = theta - theta_star
    return value + 0.5 * cfg.lambda_damp * float(shift @ shift)


def pbo_gradient(
    spec: ModelSpec,
    theta: np.ndarray,
    theta_star: np.ndarray,
    points: Dataset,
    batch,
    cfg: PboConfig,
) -> np.ndarray:
    """Exact objective gradient of R chains; the label one-hots cancel in the
    Bregman term, leaving the softmax gap between current and reference logits.

    ``theta`` is an (R, n) block, one row per chain, and ``points`` a Dataset
    of R train points, chain r's training term at point r.  ``batch.X`` is
    (R, B, in), one batch per chain, or (B, in) shared by every chain; the
    gradient is (R, n).
    """
    lin = _linearize(spec, theta, batch.X)
    ref_logits, _ = _forward(spec, theta_star, batch.X)
    gap = (lin.p - _softmax(ref_logits)) / batch.y.shape[-1]
    grad = _backprop(spec, lin, gap)
    if cfg.epsilon:
        grad = grad + cfg.epsilon * loss_gradients(spec, theta, points.X, points.y)
    return grad + cfg.lambda_damp * (theta - theta_star)


def pbrf_finetune(
    spec: ModelSpec,
    theta_star: np.ndarray,
    points: Dataset,
    dataset: Dataset,
    cfg: PboConfig,
) -> PbrfResult:
    """SGD on the proximal Bregman objective of each of R train points,
    starting from the reference.

    The R finetunes run in lockstep as one (R, n) parameter block, chain r
    finetuning ``points[r]`` from the seed ``cfg.seed[r]``; a single finetune
    is the R = 1 case.  Batches are drawn with the same sampler and seed
    discipline as the stochastic solver, so a finetune and a solve with
    matching (lr, steps, batch size, seed) see identical batch sequences.  A
    batch size covering the whole dataset switches to deterministic
    full-batch descent, as ``GnhOperator`` does.  A non-finite update stops
    its chain and flags overflow; that chain keeps its last finite parameters
    while the others run on.  Returns the block as one PbrfResult, row r bit
    for bit what finetuning point r alone computes.
    """
    if len(cfg.seed) != len(points):
        raise ValueError(f"need one seed per point: {len(cfg.seed)} seeds for {len(points)} points")
    rng = SeededRng(cfg.seed)
    full_batch = cfg.batch_size >= len(dataset)
    theta = np.broadcast_to(theta_star, (len(points), spec.n_params)).copy()
    overflow = np.zeros(len(points), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            batch = dataset if full_batch else sample_batch(dataset, cfg.batch_size, rng)
            grad = pbo_gradient(spec, theta, theta_star, points, batch, cfg)
            proposal = theta - cfg.lr * grad
            overflow |= ~np.isfinite(proposal).all(axis=-1)
            if overflow.all():
                break
            theta = np.where(overflow[:, None], theta, proposal)
    return PbrfResult(theta=theta, overflow=overflow)


def pbrf_influence(
    spec: ModelSpec,
    result: PbrfResult,
    theta_star: np.ndarray,
    test_points: Dataset,
    epsilon: float,
) -> np.ndarray:
    """Influence scores as the measurement change per unit epsilon.

    score(test) = (f(test; theta) - f(test; theta_star)) / epsilon with f the
    log-probability of the test label and theta a row of ``result.theta``; to
    first order in epsilon this equals -grad_f . (H + lambda)^-1
    grad_loss(train), the same sign convention the solver pipeline reports.
    Returns an (R, J) array, row r for finetune r and column j for
    ``test_points[j]``; any overflowed finetune raises OverflowError.

    Each f is a one-row forward pass, as in ``nll_loss``, so every score is
    bit for bit the one-example value: the reference f once per test point,
    the moved f of every (finetune, test point) pair as one stacked forward,
    (R, J, 1, in) rows against (R, 1, n) parameters.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if result.overflow.any():
        raise OverflowError("finetune overflowed; influences are unavailable")
    X = test_points.X[:, None, :]
    y = test_points.y[:, None]
    ref = -_nll_from_logits(_forward(spec, theta_star, X)[0], y)
    moved = -_nll_from_logits(_forward(spec, result.theta[:, None, :], X)[0], y)
    return (moved - ref)[..., 0] / epsilon


@dataclass
class InfluenceComparison:
    """Scatter summary of two score arrays over the same (train, test) pairs."""

    pearson: float
    slope: float
    class_counts: dict


def compare_influences(
    lissa_scores: np.ndarray,
    pbrf_scores: np.ndarray,
    near_zero_frac: float = 0.05,
    agree_rtol: float = 0.2,
) -> InfluenceComparison:
    """Pearson correlation, origin slope, and trichotomy counts for two arrays.

    The arrays must have equal shapes, entry i of one paired with entry i of
    the other, and at least ten entries; they are read in C order.  A pair
    whose magnitudes are both at most near_zero_frac times the largest
    magnitude of either array is near-zero; otherwise its relative residual
    from the x = y diagonal decides between agreeing and disagreeing.
    """
    x = np.asarray(lissa_scores, dtype=np.float64)
    y = np.asarray(pbrf_scores, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"score arrays differ in shape: {x.shape} and {y.shape}")
    if x.size < 10:
        raise ValueError("need at least ten scores to compare")
    x, y = x.ravel(), y.ravel()
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("all reference scores are zero")
    slope = float(x @ y) / denom
    magnitude = np.maximum(np.abs(x), np.abs(y))
    near_zero = magnitude <= near_zero_frac * magnitude.max()
    agreeing = ~near_zero & (np.abs(y - x) <= agree_rtol * magnitude)
    counts = {
        "agreeing": int(agreeing.sum()),
        "near_zero": int(near_zero.sum()),
        "disagreeing": int(x.size - agreeing.sum() - near_zero.sum()),
    }
    return InfluenceComparison(pearson=pearson_corr(x, y), slope=slope, class_counts=counts)
