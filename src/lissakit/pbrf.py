"""Influence via proximal Bregman finetuning.

Finetuning minimizes, around a frozen reference parameter vector, the mean
Bregman divergence between current and reference logits plus an
epsilon-weighted training-point loss and a quadratic proximity penalty.  The
minimizer's displacement, divided by epsilon, reads out the damped
inverse-curvature influence by finite differences.  A finetune replays a
stochastic solve: it reads the reference, the model, the training set and the
batch size from the solve's ``GnhOperator`` and the step size, damping, step
count and seeds from its ``LissaConfig``, so it equals the solver's iteration
to first order in epsilon, and the comparison checks the finetune code
against the solver code rather than against an independent ground truth.
All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, pearson_corr
from .gnh import GnhOperator, sample_batch
from .lissa import LissaConfig
from .models import (
    Dataset,
    ModelSpec,
    _backprop,
    _forward,
    _linearize,
    _nll_from_logits,
    _softmax,
    loss_gradients,
)


def pbo_gradient(
    spec: ModelSpec,
    theta: np.ndarray,
    theta_star: np.ndarray,
    points: Dataset,
    X: np.ndarray,
    epsilon: float,
    lambda_damp: float,
) -> np.ndarray:
    """Exact gradient of R chains' proximal Bregman objectives.  Chain r's is
    the batch mean of l(h, y) - l(h*, y) - (h - h*) . grad_l(h*, y), plus
    epsilon l at point r and (lambda/2) ||theta_r - theta_star||^2, for l the
    cross-entropy and h, h* a row's logits at theta_r and theta_star.  The
    label one-hots cancel in the Bregman term, leaving the softmax gap between
    current and reference logits, so the batch's labels are not read.

    ``theta`` is an (R, n) block, one row per chain, and ``points`` a Dataset
    of R train points, chain r's training term at point r.  ``X`` is the
    batch's (R, B, in) rows, one batch per chain, or (B, in) shared by every
    chain; the gradient is (R, n).
    """
    lin = _linearize(spec, theta, X)
    ref_logits, _ = _forward(spec, theta_star, X)
    gap = (lin.p - _softmax(ref_logits)) / X.shape[-2]
    grad = _backprop(spec, lin, gap)
    if epsilon:
        grad = grad + epsilon * loss_gradients(spec, theta, points.X, points.y)
    return grad + lambda_damp * (theta - theta_star)


def pbrf_finetune(op: GnhOperator, points: Dataset, cfg: LissaConfig, epsilon: float) -> np.ndarray:
    """SGD on the proximal Bregman objective of each of R train points,
    starting from the reference, as the replay of a lockstep solve.

    ``op`` and ``cfg`` are the operator and the settings of the solve that
    the finetunes replay: the reference ``op.theta``, the model, the training
    set and the batch size come from ``op``, the step size, damping and step
    count from ``cfg``, and chain r finetunes ``points[r]`` from the seed
    ``cfg.seed[r]``, a tuple of one seed per point.  Chain r draws row for
    row the batches that ``op.reseeded(cfg.seed[r])`` draws, and a full-batch
    ``op`` makes every step deterministic full-batch descent.  The R
    finetunes run in lockstep as one (R, n) parameter block, row r bit for
    bit what finetuning point r alone computes; a single finetune is the
    R = 1 case.  Returns the block; the first step that leaves it non-finite
    raises OverflowError, and no later step runs.
    """
    if isinstance(cfg.seed, (int, np.integer)) or len(cfg.seed) != len(points):
        raise ValueError(f"need a tuple of one seed per point for {len(points)} points")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    spec, theta_star, dataset = op.spec, op.theta, op.dataset
    rng = None if op.batch_size is None else SeededRng(cfg.seed)
    theta = np.broadcast_to(theta_star, (len(points), spec.n_params)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.t_steps):
            X = dataset.X if rng is None else dataset.X[sample_batch(dataset, op.batch_size, rng)]
            grad = pbo_gradient(spec, theta, theta_star, points, X, epsilon, cfg.lambda_damp)
            theta = theta - cfg.eta * grad
            if not np.isfinite(theta).all():
                raise OverflowError("finetune overflowed; influences are unavailable")
    return theta


def pbrf_influence(
    spec: ModelSpec,
    theta: np.ndarray,
    theta_star: np.ndarray,
    test_points: Dataset,
    epsilon: float,
) -> np.ndarray:
    """Influence scores as the measurement change per unit epsilon.

    score(test) = (f(test; theta) - f(test; theta_star)) / epsilon with f the
    log-probability of the test label and theta a row of the (R, n) finetune
    block ``theta``; to first order in epsilon this equals -grad_f . (H +
    lambda)^-1 grad_loss(train), the same sign convention the solver pipeline
    reports.  Returns an (R, J) array, row r for finetune r and column j for
    ``test_points[j]``.

    Each f is a one-row forward pass, so every score is bit for bit the
    one-example value: the reference f once per test point, the moved f of
    every (finetune, test point) pair as one stacked forward, (R, J, 1, in)
    rows against (R, 1, n) parameters.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    X = test_points.X[:, None, :]
    y = test_points.y[:, None]
    ref = -_nll_from_logits(_forward(spec, theta_star, X)[0], y)
    moved = -_nll_from_logits(_forward(spec, theta[:, None, :], X)[0], y)
    return (moved - ref)[..., 0] / epsilon


# The trichotomy thresholds of compare_influences, relative to a magnitude.
NEAR_ZERO_FRAC = 0.05
AGREE_RTOL = 0.2


@dataclass
class InfluenceComparison:
    """Scatter summary of two score arrays over the same (train, test) pairs."""

    pearson: float
    slope: float
    class_counts: dict


def compare_influences(lissa_scores: np.ndarray, pbrf_scores: np.ndarray) -> InfluenceComparison:
    """Pearson correlation, origin slope, and trichotomy counts for two arrays.

    The arrays must have equal shapes, entry i of one paired with entry i of
    the other, and at least ten entries; they are read in C order.  A pair
    whose magnitudes are both at most NEAR_ZERO_FRAC times the largest
    magnitude of either array is near-zero; otherwise its relative residual
    from the x = y diagonal, against AGREE_RTOL, decides between agreeing and
    disagreeing.
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
    near_zero = magnitude <= NEAR_ZERO_FRAC * magnitude.max()
    agreeing = ~near_zero & (np.abs(y - x) <= AGREE_RTOL * magnitude)
    counts = {
        "agreeing": int(agreeing.sum()),
        "near_zero": int(near_zero.sum()),
        "disagreeing": int(x.size - agreeing.sum() - near_zero.sum()),
    }
    return InfluenceComparison(pearson=pearson_corr(x, y), slope=slope, class_counts=counts)
