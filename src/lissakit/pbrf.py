"""Ground-truth influence via proximal Bregman finetuning.

Finetuning minimizes, around a frozen reference parameter vector, the mean
Bregman divergence between current and reference logits plus an
epsilon-weighted training-point loss and a quadratic proximity penalty.  The
minimizer's displacement, divided by epsilon, reads out the damped
inverse-curvature influence by finite differences, giving an independent
ground truth to hold stochastic solvers against.  All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _nll_from_logits,
    _softmax,
    loss_gradient,
    nll_loss,
)


@dataclass(frozen=True)
class PboConfig:
    """Finetuning settings; lr, steps, and batch size mirror the paired solve."""

    epsilon: float = 1e-8
    lambda_damp: float = 0.0
    lr: float = 0.1
    steps: int = 100
    batch_size: int = 32
    seed: int = 0

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
    final_objective: float
    displacement_norm: float
    overflow: bool
    steps_run: int
    objective_trace: list[tuple[int, float]] = field(default_factory=list)


def bregman_divergence(h, h_ref, y: int) -> float:
    """Cross-entropy Bregman divergence between logit vectors.

    l(h, y) - l(h_ref, y) - (h - h_ref) . grad_l(h_ref, y); non-negative by
    convexity of the loss in the logits.
    """
    h = np.asarray(h, dtype=np.float64).ravel()
    h_ref = np.asarray(h_ref, dtype=np.float64).ravel()
    if h.shape != h_ref.shape:
        raise ValueError("logit vectors differ in length")
    y_arr = np.array([y])
    loss = float(_nll_from_logits(h[None, :], y_arr)[0])
    ref_loss = float(_nll_from_logits(h_ref[None, :], y_arr)[0])
    ref_grad = _softmax(h_ref[None, :])[0]
    ref_grad[y] -= 1.0
    return loss - ref_loss - float((h - h_ref) @ ref_grad)


def _batch_bregman_mean(spec, theta_values, theta_star_values, X, y) -> float:
    logits, _ = _forward(spec, theta_values, X)
    ref_logits, _ = _forward(spec, theta_star_values, X)
    rows = np.arange(len(y))
    losses = _nll_from_logits(logits, y)
    ref_losses = _nll_from_logits(ref_logits, y)
    ref_grad = _softmax(ref_logits)
    ref_grad[rows, y] -= 1.0
    gaps = losses - ref_losses - ((logits - ref_logits) * ref_grad).sum(axis=1)
    return float(gaps.mean())


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


def pbo_gradient(
    spec: ModelSpec,
    theta: ParamVector,
    theta_star: ParamVector,
    train_point: Example,
    batch,
    cfg: PboConfig,
) -> np.ndarray:
    """Exact objective gradient; the label one-hots cancel in the Bregman term,
    leaving the softmax gap between current and reference logits."""
    logits, caches = _forward(spec, theta.values, batch.X)
    ref_logits, _ = _forward(spec, theta_star.values, batch.X)
    gap = (_softmax(logits) - _softmax(ref_logits)) / len(batch.y)
    grad = _backprop(spec, theta.values, gap, caches)
    if cfg.epsilon:
        grad = grad + cfg.epsilon * loss_gradient(spec, theta, train_point).values
    return grad + cfg.lambda_damp * (theta.values - theta_star.values)


def pbrf_finetune(
    spec: ModelSpec,
    theta_star: ParamVector,
    train_point: Example,
    dataset: Dataset,
    cfg: PboConfig,
    eval_every: int = 0,
) -> PbrfResult:
    """SGD on the proximal Bregman objective, starting from the reference.

    Batches are drawn with the same sampler and seed discipline as the
    stochastic solver, so a finetune and a solve with matching (lr, steps,
    batch size, seed) see identical batch sequences.  A batch size covering
    the whole dataset switches to deterministic full-batch descent, mirroring
    the curvature operator's convention.  A non-finite update stops early and
    flags overflow; the last finite parameters are returned.
    """
    rng = SeededRng(cfg.seed)
    full_batch = cfg.batch_size >= len(dataset)
    theta_values = theta_star.values.copy()
    trace: list[tuple[int, float]] = []
    overflow = False
    steps_run = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            batch = dataset if full_batch else sample_batch(dataset, cfg.batch_size, rng)
            theta = ParamVector(theta_values, spec.segments)
            grad = pbo_gradient(spec, theta, theta_star, train_point, batch, cfg)
            proposal = theta_values - cfg.lr * grad
            if not np.all(np.isfinite(proposal)):
                overflow = True
                break
            theta_values = proposal
            steps_run = step
            if eval_every and step % eval_every == 0:
                theta = ParamVector(theta_values, spec.segments)
                trace.append(
                    (step, pbo_objective(spec, theta, theta_star, train_point, dataset, cfg))
                )
        theta_pbrf = ParamVector(theta_values, spec.segments)
        final = pbo_objective(spec, theta_pbrf, theta_star, train_point, dataset, cfg)
    return PbrfResult(
        theta_pbrf=theta_pbrf,
        final_objective=final,
        displacement_norm=float(np.linalg.norm(theta_values - theta_star.values)),
        overflow=overflow,
        steps_run=steps_run,
        objective_trace=trace,
    )


def pbrf_influence(
    spec: ModelSpec,
    result: PbrfResult,
    theta_star: ParamVector,
    test_points,
    epsilon: float,
) -> dict:
    """Influence scores as the measurement change per unit epsilon.

    score(test) = (f(test; theta_pbrf) - f(test; theta_star)) / epsilon with
    f the log-probability of the test label; to first order in epsilon this
    equals -grad_f . (H + lambda)^-1 grad_loss(train), the same sign
    convention the solver pipeline reports.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if result.overflow:
        raise OverflowError("finetune overflowed; influences are unavailable")
    scores = {}
    for example in test_points:
        moved = -nll_loss(spec, result.theta_pbrf, example.x, example.y)
        ref = -nll_loss(spec, theta_star, example.x, example.y)
        scores[example.id] = (moved - ref) / epsilon
    return scores


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
