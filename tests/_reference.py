"""Reference implementations that the tests check the package against.

Each one computes a quantity the slow, obvious way: the dense operator behind
a matrix, the softmax Hessian as a matrix, the proximal Bregman objective that
``pbrf.pbo_gradient`` differentiates, the closed forms of the rank-one
counterexample, and the plain-expression forms of the solver step and the
rank-one sampler.  None of them is part of the program.
"""

import math

import numpy as np

from lissakit.core import SeededRng, SymEig, check_symmetric
from lissakit.influence import eigen_reweight
from lissakit.lissa import CounterExampleProblem, LissaConfig
from lissakit.models import ModelSpec, _forward, _nll_from_logits, _softmax


class DenseOperator:
    """Deterministic matrix-vector oracle around an explicit symmetric matrix,
    with the operator protocol's ``n_params``, ``segments``, ``matvec`` and
    ``reseeded``, which returns the operator itself: it draws nothing."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        check_symmetric(matrix)
        self.matrix = matrix
        self.n_params = matrix.shape[0]
        self.segments = (("all", 0, self.n_params),)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_params,):
            raise ValueError(f"expected vector of length {self.n_params}")
        return self.matrix @ v

    def reseeded(self, seed: int) -> "DenseOperator":
        return self


def eigen_reweight_reconstruction(g, eig: SymEig, lambda_damp: float) -> np.ndarray:
    """Assemble sum_j weight_j <g, v_j> v_j, the damped projection of g.

    Equals lambda (H + lambda)^-1 g, the part of the gradient that survives
    the solve after the high-curvature directions are suppressed.
    """
    _, coefficients, weights = np.array(eigen_reweight(g, eig, lambda_damp)).T
    return eig.vectors @ (coefficients * weights)


def softmax_hessian(logits: np.ndarray) -> np.ndarray:
    """Hessian of -log softmax at the given logits: diag(p) - p p^T."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if logits.size < 2:
        raise ValueError("need at least two logits")
    p = _softmax(logits[None, :])[0]
    return np.diag(p) - np.outer(p, p)


def mean_matrix(problem: CounterExampleProblem) -> np.ndarray:
    """The counterexample's curvature H = V diag(lam) V^T."""
    return (problem.rotation * problem.eigenvalues) @ problem.rotation.T


def rank_one_factor(problem: CounterExampleProblem, signs: np.ndarray) -> np.ndarray:
    """The sampler's batch member x = V (sqrt(lam) * signs) for an explicit
    sign pattern."""
    return problem.rotation @ (np.sqrt(problem.eigenvalues) * np.asarray(signs, dtype=np.float64))


def sampler_matvec(problem: CounterExampleProblem, rng: SeededRng, v: np.ndarray) -> np.ndarray:
    """The rank-one sampler's H_b v as plain @ expressions: B sign patterns
    drawn from ``rng`` as one raw draw of B * n words, each word's top bit
    mapped to +-1 arithmetically."""
    B, n = problem.batch_size, problem.n
    signs = (rng.raw_uint64(B * n) >> np.uint64(63)).astype(np.float64) * 2.0 - 1.0
    scaled = signs.reshape(B, n) * np.sqrt(problem.eigenvalues)
    coeffs = scaled @ (problem.rotation.T @ v)
    return problem.rotation @ (scaled.T @ coeffs / B)


def solve_loop(op, g: np.ndarray, cfg: LissaConfig):
    """lissa_solve's iteration as one expression per step,
    u <- u - eta (H_b u + lambda u - g), with a copy of each snapshot; the
    norms are sqrt(u @ u).  Returns the final iterate, the norms and the
    snapshots."""
    op = op.reseeded(cfg.seed)
    u = np.zeros_like(g) if cfg.u0 is None else np.array(cfg.u0, dtype=np.float64)
    norms, snapshots = [math.sqrt(u @ u)], []
    for step in range(1, cfg.t_steps + 1):
        u = u - cfg.eta * (op.matvec(u) + cfg.lambda_damp * u - g)
        norms.append(math.sqrt(u @ u))
        if cfg.snapshot_every and step % cfg.snapshot_every == 0:
            snapshots.append((step, u.copy()))
    if not snapshots or snapshots[-1][0] != cfg.t_steps:
        snapshots.append((cfg.t_steps, u.copy()))
    return u, np.array(norms), snapshots


def nll_loss(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: int) -> float:
    """Cross-entropy loss -log softmax(logits)[y] of one example."""
    h, _ = _forward(spec, theta, np.asarray(x, dtype=np.float64)[None, :])
    return _nll_from_logits(h, np.array([y]))[0]


def bregman_gaps(logits: np.ndarray, ref_logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy Bregman divergence between matching rows of logits.

    l(h, y) - l(h_ref, y) - (h - h_ref) . grad_l(h_ref, y) per row;
    non-negative by convexity of the loss in the logits.
    """
    losses = _nll_from_logits(logits, y)
    ref_losses = _nll_from_logits(ref_logits, y)
    ref_grad = _softmax(ref_logits)
    ref_grad[np.arange(len(y)), y] -= 1.0
    return losses - ref_losses - ((logits - ref_logits) * ref_grad).sum(axis=1)


def batch_bregman_mean(spec, theta, theta_star, X, y) -> float:
    logits, _ = _forward(spec, theta, X)
    ref_logits, _ = _forward(spec, theta_star, X)
    return float(bregman_gaps(logits, ref_logits, y).mean())


def pbo_objective(spec: ModelSpec, theta, theta_star, train_point, batch, epsilon, lambda_damp) -> float:
    """Mean Bregman term over ``batch`` (anything with .X/.y) plus the
    epsilon-weighted training loss and the proximity penalty: the objective
    whose gradient ``pbrf.pbo_gradient`` computes."""
    value = batch_bregman_mean(spec, theta, theta_star, batch.X, batch.y)
    if epsilon:
        value += epsilon * nll_loss(spec, theta, train_point.x, train_point.y)
    shift = theta - theta_star
    return value + 0.5 * lambda_damp * float(shift @ shift)
