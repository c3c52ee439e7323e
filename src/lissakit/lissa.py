"""Stochastic inverse-curvature solves plus convergence and divergence diagnostics.

The solver iterates u <- u - eta*((Hb + lambda) u - g) with a fresh curvature
batch each step and tracks iterate norms and snapshots.  Around it live the
dense-solve oracle used by every accuracy check, an influence-correlation
series for convergence studies, and a rotated rank-one curvature sampler whose
second moment is known in closed form, including the regime where the mean
iterate contracts while the second moment explodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SeededRng, check_symmetric, derive_seed, pearson_corr
from .models import ParamVector, _vector

_DIVERGENCE_SCALE = 1e12


@dataclass(frozen=True)
class LissaConfig:
    """Solver settings: step size, damping, step count, seeding.  The batch
    size belongs to the operator."""

    eta: float
    lambda_damp: float
    t_steps: int
    seed: int = 0
    snapshot_every: int = 0
    u0: np.ndarray | None = None

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.lambda_damp < 0:
            raise ValueError("damping must be non-negative")
        if self.t_steps < 1:
            raise ValueError("need at least one step")
        if self.snapshot_every < 0:
            raise ValueError("snapshot interval must be >= 0")


class LissaDivergenceError(RuntimeError):
    """Iterate went non-finite or outgrew the divergence guard."""

    def __init__(self, step: int, norm: float):
        super().__init__(f"iterate diverged at step {step} (norm {norm:.6g})")
        self.step = step
        self.norm = norm


@dataclass
class LissaTrace:
    """Per-step iterate norms plus snapshot copies at selected steps."""

    norms: np.ndarray
    snapshots: list[tuple[int, np.ndarray]]

    def final(self) -> np.ndarray:
        return self.snapshots[-1][1]


def _divergence_bound(g_norm: float, u0_norm: float, lambda_damp: float) -> float:
    if lambda_damp > 0:
        return _DIVERGENCE_SCALE * (g_norm / lambda_damp + u0_norm)
    return _DIVERGENCE_SCALE * max(g_norm, u0_norm, 1.0)


def lissa_solve(op, g, cfg: LissaConfig):
    """Run the damped stochastic iteration against operator ``op``.

    Every step applies a fresh curvature estimate, so the iterates target
    u* = (H + lambda)^-1 g where H is the operator's mean.  The operator is
    reseeded from cfg.seed when it supports reseeding, making a solve a pure
    function of (op, g, cfg).  Returns the final iterate (matching the type
    of ``g``) and a trace; raises LissaDivergenceError, carrying the faulting
    step, when the iterate goes non-finite or passes the runaway guard.
    """
    g_values = _vector(g)
    if g_values.size != op.n_params:
        raise ValueError("gradient does not match the operator")
    if hasattr(op, "reseeded"):
        op = op.reseeded(cfg.seed)

    u = np.zeros_like(g_values) if cfg.u0 is None else _vector(cfg.u0).copy()
    if u.size != g_values.size:
        raise ValueError("u0 does not match the gradient")
    bound = _divergence_bound(
        float(np.linalg.norm(g_values)), float(np.linalg.norm(u)), cfg.lambda_damp
    )

    norms = np.empty(cfg.t_steps + 1)
    norms[0] = np.linalg.norm(u)
    snapshots: list[tuple[int, np.ndarray]] = []
    for step in range(1, cfg.t_steps + 1):
        hu = op.matvec(u)
        u = u - cfg.eta * (hu + cfg.lambda_damp * u - g_values)
        norm = float(np.linalg.norm(u))
        if not math.isfinite(norm) or norm > bound:
            raise LissaDivergenceError(step, norm)
        norms[step] = norm
        if cfg.snapshot_every and step % cfg.snapshot_every == 0:
            snapshots.append((step, u.copy()))
    if not snapshots or snapshots[-1][0] != cfg.t_steps:
        snapshots.append((cfg.t_steps, u.copy()))

    trace = LissaTrace(norms=norms, snapshots=snapshots)
    if isinstance(g, ParamVector):
        return ParamVector(u, g.segments), trace
    return u, trace


def exact_ihvp(H: np.ndarray, lambda_damp: float, g) -> np.ndarray:
    """Dense oracle: solve (H + lambda I) u = g to residual <= 1e-10 ||g||.

    One round of iterative refinement backs the guarantee; a system the
    refinement cannot pin down (singular at lambda = 0) raises.
    """
    H = np.asarray(H, dtype=np.float64)
    check_symmetric(H)
    g_values = _vector(g)
    if g_values.size != H.shape[0]:
        raise ValueError("gradient does not match the matrix")
    system = H + lambda_damp * np.eye(H.shape[0])
    u = np.linalg.solve(system, g_values)
    u = u + np.linalg.solve(system, g_values - system @ u)
    residual = float(np.linalg.norm(g_values - system @ u))
    if residual > 1e-10 * float(np.linalg.norm(g_values)):
        raise np.linalg.LinAlgError(
            f"system too ill-conditioned: residual {residual:.3e}"
        )
    return u


def convergence_correlation(trace: LissaTrace, test_grads, reference=None):
    """Influence-correlation series across a solve's snapshots.

    Each snapshot's influence vector {<u_step, grad_i>}_i is correlated with
    the reference vector: the final snapshot's when ``reference`` is None,
    else the supplied solution vector's (e.g. from exact_ihvp).  Returns a
    list of (step, correlation).
    """
    if len(test_grads) < 2:
        raise ValueError("need at least two measurement gradients")
    grads = np.vstack([_vector(t) for t in test_grads])
    ref_vector = trace.final() if reference is None else _vector(reference)
    ref_scores = grads @ ref_vector
    return [
        (step, pearson_corr(grads @ u, ref_scores)) for step, u in trace.snapshots
    ]


@dataclass(frozen=True)
class CounterExampleProblem:
    """Rotated diagonal curvature with a divergence-prone sampler.

    ``second_moment_diagonal`` gives the per-coordinate one-step growth
    factors of E[u u^T] in the eigenbasis; any entry above 1 (with u0
    overlapping that coordinate) makes the second moment explode even though
    the mean iterate still contracts.
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray
    batch_size: int
    lambda_damp: float
    eta: float
    u0: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.max())

    @property
    def second_moment_diagonal(self) -> np.ndarray:
        lam = self.eigenvalues
        contraction = 1.0 - self.eta * (lam + self.lambda_damp)
        noise = self.eta**2 * (self.trace * lam - lam**2) / self.batch_size
        return contraction**2 + noise

    @property
    def batch_threshold(self) -> float:
        """Batch sizes at or below this diverge for some step size in (0, 1]."""
        lmax = self.lambda_max
        return (lmax / (lmax + self.lambda_damp)) ** 2 * self.trace / lmax

    def mean_matrix(self) -> np.ndarray:
        return (self.rotation * self.eigenvalues) @ self.rotation.T


class RotatedRankOneSampler:
    """Draws Hb = (1/B) sum_b x x^T with x = V (sqrt(lam) * signs).

    Because ||x||^2 = Tr(H) for every sign pattern, the batch operator obeys
    the exact identity E[Hb^2] = (1 - 1/B) H^2 + Tr(H) H / B, which is what
    makes the divergence threshold computable in closed form.
    """

    def __init__(self, problem: CounterExampleProblem, rng: SeededRng):
        self.problem = problem
        self.rng = rng
        self.n_params = problem.n
        self.segments = (("all", 0, problem.n),)
        self.batch_size = problem.batch_size
        self._root = np.sqrt(problem.eigenvalues)

    def reseeded(self, seed: int) -> "RotatedRankOneSampler":
        return RotatedRankOneSampler(self.problem, SeededRng(seed))

    def rank_one_factor(self, signs: np.ndarray) -> np.ndarray:
        """The batch member x for an explicit sign pattern."""
        return self.problem.rotation @ (self._root * np.asarray(signs, dtype=np.float64))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        problem = self.problem
        z = problem.rotation.T @ np.asarray(v, dtype=np.float64)
        signs = self.rng.rademacher(self.batch_size * problem.n)
        scaled = signs.reshape(self.batch_size, problem.n) * self._root
        coeffs = scaled @ z
        return problem.rotation @ (scaled.T @ coeffs / self.batch_size)


def counterexample_build(
    n: int, eigenvalues, batch_size: int, lambda_damp: float, eta: float, seed: int
):
    """Construct the rotated rank-one problem and its batch sampler.

    ``eigenvalues`` may be a scalar (replicated n times) or a length-n
    vector.  The rotation is a seeded random orthogonal matrix; u0 defaults
    to the eigendirection with the largest second-moment growth factor, the
    coordinate the divergence analysis cares about.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    if lam.shape != (n,):
        raise ValueError("eigenvalues must be a scalar or length-n vector")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative")
    if lam.max() <= 0:
        raise ValueError("at least one eigenvalue must be positive")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")

    gauss = SeededRng(derive_seed(seed, 11)).normal(n * n).reshape(n, n)
    rotation, upper = np.linalg.qr(gauss)
    rotation = rotation * np.sign(np.diag(upper))
    if float(np.abs(rotation @ rotation.T - np.eye(n)).max()) > 1e-10:
        raise AssertionError("rotation failed orthogonality check")

    placeholder = CounterExampleProblem(
        eigenvalues=lam,
        rotation=rotation,
        batch_size=batch_size,
        lambda_damp=lambda_damp,
        eta=eta,
        u0=np.zeros(n),
    )
    top = int(np.argmax(placeholder.second_moment_diagonal))
    problem = CounterExampleProblem(
        eigenvalues=lam,
        rotation=rotation,
        batch_size=batch_size,
        lambda_damp=lambda_damp,
        eta=eta,
        u0=rotation[:, top].copy(),
    )
    sampler = RotatedRankOneSampler(problem, SeededRng(derive_seed(seed, 13)))
    return problem, sampler


def counterexample_moments(problem: CounterExampleProblem, u0=None, t: int = 1) -> float:
    """Exact E||u_t||^2 for the g = 0 iteration under the rank-one sampler.

    In the eigenbasis the coordinate second moments r_j = E[c_j^2] close on
    themselves: one step maps
        r_j <- (1 - eta (lam_j + damp))^2 r_j
               + eta^2 (lam_j s - lam_j^2 r_j) / B,   s = sum_l lam_l r_l,
    and cross moments never feed back into the diagonal.  For equal
    eigenvalues this collapses to a single growth factor per step, the
    ``second_moment_diagonal`` entry.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    start = problem.u0 if u0 is None else u0
    coords = problem.rotation.T @ _vector(start)
    r = coords**2
    lam = problem.eigenvalues
    contraction_sq = (1.0 - problem.eta * (lam + problem.lambda_damp)) ** 2
    scale = problem.eta**2 / problem.batch_size
    for _ in range(t):
        s = float(lam @ r)
        r = contraction_sq * r + scale * (lam * s - lam**2 * r)
    return float(r.sum())


@dataclass
class CounterExampleMonteCarlo:
    """Per-step Monte-Carlo moments over independent solver runs."""

    second_moment: np.ndarray
    second_moment_se: np.ndarray
    mean_iterate: np.ndarray
    mean_iterate_se: np.ndarray
    n_runs: int


def counterexample_simulate(
    problem: CounterExampleProblem, n_runs: int, t: int, seed: int
) -> CounterExampleMonteCarlo:
    """Monte-Carlo E||u_t||^2 and mean iterate from n_runs g = 0 solves.

    Each run reseeds the sampler from its own substream and snapshots every
    step, so the output exposes both the exploding second moment and the
    still-contracting mean for direct comparison with the closed forms.
    """
    if n_runs < 2:
        raise ValueError("need at least two runs")
    if t < 1:
        raise ValueError("need at least one step")
    sampler = RotatedRankOneSampler(problem, SeededRng(seed))
    g = np.zeros(problem.n)
    sum_sq = np.zeros(t + 1)
    sum_sq2 = np.zeros(t + 1)
    sum_u = np.zeros((t + 1, problem.n))
    sum_uu = np.zeros((t + 1, problem.n))

    def record(step: int, u: np.ndarray):
        nsq = float(u @ u)
        sum_sq[step] += nsq
        sum_sq2[step] += nsq * nsq
        sum_u[step] += u
        sum_uu[step] += u * u

    for run in range(n_runs):
        cfg = LissaConfig(
            eta=problem.eta,
            lambda_damp=problem.lambda_damp,
            t_steps=t,
            seed=derive_seed(seed, 17, run),
            snapshot_every=1,
            u0=problem.u0,
        )
        _, trace = lissa_solve(sampler, g, cfg)
        record(0, problem.u0)
        for step, u in trace.snapshots:
            record(step, u)

    second = sum_sq / n_runs
    var_sq = np.maximum(sum_sq2 / n_runs - second**2, 0.0)
    mean_u = sum_u / n_runs
    var_u = np.maximum(sum_uu / n_runs - mean_u**2, 0.0)
    denom = n_runs - 1
    return CounterExampleMonteCarlo(
        second_moment=second,
        second_moment_se=np.sqrt(var_sq * n_runs / denom / n_runs),
        mean_iterate=mean_u,
        mean_iterate_se=np.sqrt(var_u.sum(axis=1) * n_runs / denom / n_runs),
        n_runs=n_runs,
    )
