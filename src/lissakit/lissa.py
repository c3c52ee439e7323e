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
from dataclasses import dataclass, replace

import numpy as np

from .core import SeededRng, derive_seed, derive_seeds, pearson_corr

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
    """Per-step iterate norms plus the iterates at selected steps.  The
    solver writes no iterate after its step, so a snapshot is the iterate
    itself, and the last one is the array that the solve returns."""

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
    function of (op, g, cfg).  Returns the final iterate as an array and a
    trace; raises LissaDivergenceError, carrying the faulting step, when the
    iterate goes non-finite or passes the runaway guard.

    ``op.matvec`` must return a fresh float64 array: each step forms
    eta ((H_b + lambda) u - g) in place on it.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (op.n_params,):
        raise ValueError("gradient does not match the operator")
    if hasattr(op, "reseeded"):
        op = op.reseeded(cfg.seed)

    u = np.zeros(g.shape) if cfg.u0 is None else np.array(cfg.u0, dtype=np.float64)
    if u.shape != g.shape:
        raise ValueError("u0 does not match the gradient")
    # sqrt(x . x) is what np.linalg.norm computes for a 1-D float64 array;
    # ndarray.dot is the product of @ at less cost per call
    u0_norm = math.sqrt(u.dot(u))
    bound = _divergence_bound(math.sqrt(g.dot(g)), u0_norm, cfg.lambda_damp)

    t_steps, eta, damp, every = cfg.t_steps, cfg.eta, cfg.lambda_damp, cfg.snapshot_every
    matvec, sqrt, isfinite = op.matvec, math.sqrt, math.isfinite
    norms = np.empty(t_steps + 1)
    norms[0] = u0_norm
    snapshots: list[tuple[int, np.ndarray]] = []
    # a step that overflows leaves a non-finite norm, which the guard reports
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, t_steps + 1):
            # u - eta (H_b u + damp u - g), its operations in that order
            hu = matvec(u)
            hu += damp * u
            hu -= g
            hu *= eta
            u = u - hu
            norm = sqrt(u.dot(u))
            if not isfinite(norm) or norm > bound:
                raise LissaDivergenceError(step, norm)
            norms[step] = norm
            if every and step % every == 0:
                snapshots.append((step, u))
    if not snapshots or snapshots[-1][0] != t_steps:
        snapshots.append((t_steps, u))

    return u, LissaTrace(norms=norms, snapshots=snapshots)


def exact_ihvp(H: np.ndarray, lambda_damp: float, g) -> np.ndarray:
    """Dense oracle: solve (H + lambda I) u = g to residual <= 1e-10 ||g||.

    ``H`` is a symmetric matrix that the caller has checked
    (``core.check_symmetric``).  One LU solve of H + lambda I; a second one,
    on the residual, runs only when some column misses the bound, and the
    residual is checked against H itself.  ``g`` is a vector or an (n, k)
    block, each column held to its own bound.  Raises
    ``np.linalg.LinAlgError`` when lambda <= 0, where a Gauss-Newton matrix,
    PSD and singular, leaves H + lambda I not positive definite, when the
    system is singular, or when a column misses the bound.
    """
    rhs = np.asarray(g, dtype=np.float64)
    n = H.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError("gradient does not match the matrix")
    if not lambda_damp > 0:
        raise np.linalg.LinAlgError(f"H + lambda I is not positive definite at lambda = {lambda_damp!r}")
    system = H.copy()
    system.flat[:: n + 1] += lambda_damp
    block = rhs.reshape(n, -1)
    bound = 1e-10 * np.linalg.norm(block, axis=0)
    # a near-singular system can overflow the solve; the residual check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.linalg.solve(system, block)
        residual = block - (H @ u + lambda_damp * u)
        if not np.all(np.linalg.norm(residual, axis=0) <= bound):
            u += np.linalg.solve(system, residual)
            residual = block - (H @ u + lambda_damp * u)
        miss = np.linalg.norm(residual, axis=0)
    if not np.all(miss <= bound):
        raise np.linalg.LinAlgError(f"system too ill-conditioned: residual {miss.max():.3e}")
    return u.reshape(rhs.shape)


def convergence_correlation(trace: LissaTrace, test_grads: np.ndarray, reference=None):
    """Influence-correlation series across a solve's snapshots.

    Each snapshot's influence vector test_grads @ u_step, one score per row of
    the (J, n) measurement-gradient block, is correlated with the reference
    vector: the final snapshot's when ``reference`` is None, else the supplied
    solution vector's (e.g. from exact_ihvp).  Returns a list of (step,
    correlation).
    """
    grads = np.asarray(test_grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] < 2:
        raise ValueError("need a (J, n) block of at least two measurement gradients")
    ref_vector = trace.final() if reference is None else np.asarray(reference, dtype=np.float64)
    if ref_vector.shape != grads.shape[1:]:
        raise ValueError("reference does not match the measurement gradients")
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
        self._rotation = problem.rotation
        self._rotation_t = problem.rotation.T

    def reseeded(self, seed: int) -> "RotatedRankOneSampler":
        """Copy with its sign stream reset to ``seed``, sharing the square
        roots of the eigenvalues and the rotation."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, rng=SeededRng(seed))
        return twin

    def matvec(self, v: np.ndarray) -> np.ndarray:
        # ndarray.dot is the product of @, bit for bit, at less cost per call
        batch_size, n = self.batch_size, self.n_params
        z = self._rotation_t.dot(v)
        scaled = self.rng.rademacher(batch_size * n).reshape(batch_size, n) * self._root
        coeffs = scaled.dot(z)
        return self._rotation.dot(scaled.T.dot(coeffs) / batch_size)


def counterexample_build(eigenvalues, batch_size: int, lambda_damp: float, eta: float, seed: int):
    """Construct the rotated rank-one problem in the dimension n of the
    eigenvalue vector.

    The rotation is a seeded random n x n orthogonal matrix; u0 is the
    eigendirection with the largest second-moment growth factor, the
    coordinate the divergence analysis cares about.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a non-empty vector")
    n = lam.size
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

    problem = CounterExampleProblem(
        eigenvalues=lam,
        rotation=rotation,
        batch_size=batch_size,
        lambda_damp=lambda_damp,
        eta=eta,
        u0=np.zeros(n),
    )
    top = int(np.argmax(problem.second_moment_diagonal))
    return replace(problem, u0=rotation[:, top].copy())


def counterexample_moments(problem: CounterExampleProblem, t_max: int) -> np.ndarray:
    """Exact E||u_t||^2 for t = 0..t_max of the g = 0 iteration from
    ``problem.u0`` under the rank-one sampler, as a (t_max + 1,) array from
    one run of the recurrence.

    In the eigenbasis the coordinate second moments r_j = E[c_j^2] close on
    themselves: one step maps
        r_j <- (1 - eta (lam_j + damp))^2 r_j
               + eta^2 (lam_j s - lam_j^2 r_j) / B,   s = sum_l lam_l r_l,
    and cross moments never feed back into the diagonal.  For equal
    eigenvalues this collapses to a single growth factor per step, the
    ``second_moment_diagonal`` entry.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    coords = problem.rotation.T @ problem.u0
    r = coords**2
    lam = problem.eigenvalues
    contraction_sq = (1.0 - problem.eta * (lam + problem.lambda_damp)) ** 2
    scale = problem.eta**2 / problem.batch_size
    moments = np.empty(t_max + 1)
    moments[0] = r.sum()
    for t in range(1, t_max + 1):
        s = float(lam @ r)
        r = contraction_sq * r + scale * (lam * s - lam**2 * r)
        moments[t] = r.sum()
    return moments


@dataclass
class CounterExampleMonteCarlo:
    """Per-step Monte-Carlo moments over independent solver runs: E||u_t||^2
    with its standard error, and the norm of the mean iterate with the norm
    of its per-coordinate standard errors."""

    second_moment: np.ndarray
    second_moment_se: np.ndarray
    mean_norm: np.ndarray
    mean_se: np.ndarray


def counterexample_simulate(
    problem: CounterExampleProblem, n_runs: int, t: int, seed: int
) -> CounterExampleMonteCarlo:
    """Monte-Carlo E||u_t||^2 and mean-iterate norm from n_runs g = 0 solves.

    Each run reseeds the sampler from its own substream and snapshots every
    step, so the output exposes both the exploding second moment and the
    still-contracting mean for direct comparison with the closed forms.

    Accumulation order: a run's u0 and snapshots are copied into one
    (t+1, n) array, and the four running sums (||u||^2, ||u||^4, u, u*u per
    step) each take one array add per run, runs added in order.  Each
    ||u||^2 is the dot product u @ u, so the sums are bit for bit those of
    adding step by step.  Each step's mean-iterate norm is ``np.linalg.norm``
    of that step's row of the mean.
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
    run_u = np.empty((t + 1, problem.n))
    run_u[0] = problem.u0

    # run r's seed is derive_seed(seed, 17, r)
    for run_seed in derive_seeds(seed, 17, count=n_runs):
        cfg = LissaConfig(
            eta=problem.eta,
            lambda_damp=problem.lambda_damp,
            t_steps=t,
            seed=run_seed,
            snapshot_every=1,
            u0=problem.u0,
        )
        _, trace = lissa_solve(sampler, g, cfg)
        for step, u in trace.snapshots:
            run_u[step] = u
        nsq = (run_u[:, None, :] @ run_u[:, :, None])[:, 0, 0]
        sum_sq += nsq
        sum_sq2 += nsq * nsq
        sum_u += run_u
        sum_uu += run_u * run_u

    second = sum_sq / n_runs
    var_sq = np.maximum(sum_sq2 / n_runs - second**2, 0.0)
    mean_u = sum_u / n_runs
    var_u = np.maximum(sum_uu / n_runs - mean_u**2, 0.0)
    denom = n_runs - 1
    return CounterExampleMonteCarlo(
        second_moment=second,
        second_moment_se=np.sqrt(var_sq * n_runs / denom / n_runs),
        mean_norm=np.array([np.linalg.norm(row) for row in mean_u]),
        mean_se=np.sqrt(var_u.sum(axis=1) * n_runs / denom / n_runs),
    )
