"""Stochastic inverse-curvature solves plus convergence and divergence diagnostics.

The solver iterates u <- u - eta*((Hb + lambda) u - g) with a fresh curvature
batch each step and tracks iterate norms and snapshots.  It runs one solve,
or R independent solves as the chains of one (R, n) array program: one
``matvec`` per chain per step, then the update, the norms and the
divergence guard on the whole block.  Around it live the
dense-solve oracle used by every accuracy check, an influence-correlation
series for convergence studies, and a rotated rank-one curvature sampler whose
second moment is known in closed form, including the regime where the mean
iterate contracts while the second moment explodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SeededRng, SymEig, derive_seed, derive_seeds, pearson_corr

_DIVERGENCE_SCALE = 1e12
_FLOAT_MAX = float(np.finfo(np.float64).max)
# Chains that one pass of lissa_solve steps together.  Each live chain holds
# its own reseeded operator (a sampler's block of draws and its sign table,
# about 4 KB), so passes bound that memory whatever the number of chains.
_PASS_CHAINS = 256
# Iterate floats that one pass of counterexample_simulate keeps, over its runs.
_PASS_FLOATS = 1 << 20


@dataclass(frozen=True)
class LissaConfig:
    """Solver settings: step size, damping, step count, seeding.  The batch
    size belongs to the operator.  ``seed`` is one seed, or a tuple of one
    seed per chain of a lockstep solve."""

    eta: float
    lambda_damp: float
    t_steps: int
    seed: int | tuple[int, ...] = 0
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
    """Per-step iterate norms plus the iterates at selected steps: (T + 1,)
    norms and (n,) iterates for a single solve, (R, T + 1) and (R, n) for R
    chains.  The snapshots are copies in one block, and the last one is the
    array that the solve returns."""

    norms: np.ndarray
    snapshots: list[tuple[int, np.ndarray]]

    def final(self) -> np.ndarray:
        return self.snapshots[-1][1]


def _divergence_bound(g_norm: np.ndarray, u0_norm: np.ndarray, lambda_damp: float) -> np.ndarray:
    if lambda_damp > 0:
        return _DIVERGENCE_SCALE * (g_norm / lambda_damp + u0_norm)
    return _DIVERGENCE_SCALE * np.maximum(np.maximum(g_norm, u0_norm), 1.0)


def _row_norms(block: np.ndarray) -> np.ndarray:
    """sqrt(x . x) of each row of a C-contiguous (R, n) block: each (1, n) @
    (n, 1) product is the dot product that ``x.dot(x)`` computes, bit for
    bit, and sqrt is correctly rounded, as for np.linalg.norm of a row."""
    return np.sqrt((block[:, None, :] @ block[:, :, None])[:, 0, 0])


def lissa_solve(op, g, cfg: LissaConfig):
    """Run the damped stochastic iteration against operator ``op``.

    Every step applies a fresh curvature estimate, so the iterates target
    u* = (H + lambda)^-1 g where H is the operator's mean.  Returns the final
    iterate and a trace; raises LissaDivergenceError, carrying the faulting
    step, when an iterate goes non-finite or passes the runaway guard.

    One solve takes a (n,) ``g`` and an int ``cfg.seed``.  R solves run as R
    chains in lockstep when ``cfg.seed`` is a tuple of R seeds, with an (R, n)
    ``g`` or one (n,) ``g`` that every chain shares; ``cfg.u0`` is one (n,)
    start that every chain shares.  Chain r is a pure function of (op, g_r,
    seed_r): its operator is ``op.reseeded(seed_r)``, which every operator
    defines (one that draws nothing returns itself), and each step calls its
    ``matvec`` once on the chain's iterate, so chain r is bit for bit the
    single solve of (g_r, seed_r).  The rest of a step, u - eta ((H_b +
    lambda) u - g), the norms and the guard, runs on the (R, n) block.  The
    result is (R, n), the norms (R, T + 1).

    Chains step in passes of at most _PASS_CHAINS.  A chain that diverges is
    dropped together with every chain above it, while the chains below it
    step on to T, so the error names the lowest diverging chain, as solving
    the chains one by one in order would.

    ``op.matvec`` must return a float64 (n,) array; the solver copies it
    into its block.
    """
    g = np.asarray(g, dtype=np.float64)
    n = op.n_params
    if g.ndim not in (1, 2) or g.shape[-1] != n:
        raise ValueError("gradient does not match the operator")
    single = isinstance(cfg.seed, (int, np.integer))
    if single and g.ndim == 2:
        raise ValueError("a block of gradient rows needs a tuple of one seed per row")
    seeds = [cfg.seed] if single else list(cfg.seed)
    chains = len(g) if g.ndim == 2 else len(seeds)
    if chains < 1 or len(seeds) != chains:
        raise ValueError("need one seed, or one per gradient row")
    u0 = np.zeros(n) if cfg.u0 is None else np.asarray(cfg.u0, dtype=np.float64)
    if u0.shape != (n,):
        raise ValueError(f"u0 does not match the gradient: it is one ({n},) start, which every chain shares")

    t_steps, eta, damp, every = cfg.t_steps, cfg.eta, cfg.lambda_damp, cfg.snapshot_every
    kept = list(range(every, t_steps + 1, every)) if every else []
    if not kept or kept[-1] != t_steps:
        kept.append(t_steps)
    snapshots = np.empty((len(kept), chains, n))
    norms = np.empty((chains, t_steps + 1))
    diverged = None  # (step, norm) of the lowest diverging chain so far
    # a norm or a step that overflows is non-finite, which the guard reports
    with np.errstate(over="ignore", invalid="ignore"):
        # every (R, n) block is C-contiguous, so that the products that read
        # its rows, the row norms and each chain's matvec, take each row's
        # bits as they would a lone (n,) array's; a strided row can differ
        G = np.ascontiguousarray(g.reshape(-1, n))
        norms[:, 0] = u0_norm = _row_norms(np.ascontiguousarray(u0[None]))
        # a norm passes the guard when it is at most this: never when it is
        # non-finite, also where the bound itself overflows to inf
        limits = np.broadcast_to(
            np.minimum(_divergence_bound(_row_norms(G), u0_norm, damp), _FLOAT_MAX), chains
        )
        for start in range(0, chains, _PASS_CHAINS):
            rows = slice(start, min(start + _PASS_CHAINS, chains))
            matvecs = [op.reseeded(seed).matvec for seed in seeds[rows]]
            u = np.empty((len(matvecs), n))
            u[...] = u0
            g_rows = G[rows] if len(G) > 1 else G
            limit = limits[rows]
            kept_at = 0
            for step in range(1, t_steps + 1):
                # u - eta (H_b u + damp u - g), its operations in that order
                hu = np.concatenate([matvec(row) for matvec, row in zip(matvecs, u)]).reshape(u.shape)
                hu += damp * u
                hu -= g_rows
                hu *= eta
                u = u - hu
                norm = _row_norms(u)
                norms[start : start + len(u), step] = norm
                passed = norm <= limit
                if not passed.all():
                    live = int(np.argmin(passed))  # the lowest chain that failed
                    diverged = (step, float(norm[live]))
                    if not live:
                        break
                    matvecs, u, g_rows, limit = matvecs[:live], u[:live], g_rows[:live], limit[:live]
                elif diverged is None and step == kept[kept_at]:
                    snapshots[kept_at, rows] = u
                    kept_at += 1
            if diverged is not None:
                raise LissaDivergenceError(*diverged)

    if single:
        snapshots, norms = snapshots[:, 0], norms[0]
    trace = LissaTrace(norms=norms, snapshots=list(zip(kept, snapshots)))
    return trace.final(), trace


def exact_ihvp(H: np.ndarray, lambda_damp: float, g, eig: SymEig | None = None) -> np.ndarray:
    """Dense oracle: solve (H + lambda I) u = g to residual <= 1e-10 ||g||.

    ``H`` is a symmetric matrix that the caller has checked
    (``core.check_symmetric``).  A caller that holds ``eig`` =
    ``core.sym_eig(H)`` solves in that eigenbasis, V((V^T g)/(values +
    lambda)); otherwise one LU solve of H + lambda I.  Either way the residual
    is checked against H itself, which also rejects an ``eig`` of another
    matrix.  ``g`` is a vector or an (n, k) block, each column held to its own
    bound.  Raises ``np.linalg.LinAlgError`` when lambda <= 0, where a
    Gauss-Newton matrix, PSD and singular, leaves H + lambda I not positive
    definite, when the system is singular, or when a column misses the bound.
    """
    rhs = np.asarray(g, dtype=np.float64)
    n = H.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError("gradient does not match the matrix")
    if not lambda_damp > 0:
        raise np.linalg.LinAlgError(f"H + lambda I is not positive definite at lambda = {lambda_damp!r}")
    block = rhs.reshape(n, -1)
    bound = 1e-10 * np.linalg.norm(block, axis=0)
    # a near-singular system can overflow the solve, or divide by 0 in the
    # eigenbasis; the residual check reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if eig is None:
            system = H.copy()
            system.flat[:: n + 1] += lambda_damp
            u = np.linalg.solve(system, block)
        else:
            u = eig.vectors @ ((eig.vectors.T @ block) / (eig.values + lambda_damp)[:, None])
        miss = np.linalg.norm(block - (H @ u + lambda_damp * u), axis=0)
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
        noise = np.square(self.eta) * (self.trace * lam - lam**2) / self.batch_size
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
    makes the divergence threshold computable in closed form.  It draws its
    signs only from the stream of a ``reseeded(seed)`` copy.
    """

    def __init__(self, problem: CounterExampleProblem):
        self.rng = None
        self.n_params = problem.n
        self.segments = (("all", 0, problem.n),)
        self.batch_size = problem.batch_size
        self._root = np.sqrt(problem.eigenvalues)
        self._rotation = problem.rotation
        self._rotation_t = problem.rotation.T

    def reseeded(self, seed: int) -> "RotatedRankOneSampler":
        """Copy that draws its signs from a stream at ``seed``, sharing the
        square roots of the eigenvalues and the rotation."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, rng=SeededRng(seed))
        return twin

    def matvec(self, v: np.ndarray) -> np.ndarray:
        # ndarray.dot is the product of @, bit for bit, at less cost per call
        batch_size, n = self.batch_size, self.n_params
        if self.rng is None:
            raise ValueError("the sampler draws only from a stream: call reseeded(seed) first")
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
    scale = np.square(problem.eta) / problem.batch_size
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

    The runs are the chains of lockstep solves, in passes of at most
    _PASS_CHAINS runs whose (t + 1, n) iterate blocks together hold at most
    _PASS_FLOATS floats, or one run where one run holds more.

    Accumulation order: the four running sums (||u||^2, ||u||^4, u, u*u per
    step, a run's terms side by side in one row) each take one array add per
    run, runs added in order.  Each ||u||^2 is the dot product u @ u, so the
    sums are bit for bit those of adding step by step.  Each step's
    mean-iterate norm is ``np.linalg.norm`` of that step's row of the mean.
    """
    if n_runs < 2:
        raise ValueError("need at least two runs")
    if t < 1:
        raise ValueError("need at least one step")
    sampler = RotatedRankOneSampler(problem)
    g = np.zeros(problem.n)
    steps, width = t + 1, (t + 1) * problem.n
    per_pass = max(1, min(n_runs, _PASS_CHAINS, _PASS_FLOATS // width))
    # row r holds run r's ||u||^2 and ||u||^4 per step, then its u and u*u
    # per step, so a run is one add onto the running sums
    terms = np.empty((per_pass, 2 * steps + 2 * width))
    norm_sq, norm_4 = terms[:, :steps], terms[:, steps : 2 * steps]
    iterates = terms[:, 2 * steps : 2 * steps + width].reshape(per_pass, steps, problem.n)
    squares = terms[:, 2 * steps + width :].reshape(per_pass, steps, problem.n)
    iterates[:, 0] = problem.u0
    totals = np.zeros(terms.shape[1])

    # run r's seed is derive_seed(seed, 17, r)
    seeds = derive_seeds(seed, 17, count=n_runs)
    for start in range(0, n_runs, per_pass):
        cfg = LissaConfig(
            eta=problem.eta,
            lambda_damp=problem.lambda_damp,
            t_steps=t,
            seed=tuple(seeds[start : start + per_pass]),
            snapshot_every=1,
            u0=problem.u0,
        )
        _, trace = lissa_solve(sampler, g, cfg)
        k = len(cfg.seed)
        for step, u in trace.snapshots:
            iterates[:k, step] = u
        norm_sq[:k] = (iterates[:k, :, None, :] @ iterates[:k, :, :, None])[:, :, 0, 0]
        np.multiply(norm_sq[:k], norm_sq[:k], out=norm_4[:k])
        np.multiply(iterates[:k], iterates[:k], out=squares[:k])
        for row in terms[:k]:
            totals += row
    sum_sq, sum_sq2 = totals[:steps], totals[steps : 2 * steps]
    sum_u, sum_uu = totals[2 * steps :].reshape(2, steps, problem.n)

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
