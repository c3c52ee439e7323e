"""Acceptance gate: one test per headline guarantee of the solver stack.

Each test measures its quantity at the stated tolerance and registers a
single pass/fail line (also printed) for the terminal summary, so the run
log shows at a glance which guarantees hold.  Fixtures are seeded and the
measurements are deterministic.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lissakit.core import DenseOperator, SeededRng, derive_seed, sym_eig
from lissakit.gnh import GnhOperator, gnh_matrix_exact
from lissakit.influence import (
    eigen_reweight,
    eigen_reweight_reconstruction,
    influence_score,
)
from lissakit.lissa import (
    LissaConfig,
    convergence_correlation,
    counterexample_build,
    counterexample_moments,
    counterexample_simulate,
    exact_ihvp,
    lissa_solve,
)
from lissakit.models import (
    Dataset,
    ModelSpec,
    init_params,
    loss_gradient,
    make_blobs,
)
from lissakit.models import test_gradient as measurement_gradient
from lissakit.pbrf import PboConfig, compare_influences, pbrf_finetune, pbrf_influence
from lissakit.spectral import (
    SketchConfig,
    check_condition_c1,
    estimate_frobenius,
    estimate_trace,
    recommend_hyperparams,
    sketch_operator,
    top_eigenvalues_from_sketch,
)
from lissakit.tfidf import BowParams, sample_corpus, tfidf_equivalence_check


def report(log, index, ok, detail):
    line = f"criterion {index:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    log.append(line)
    print(line)
    return line


@pytest.fixture(scope="session")
def oracle():
    """500-parameter softmax-linear model against a dense curvature oracle.

    Runs the full estimation pipeline (trace probes, eigenvalue sketch,
    recommended settings, one stochastic solve) once and keeps the dense
    reference quantities next to it.
    """
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(49, 10))
    theta = init_params(spec, SeededRng(11), scale=0.5)
    data = make_blobs(SeededRng(12), 2000, 49, 10, separation=2.0)
    H = gnh_matrix_exact(spec, theta, data)
    eigs = sym_eig(H).values
    g = -loss_gradient(spec, theta, data[0]).values

    t0 = time.monotonic()
    op = GnhOperator(spec, theta, data)
    trace_est = estimate_trace(op, 300, SeededRng(13))
    sketch = sketch_operator(op, SketchConfig(d=1000, seed=14, layout="summed"))
    lam_hat = float(top_eigenvalues_from_sketch(sketch)[0])
    lam_damp = 0.02 * lam_hat
    hp = recommend_hyperparams(
        trace_est.mean * spec.n_params, lam_hat, lam_damp, c_const=2.0, t_multiplier=2.0
    )
    op_batch = GnhOperator(
        spec, theta, data, batch_size=hp.batch_size_min, rng=SeededRng(0)
    )
    cfg = LissaConfig(
        eta=hp.eta,
        lambda_damp=lam_damp,
        t_steps=hp.t_steps,
        seed=21,
    )
    u_final, _ = lissa_solve(op_batch, g, cfg)
    seconds = time.monotonic() - t0

    return SimpleNamespace(
        spec=spec,
        theta=theta,
        data=data,
        H=H,
        eigs=eigs,
        g=g,
        lam_damp=lam_damp,
        hp=hp,
        op_batch=op_batch,
        base_cfg=cfg,
        u_final=np.asarray(u_final),
        u_star=exact_ihvp(sym_eig(H), lam_damp, g),
        seconds=seconds,
    )


@pytest.fixture(scope="session")
def mlp_fixture():
    """Small tanh classifier with a 200/100 train/test split."""
    spec = ModelSpec(kind="mlp", layer_sizes=(8, 6, 4), activation="tanh")
    theta = init_params(spec, SeededRng(60), scale=0.5)
    blobs = make_blobs(SeededRng(61), 300, 8, 4, separation=2.0)
    train = Dataset(X=blobs.X[:200], y=blobs.y[:200], ids=blobs.ids[:200])
    tests = Dataset(X=blobs.X[200:], y=blobs.y[200:], ids=blobs.ids[200:])
    H = gnh_matrix_exact(spec, theta, train)
    eigs = sym_eig(H).values
    return SimpleNamespace(spec=spec, theta=theta, train=train, tests=tests, eigs=eigs)


def test_criterion_01_solver_matches_dense_oracle(oracle, acceptance_log):
    fx = oracle
    u_star = fx.u_star
    star_sq = float(u_star @ u_star)
    err = float(np.sum((fx.u_final - u_star) ** 2)) / star_sq
    floor = (
        fx.hp.eta**2
        * float(np.trace(fx.H))
        / fx.hp.batch_size_min
        * float(fx.g @ u_star)
        / star_sq
    )
    bound = 10.0 * floor
    damp_ratio = fx.lam_damp / float(fx.eigs[0])
    ok = err <= bound and 0.01 <= damp_ratio <= 0.1 and fx.seconds < 60.0
    line = report(
        acceptance_log,
        1,
        ok,
        f"relative error {err:.2e} <= {bound:.2e} (10x sampling floor), "
        f"damping ratio {damp_ratio:.3f}, pipeline {fx.seconds:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_02_mean_iterate_contracts(oracle, acceptance_log):
    fx = oracle
    assert fx.hp.t_steps > 50
    checkpoints = (10, 50, fx.hp.t_steps)
    runs = 500
    sums = {t: np.zeros(fx.spec.n_params) for t in checkpoints}
    squares = {t: np.zeros(fx.spec.n_params) for t in checkpoints}
    base = replace(fx.base_cfg, snapshot_every=10)
    for m in range(runs):
        _, trace_run = lissa_solve(fx.op_batch, fx.g, replace(base, seed=derive_seed(77, m)))
        snap = dict(trace_run.snapshots)
        for t in checkpoints:
            sums[t] += snap[t]
            squares[t] += snap[t] ** 2
    rate = 1.0 - fx.lam_damp * fx.hp.eta
    start_dist = float(np.linalg.norm(fx.u_star))  # u0 = 0
    parts = []
    ok = True
    for t in checkpoints:
        mean = sums[t] / runs
        var = np.maximum(squares[t] / runs - mean**2, 0.0)
        se = math.sqrt(float(var.sum()) / runs)
        lhs = float(np.linalg.norm(mean - fx.u_star))
        rhs = rate**t * start_dist + 3.0 * se
        ok = ok and lhs <= rhs
        parts.append(f"t={t}: {lhs:.2f}<={rhs:.2f}")
    line = report(
        acceptance_log, 2, ok, f"{runs}-seed mean vs contraction bound, " + ", ".join(parts)
    )
    assert ok, line


def test_criterion_03_small_batch_second_moment_divergence(acceptance_log):
    # ten equal unit eigenvalues, eta saturating the step bound, single-sample
    # batches: the iterate's second moment explodes while its mean contracts
    problem, _ = counterexample_build(10, 1.0, 1, 0.1, 1.0 / 1.1, seed=0)
    growth = float(problem.second_moment_diagonal.max())
    exact = counterexample_moments(problem, 8)
    mc = counterexample_simulate(problem, 2000, 8, seed=36)
    rel = np.abs(mc.second_moment[1:] / exact[1:] - 1.0)
    mean_mc = counterexample_simulate(problem, 500, 8, seed=36)
    rate = 1.0 - problem.lambda_damp * problem.eta
    start = float(np.linalg.norm(problem.u0))
    contracts = all(
        float(np.linalg.norm(mean_mc.mean_iterate[t]))
        <= rate**t * start + 3.0 * mean_mc.mean_iterate_se[t]
        for t in range(1, 9)
    )
    ok = (
        abs(growth - 9.0 / 1.21) < 1e-12
        and problem.batch_threshold > problem.batch_size
        and float(rel.max()) <= 0.15
        and contracts
    )
    line = report(
        acceptance_log,
        3,
        ok,
        f"second moment grows x{growth:.2f}/step, MC off closed form by "
        f"{float(rel.max()) * 100:.1f}% <= 15% (t<=8), mean iterate contracts",
    )
    assert ok, line


def test_criterion_04_small_batches_stabilize_later(acceptance_log):
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(16, 5))
    theta = init_params(spec, SeededRng(50), scale=0.5)
    data = make_blobs(SeededRng(51), 512, 16, 5, separation=6.0)
    H = gnh_matrix_exact(spec, theta, data)
    eigs = sym_eig(H).values
    lam_max = float(eigs[0])
    lam_damp = 0.1 * lam_max
    hp = recommend_hyperparams(
        float(np.trace(H)), lam_max, lam_damp, c_const=2.0, t_multiplier=2.0
    )
    g = -loss_gradient(spec, theta, data[0]).values
    grads = [measurement_gradient(spec, theta, data[i]).values for i in range(1, 21)]
    t_run = int(1.5 * hp.t_steps)

    def crossing_step(batch, seed, trials):
        """First step where the trial-averaged correlation-to-final hits 0.99."""
        series = []
        for i in range(trials):
            op = GnhOperator(spec, theta, data, batch_size=batch, rng=SeededRng(0))
            cfg = LissaConfig(
                eta=hp.eta,
                lambda_damp=lam_damp,
                t_steps=t_run,
                seed=derive_seed(seed, batch, i),
                snapshot_every=1,
            )
            _, trace_run = lissa_solve(op, g, cfg)
            series.append([c for _, c in convergence_correlation(trace_run, grads)])
        averaged = np.mean(np.asarray(series), axis=0)
        for step, corr in zip(range(1, t_run + 1), averaged):
            if corr >= 0.99:
                return step
        return t_run + 1

    small = max(1, hp.batch_size_min // 10)
    rows = []
    ok = True
    for rep in range(5):
        cs = crossing_step(small, 1000 + rep, 10)
        cr = crossing_step(hp.batch_size_min, 1000 + rep, 1)
        cd = crossing_step(2 * hp.batch_size_min, 1000 + rep, 1)
        ok = ok and cr < cs and cd < cs
        rows.append(f"{cr}/{cd}<{cs}")
    line = report(
        acceptance_log,
        4,
        ok,
        f"steps to corr>=0.99, batch {hp.batch_size_min}/{2 * hp.batch_size_min} vs "
        f"{small}-sample average: " + " ".join(rows),
    )
    assert ok, line


def test_criterion_05_batch_noise_scales_inversely(acceptance_log):
    spec = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta = init_params(spec, SeededRng(5), scale=0.5)
    data = make_blobs(SeededRng(6), 512, 10, 4)
    rows = check_condition_c1(
        spec, theta, data, [8, 16, 32, 64], n_probes=1500, rng=SeededRng(32)
    )
    xs = np.log([r.batch_size for r in rows])
    ys = np.log([r.lhs_trace.mean for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    full = check_condition_c1(
        spec, theta, data, [len(data)], n_probes=10, rng=SeededRng(30)
    )[0]
    full_ok = abs(full.lhs_trace.mean) <= 3.0 * full.lhs_trace.se
    ok = -1.2 <= slope <= -0.8 and full_ok
    line = report(
        acceptance_log,
        5,
        ok,
        f"log-log noise-vs-batch slope {slope:.3f} in [-1.2, -0.8], "
        f"full-batch noise {full.lhs_trace.mean:.1e} within 3se",
    )
    assert ok, line


def test_criterion_06_randomized_spectral_estimates(oracle, acceptance_log):
    fx = oracle
    dense = DenseOperator(fx.H)
    n = fx.spec.n_params
    trace_exact = float(np.trace(fx.H)) / n
    frob_sq_exact = float(np.sum(fx.H * fx.H)) / n

    est_t = estimate_trace(dense, 2000, SeededRng(40))
    est_f = estimate_frobenius(dense, 2000, SeededRng(41))
    t_ok = abs(est_t.mean - trace_exact) <= 3.0 * est_t.se
    f_ok = abs(est_f.mean - frob_sq_exact) <= 3.0 * est_f.se

    # 120 independent three-sigma checks should almost never trip
    fails = 0
    for rep in range(60):
        et = estimate_trace(dense, 200, SeededRng(derive_seed(42, rep)))
        ef = estimate_frobenius(dense, 200, SeededRng(derive_seed(43, rep)))
        fails += int(abs(et.mean - trace_exact) > 3.0 * et.se)
        fails += int(abs(ef.mean - frob_sq_exact) > 3.0 * ef.se)
    rate_ok = fails <= 2

    lam_exact = float(fx.eigs[0])
    sketch = sketch_operator(dense, SketchConfig(d=1000, seed=44, layout="summed"))
    lam_hat = float(top_eigenvalues_from_sketch(sketch)[0])
    lam_tol = max(0.10 * lam_exact, 5.0 * math.sqrt(frob_sq_exact * n) / math.sqrt(1000))
    lam_ok = abs(lam_hat - lam_exact) <= lam_tol

    ok = t_ok and f_ok and rate_ok and lam_ok
    line = report(
        acceptance_log,
        6,
        ok,
        f"trace/frobenius within 3se at 2000 probes, {fails}/120 retrial "
        f"excursions, top eigenvalue off {abs(lam_hat - lam_exact):.3f} <= {lam_tol:.3f}",
    )
    assert ok, line


PUBLISHED_SETTINGS = [
    # model, parameters, trace per parameter, top eigenvalue, step size, batch, steps
    ("resnet18", 11_000_000, 1.32e-3, 270.0, 0.003, 100, 150),
    ("resnet50", 25_000_000, 8.17e-4, 470.0, 0.002, 5, 200),
    ("opt-1.3b", 1_300_000_000, 9.28e-6, 780.0, 0.001, 30, 500),
    ("llama-7b", 7_000_000_000, 5.69e-6, 1600.0, 0.0005, 50, 1000),
    ("mistral-7b", 7_000_000_000, 8.18e-5, 5600.0, 0.0002, 200, 2000),
]


def test_criterion_07_published_settings_within_factor(acceptance_log):
    """Recommendations vs the settings published for five large models.

    Each published (step size, batch size, step count) cell should land
    within a factor of 1.5 of the rule-based recommendation computed from
    that model's published spectral statistics (damping 5.0, noise constant
    2, step-count multiplier 2).
    """
    bad = []
    for name, n_params, trace_per, lam_max, eta_pub, batch_pub, steps_pub in PUBLISHED_SETTINGS:
        hp = recommend_hyperparams(
            trace_per * n_params, lam_max, 5.0, c_const=2.0, t_multiplier=2.0
        )
        cells = (
            ("eta", hp.eta, eta_pub),
            ("batch", float(hp.batch_size_min), float(batch_pub)),
            ("steps", float(hp.t_steps), float(steps_pub)),
        )
        for label, mine, published in cells:
            factor = max(mine / published, published / mine)
            if factor > 1.5:
                bad.append(f"{name} {label} {factor:.2f}x")
    ok = not bad
    detail = (
        "all 15 published cells within 1.5x of the recommendation"
        if ok
        else f"{len(bad)}/15 cells outside 1.5x: " + ", ".join(bad)
    )
    line = report(acceptance_log, 7, ok, detail)
    assert ok, line


def _paired_scores(spec, theta, train_set, test_points, lam_damp, eta, steps, batch,
                   solver_base, finetune_base):
    """Influence scores from the stochastic solver and from finetuning, as
    (25, J) arrays: train point i against test point j."""
    test_grads = [measurement_gradient(spec, theta, test_points[j]) for j in range(len(test_points))]
    solver_scores = []
    for i in range(25):
        g = loss_gradient(spec, theta, train_set[i])
        op = GnhOperator(spec, theta, train_set, batch_size=batch, rng=SeededRng(0))
        cfg = LissaConfig(
            eta=eta,
            lambda_damp=lam_damp,
            t_steps=steps,
            seed=derive_seed(solver_base, i),
        )
        u, _ = lissa_solve(op, -g.values, cfg)
        solver_scores.append([influence_score(u, tg) for tg in test_grads])
    pbo = PboConfig(
        epsilon=1e-8,
        lambda_damp=lam_damp,
        lr=eta,
        steps=steps,
        batch_size=batch,
        seed=tuple(derive_seed(finetune_base, i) for i in range(25)),
    )
    points = Dataset(X=train_set.X[:25], y=train_set.y[:25], ids=train_set.ids[:25])
    results = pbrf_finetune(spec, theta, points, train_set, pbo)
    return np.array(solver_scores), pbrf_influence(spec, results, theta, test_points, 1e-8)


def test_criterion_08_solver_agrees_with_finetuning(mlp_fixture, acceptance_log):
    fx = mlp_fixture
    lam_max = float(fx.eigs[0])
    lam_damp = 0.1 * lam_max
    eta = 1.0 / (lam_max + lam_damp)
    steps = math.ceil(2.0 / (lam_damp * eta))
    solver, finetuned = _paired_scores(
        fx.spec, fx.theta, fx.train, fx.tests, lam_damp, eta, steps, 16,
        solver_base=700, finetune_base=800,
    )
    comparison = compare_influences(solver, finetuned)
    pearson_ok = comparison.pearson >= 0.9

    # linear logits make the finetuning objective exactly quadratic, so with
    # shared batch streams the two pipelines should agree score by score
    spec2 = ModelSpec(kind="softmax-linear", layer_sizes=(10, 4))
    theta2 = init_params(spec2, SeededRng(62), scale=0.5)
    blobs2 = make_blobs(SeededRng(63), 260, 10, 4, separation=2.0)
    train2 = Dataset(X=blobs2.X[:160], y=blobs2.y[:160], ids=blobs2.ids[:160])
    tests2 = Dataset(X=blobs2.X[160:], y=blobs2.y[160:], ids=blobs2.ids[160:])
    H2 = gnh_matrix_exact(spec2, theta2, train2)
    eigs2 = sym_eig(H2).values
    lam2 = 0.1 * float(eigs2[0])
    eta2 = 1.0 / (float(eigs2[0]) + lam2)
    steps2 = math.ceil(2.0 / (lam2 * eta2))
    solver2, finetuned2 = _paired_scores(
        spec2, theta2, train2, tests2, lam2, eta2, steps2, 16,
        solver_base=601, finetune_base=601,
    )
    worst = float(np.max(np.abs(solver2 - finetuned2) / np.maximum(np.abs(solver2), np.abs(finetuned2))))
    pointwise_ok = worst <= 0.02

    ok = pearson_ok and pointwise_ok
    line = report(
        acceptance_log,
        8,
        ok,
        f"2500-pair pearson {comparison.pearson:.3f} >= 0.9, linear-model "
        f"pointwise gap {worst:.1e} <= 2%",
    )
    assert ok, line


def test_criterion_09_finite_difference_curvature(mlp_fixture, acceptance_log):
    fx = mlp_fixture
    exact = GnhOperator(fx.spec, fx.theta, fx.train)
    rng = SeededRng(90)
    directions = []
    for _ in range(100):
        v = rng.normal(fx.spec.n_params)
        directions.append(v / np.linalg.norm(v))

    def rel_errors(delta):
        fd = GnhOperator(fx.spec, fx.theta, fx.train, fd_delta=delta)
        errs = []
        for v in directions:
            reference = exact.matvec(v)
            errs.append(
                float(np.linalg.norm(fd.matvec(v) - reference))
                / float(np.linalg.norm(reference))
            )
        return np.array(errs)

    err_small = rel_errors(0.01)
    err_large = rel_errors(0.02)
    ratio = float(err_large.mean() / err_small.mean())
    # halving delta should shrink the error about fourfold
    ok = float(err_small.max()) <= 1e-3 and 3.2 <= ratio <= 4.8
    line = report(
        acceptance_log,
        9,
        ok,
        f"worst relative error {float(err_small.max()):.1e} <= 1e-3 at delta 0.01, "
        f"error ratio 0.02/0.01 = {ratio:.2f} in [3.2, 4.8]",
    )
    assert ok, line


def test_criterion_10_tfidf_matches_influence(acceptance_log):
    rng = SeededRng(1)
    raw = rng.uniform(10) * 0.4 + 0.8
    probs = raw / raw.sum()
    params = BowParams.from_probabilities(probs)
    corpus = sample_corpus(SeededRng(101), 50, 8, probs)
    doc_len_sq = float(corpus.doc_length**2)

    lambdas = (1e-8, 1e-6, 1e-4)
    worst = {}
    for lam in lambdas:
        influence, _, form = tfidf_equivalence_check(corpus, params, lam)
        upper = np.triu_indices(corpus.n_docs)  # the unordered pairs a <= b
        worst[lam] = float(np.abs(influence[upper] - form[upper]).max())
    tight_ok = worst[1e-8] <= 1e-6 * doc_len_sq
    slopes = [worst[lam] / lam for lam in lambdas]
    linear_ok = max(slopes) <= 1.2 * min(slopes)
    ok = tight_ok and linear_ok
    line = report(
        acceptance_log,
        10,
        ok,
        f"worst residual {worst[1e-8]:.1e} <= {1e-6 * doc_len_sq:.1e} at damping 1e-8, "
        f"residual/damping spread {max(slopes) / min(slopes):.3f} <= 1.2",
    )
    assert ok, line


def test_criterion_11_eigen_reweighting_reconstruction(acceptance_log):
    worst_recon = 0.0
    weights_exact = True
    for seed in (70, 71, 72):
        rng = SeededRng(seed)
        A = rng.normal(30 * 30).reshape(30, 30)
        H = A @ A.T / 30.0
        g = SeededRng(seed + 5).normal(30)
        eig = sym_eig(H)
        for lam in (0.1, 1.0):
            # an oracle independent of the decomposition under test
            target = lam * np.linalg.solve(H + lam * np.eye(30), g)
            recon = eigen_reweight_reconstruction(g, eig, lam)
            gap = float(np.linalg.norm(recon - target)) / float(np.linalg.norm(target))
            worst_recon = max(worst_recon, gap)
            for eigenvalue, _, weight in eigen_reweight(g, eig, lam):
                weights_exact = weights_exact and weight == lam / (eigenvalue + lam)
    ok = worst_recon <= 1e-8 and weights_exact
    line = report(
        acceptance_log,
        11,
        ok,
        f"reconstruction off damped solve by {worst_recon:.1e} <= 1e-8, "
        f"reweighting factors exact",
    )
    assert ok, line
