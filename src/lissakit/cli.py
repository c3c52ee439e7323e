"""Command-line experiment harness.

Each subcommand reads one flat config file, derives every random stream from
the global seed plus a component name, writes CSV artifacts plus a manifest
into the output directory, and exits 0 on success, 2 on configuration
problems, 3 on numerical overflow, and 4 when a built-in oracle check fails.
Reruns with the same config and seed are byte-identical; worker threads only
ever split work whose substreams are fixed up front, so --threads never
changes any output.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, component_seed, load_config, sha256_hex
from .core import MeanSe, SeededRng, sym_eig
from .gnh import MAX_DENSE_PARAMS, GnhOperator, gnh_matrix_exact
from .influence import eigen_reweight, influence_score, similarity_matrix
from .lissa import (
    LissaConfig,
    LissaDivergenceError,
    counterexample_build,
    counterexample_moments,
    counterexample_simulate,
    exact_ihvp,
    lissa_solve,
    convergence_correlation,
)
from .models import (
    Dataset,
    ModelSpec,
    init_params,
    load_dataset_csv,
    loss_gradient,
    make_blobs,
    test_gradient as measurement_gradient,
)
from .pbrf import PboConfig, compare_influences, pbrf_finetune, pbrf_influence
from .spectral import (
    SketchConfig,
    SpectralStats,
    check_condition_c1,
    estimate_frobenius,
    estimate_trace,
    recommend_hyperparams,
    sketch_operator,
    step_count,
    step_size,
    top_eigenvalues_from_sketch,
)
from .tfidf import BowParams, corpus_from_text, sample_corpus, tfidf_equivalence_check

MANIFEST_FORMAT = "lissakit-run-1"


class OracleMismatchError(RuntimeError):
    """A built-in accuracy assertion failed during a run."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class RunContext:
    """Output directory, seeding, and artifact bookkeeping for one run."""

    def __init__(self, cfg: ExperimentConfig, out_dir: Path, seed: int, threads: int, config_sha: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.threads = threads
        self.config_sha = config_sha
        self.outputs: list[tuple[str, str]] = []

    def sub_seed(self, name: str) -> int:
        return component_seed(self.seed, name)

    def rng(self, name: str) -> SeededRng:
        return SeededRng(self.sub_seed(name))

    def emit_text(self, name: str, text: str) -> None:
        (self.out_dir / name).write_text(text)
        self.outputs.append((name, sha256_hex(text)))

    def emit_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(cell) for cell in row))
        self.emit_text(name, "\n".join(lines) + "\n")

    def write_manifest(self, command: str) -> None:
        lines = [
            f"format = {MANIFEST_FORMAT}",
            f"command = {command}",
            f"config_sha256 = {self.config_sha}",
            f"seed = {self.seed}",
            f"package_version = {__version__}",
        ]
        for name, sha in sorted(self.outputs):
            lines.append(f"output {name} sha256 = {sha}")
        (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")

    def map_items(self, fn, items):
        """Apply fn over items, in parallel when configured.

        Results come back in item order regardless of scheduling; every item
        must draw randomness only from substreams fixed before dispatch.
        """
        if self.threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, items))


def _build_model(run: RunContext):
    cfg = run.cfg
    try:
        spec = ModelSpec(cfg.model_kind, cfg.layer_sizes, cfg.activation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    theta = init_params(spec, run.rng("init"), cfg.init_scale)
    return spec, theta


def _build_data(run: RunContext, spec: ModelSpec, n_test: int = 0):
    """Train set plus an optional held-out tail of n_test examples."""
    cfg = run.cfg
    if cfg.dataset_path is not None:
        try:
            full = load_dataset_csv(cfg.dataset_path)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {cfg.dataset_path!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if full.X.shape[1] != spec.input_dim or int(full.y.max()) >= spec.n_classes:
            raise ConfigError("dataset does not match the model's input/classes")
        if int(full.y.min()) < 0:
            raise ConfigError("dataset labels must be non-negative")
    else:
        full = make_blobs(
            run.rng("dataset"),
            cfg.n_examples + n_test,
            spec.input_dim,
            spec.n_classes,
            cfg.separation,
        )
    if n_test == 0:
        return full, None
    if len(full) <= n_test:
        raise ConfigError("dataset too small for the requested test split")
    cut = len(full) - n_test
    train = Dataset(X=full.X[:cut], y=full.y[:cut], ids=full.ids[:cut])
    test = Dataset(X=full.X[cut:], y=full.y[cut:], ids=full.ids[cut:])
    return train, test


def _dense_gnh(spec: ModelSpec, theta, train) -> np.ndarray:
    if spec.n_params > MAX_DENSE_PARAMS:
        raise ConfigError(
            "model too large for the dense reference; set eta/t_steps/tolerance explicitly"
        )
    return gnh_matrix_exact(spec, theta, train)


def _solver_settings(run: RunContext, dense_gnh: np.ndarray):
    """eta and t_steps from config, filling gaps from the dense spectrum."""
    cfg = run.cfg
    lambda_max = float(sym_eig(dense_gnh)[0][0])
    eta = cfg.eta if cfg.eta is not None else step_size(lambda_max, cfg.lambda_damp)
    t_steps = cfg.t_steps
    if t_steps is None:
        t_steps = step_count(eta, cfg.lambda_damp, cfg.t_multiplier)
        if t_steps is None:
            raise ConfigError("t_steps must be given when lambda_damp is 0")
    return eta, t_steps


def _stochastic_operator(run: RunContext, spec, theta, train, batch_size):
    cfg = run.cfg
    return GnhOperator(
        spec,
        theta,
        train,
        batch_size=batch_size,
        rng=SeededRng(0) if batch_size is not None else None,
        fd_delta=cfg.fd_delta if cfg.hvp_mode == "fd" else None,
    )


def cmd_stats(run: RunContext) -> None:
    cfg = run.cfg
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec)
    op = _stochastic_operator(run, spec, theta, train, None)
    trace = estimate_trace(op, cfg.n_probes, run.rng("trace-probes"))
    frob = estimate_frobenius(op, cfg.n_probes, run.rng("frobenius-probes"))
    sketch = sketch_operator(
        op, SketchConfig(d=cfg.sketch_dim, seed=run.sub_seed("sketch"), layout=cfg.sketch_layout)
    )
    lambda_top = float(top_eigenvalues_from_sketch(sketch, 1)[0])
    stats = SpectralStats(
        n_params=op.n_params,
        trace_per_param=trace,
        frobenius_sq_per_param=frob,
        lambda_max=lambda_top,
    )
    hp = recommend_hyperparams(stats, cfg.lambda_damp, cfg.c_const, cfg.t_multiplier)
    trace_total = trace.mean * op.n_params
    frob_norm = math.sqrt(max(frob.mean, 0.0) * op.n_params)
    run.emit_csv(
        "stats.csv",
        [
            "n_params",
            "trace",
            "trace_se",
            "frobenius_norm",
            "lambda_max",
            "eta",
            "batch_size",
            "t_steps",
        ],
        [
            (
                op.n_params,
                trace_total,
                trace.se * op.n_params,
                frob_norm,
                lambda_top,
                hp.eta,
                hp.batch_size_min,
                hp.t_steps,
            )
        ],
    )
    print(f"n_params = {op.n_params}")
    print(f"trace = {_fmt(trace_total)}")
    print(f"lambda_max = {_fmt(lambda_top)}")
    print(f"eta = {_fmt(hp.eta)}")
    print(f"batch_size = {hp.batch_size_min}")
    print(f"t_steps = {_fmt(hp.t_steps)}")


def cmd_recommend(run: RunContext) -> None:
    cfg = run.cfg
    trace_total, lambda_max = cfg.require("trace", "lambda_max")
    stats = SpectralStats(
        n_params=1,
        trace_per_param=MeanSe(mean=trace_total, se=0.0, n=1),
        frobenius_sq_per_param=None,
        lambda_max=lambda_max,
    )
    try:
        hp = recommend_hyperparams(stats, cfg.lambda_damp, cfg.c_const, cfg.t_multiplier)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run.emit_csv(
        "recommend.csv",
        ["eta", "batch_size", "t_steps", "lambda_damp", "c_const", "t_multiplier"],
        [(hp.eta, hp.batch_size_min, hp.t_steps, cfg.lambda_damp, cfg.c_const, cfg.t_multiplier)],
    )
    print(f"eta = {_fmt(hp.eta)}")
    print(f"batch_size = {hp.batch_size_min}")
    print(f"t_steps = {_fmt(hp.t_steps)}")


def cmd_lissa(run: RunContext) -> None:
    cfg = run.cfg
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec)
    if not 0 <= cfg.train_index < len(train):
        raise ConfigError("train_index outside the dataset")
    g = -loss_gradient(spec, theta, train[cfg.train_index]).values

    dense = None
    if cfg.eta is None or cfg.t_steps is None or cfg.tolerance is not None:
        dense = _dense_gnh(spec, theta, train)
    if cfg.eta is None or cfg.t_steps is None:
        eta, t_steps = _solver_settings(run, dense)
    else:
        eta, t_steps = cfg.eta, cfg.t_steps

    op = _stochastic_operator(run, spec, theta, train, cfg.batch_size)
    lcfg = LissaConfig(
        eta=eta,
        lambda_damp=cfg.lambda_damp,
        t_steps=t_steps,
        seed=run.sub_seed("lissa"),
        snapshot_every=cfg.snapshot_every,
    )
    u, trace = lissa_solve(op, g, lcfg)

    if cfg.hvp_mode == "fd" and cfg.fd_delta * float(trace.norms.max()) > 1.0:
        print(
            "warning: fd step times iterate norm exceeds 1; "
            "finite-difference curvature may be inaccurate",
            file=sys.stderr,
        )

    run.emit_csv(
        "lissa_trace.csv",
        ["step", "u_norm"],
        [(step, trace.norms[step]) for step in range(t_steps + 1)],
    )
    run.emit_csv("solution.csv", ["index", "value"], list(enumerate(u)))

    if cfg.tolerance is not None:
        u_star = exact_ihvp(dense, cfg.lambda_damp, g)
        rel = float(np.linalg.norm(u - u_star) / np.linalg.norm(u_star))
        print(f"relative_error = {_fmt(rel)}")
        if rel > cfg.tolerance:
            raise OracleMismatchError(
                f"solve error {rel:.3e} above tolerance {cfg.tolerance:.3e}"
            )


def cmd_convergence(run: RunContext) -> None:
    cfg = run.cfg
    if cfg.n_test < 2:
        raise ConfigError("convergence needs n_test >= 2")
    batch_sizes = cfg.require("batch_sizes")
    spec, theta = _build_model(run)
    train, test = _build_data(run, spec, n_test=cfg.n_test)
    if not 0 <= cfg.train_index < len(train):
        raise ConfigError("train_index outside the dataset")

    dense = _dense_gnh(spec, theta, train)
    eta, t_steps = _solver_settings(run, dense)
    g = -loss_gradient(spec, theta, train[cfg.train_index]).values
    u_star = exact_ihvp(dense, cfg.lambda_damp, g)
    test_grads = [measurement_gradient(spec, theta, test[j]).values for j in range(len(test))]
    snapshot_every = cfg.snapshot_every or max(1, t_steps // 50)

    def one_batch_size(b: int):
        op = _stochastic_operator(run, spec, theta, train, b)
        lcfg = LissaConfig(
            eta=eta,
            lambda_damp=cfg.lambda_damp,
            t_steps=t_steps,
            seed=run.sub_seed(f"convergence-batch-{b}"),
            snapshot_every=snapshot_every,
        )
        _, trace = lissa_solve(op, g, lcfg)
        series = convergence_correlation(trace, test_grads, reference=u_star)
        return [(b, step, corr) for step, corr in series]

    chunks = run.map_items(one_batch_size, list(batch_sizes))
    rows = [row for chunk in chunks for row in chunk]
    run.emit_csv("convergence.csv", ["batch_size", "step", "correlation"], rows)


def cmd_pbrf_compare(run: RunContext) -> None:
    cfg = run.cfg
    if cfg.n_train * cfg.n_test < 10:
        raise ConfigError("need at least ten (train, test) pairs to compare")
    spec, theta = _build_model(run)
    train, test = _build_data(run, spec, n_test=cfg.n_test)
    if cfg.n_train > len(train):
        raise ConfigError("n_train exceeds the training set")

    dense = _dense_gnh(spec, theta, train)
    eta, t_steps = _solver_settings(run, dense)
    batch_size = cfg.batch_size if cfg.batch_size is not None else 32
    lr = cfg.pbrf_lr if cfg.pbrf_lr is not None else eta
    steps = cfg.pbrf_steps if cfg.pbrf_steps is not None else t_steps
    test_examples = [test[j] for j in range(len(test))]
    test_grads = [measurement_gradient(spec, theta, ex).values for ex in test_examples]

    def one_train_point(i: int):
        item_seed = run.sub_seed(f"pbrf-item-{i}")
        example = train[i]
        g = loss_gradient(spec, theta, example)
        op = _stochastic_operator(run, spec, theta, train, batch_size)
        lcfg = LissaConfig(
            eta=lr,
            lambda_damp=cfg.lambda_damp,
            t_steps=steps,
            seed=item_seed,
        )
        u, _ = lissa_solve(op, -g.values, lcfg)
        solver_scores = {
            (example.id, ex.id): influence_score(u, tg)
            for ex, tg in zip(test_examples, test_grads)
        }
        pcfg = PboConfig(
            epsilon=cfg.epsilon,
            lambda_damp=cfg.lambda_damp,
            lr=lr,
            steps=steps,
            batch_size=batch_size,
            seed=item_seed,
        )
        result = pbrf_finetune(spec, theta, example, train, pcfg)
        retrain_scores = pbrf_influence(spec, result, theta, test_examples, cfg.epsilon)
        retrain_scores = {
            (example.id, test_id): score for test_id, score in retrain_scores.items()
        }
        return solver_scores, retrain_scores

    solver_map: dict = {}
    retrain_map: dict = {}
    for solver_scores, retrain_scores in run.map_items(one_train_point, list(range(cfg.n_train))):
        solver_map.update(solver_scores)
        retrain_map.update(retrain_scores)

    comparison = compare_influences(solver_map, retrain_map)
    run.emit_csv(
        "pbrf_pairs.csv",
        ["train_id", "test_id", "lissa", "pbrf"],
        [(tid[0], tid[1], a, b) for tid, a, b in comparison.rows],
    )
    counts = comparison.class_counts
    run.emit_csv(
        "pbrf_summary.csv",
        ["pearson", "slope", "n_agreeing", "n_disagreeing", "n_near_zero"],
        [
            (
                comparison.pearson,
                comparison.slope,
                counts.get("agreeing", 0),
                counts.get("disagreeing", 0),
                counts.get("near_zero", 0),
            )
        ],
    )
    print(f"pearson = {_fmt(comparison.pearson)}")
    print(f"slope = {_fmt(comparison.slope)}")


def cmd_condition_c1(run: RunContext) -> None:
    cfg = run.cfg
    batch_sizes = cfg.require("batch_sizes")
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec)
    rows = check_condition_c1(
        spec, theta, train, list(batch_sizes), cfg.n_probes, run.rng("condition-c1")
    )
    table = []
    points = []
    for row in rows:
        ratio = row.lhs_trace.mean / row.rhs_trace if row.rhs_trace > 0 else math.nan
        table.append(
            (row.batch_size, row.lhs_trace.mean, row.lhs_trace.se, row.rhs_trace, ratio)
        )
        if row.batch_size < len(train) and row.lhs_trace.mean > 0:
            points.append((math.log(row.batch_size), math.log(row.lhs_trace.mean)))
    run.emit_csv(
        "condition_c1.csv", ["batch_size", "lhs", "lhs_se", "rhs_c1", "ratio"], table
    )
    if len(points) >= 2:
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        slope = float(np.polyfit(xs, ys, 1)[0])
        run.emit_csv("condition_c1_fit.csv", ["slope", "n_points"], [(slope, len(points))])
        print(f"slope = {_fmt(slope)}")


def cmd_counterexample(run: RunContext) -> None:
    cfg = run.cfg
    eigenvalues = cfg.require("eigenvalues")
    batch_size = cfg.batch_size if cfg.batch_size is not None else 1
    eta = cfg.eta if cfg.eta is not None else step_size(max(eigenvalues), cfg.lambda_damp)
    try:
        problem, _ = counterexample_build(
            n=len(eigenvalues),
            eigenvalues=eigenvalues,
            batch_size=batch_size,
            lambda_damp=cfg.lambda_damp,
            eta=eta,
            seed=run.sub_seed("counterexample"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mc = counterexample_simulate(
        problem, cfg.n_runs, cfg.t_max, seed=run.sub_seed("counterexample-mc")
    )
    contraction = 1.0 - cfg.lambda_damp * eta
    u0_norm = float(np.linalg.norm(problem.u0))
    rows = []
    for t in range(cfg.t_max + 1):
        rows.append(
            (
                t,
                counterexample_moments(problem, t=t),
                mc.second_moment[t],
                mc.second_moment_se[t],
                float(np.linalg.norm(mc.mean_iterate[t])),
                contraction**t * u0_norm,
            )
        )
    run.emit_csv(
        "counterexample.csv",
        [
            "step",
            "exact_second_moment",
            "mc_second_moment",
            "mc_second_moment_se",
            "mc_mean_norm",
            "mean_contraction_bound",
        ],
        rows,
    )
    print(f"batch_threshold = {_fmt(problem.batch_threshold)}")
    print(f"max_growth_factor = {_fmt(float(problem.second_moment_diagonal.max()))}")


def cmd_tfidf_check(run: RunContext) -> None:
    cfg = run.cfg
    if cfg.lambda_damp <= 0:
        raise ConfigError("tfidf-check needs lambda_damp > 0")
    if cfg.corpus_path is not None:
        try:
            text = Path(cfg.corpus_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read corpus {cfg.corpus_path!r}: {exc}") from exc
        try:
            corpus, _ = corpus_from_text(text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        counts = corpus.counts().sum(axis=0)
        p = (counts + 1.0) / (counts.sum() + corpus.vocab_size)
    else:
        raw = run.rng("tfidf-probs").uniform(cfg.vocab_size) * 0.4 + 0.8
        p = raw / raw.sum()
        corpus = sample_corpus(run.rng("tfidf-corpus"), cfg.n_docs, cfg.doc_length, p)
    params = BowParams.from_probabilities(p)
    rows = tfidf_equivalence_check(corpus, params, cfg.lambda_damp)
    run.emit_csv(
        "tfidf_pairs.csv",
        ["doc_a", "doc_b", "influence_exact", "tfidf_sum", "tfidf_form", "abs_diff"],
        [
            (r.doc_a, r.doc_b, r.influence_exact, r.tfidf_sum, r.tfidf_form, r.abs_diff)
            for r in rows
        ],
    )
    worst = max(r.abs_diff for r in rows)
    print(f"worst_abs_diff = {_fmt(worst)}")
    if cfg.tolerance is not None:
        bound = cfg.tolerance * corpus.doc_length**2
        if worst > bound:
            raise OracleMismatchError(
                f"tfidf gap {worst:.3e} above tolerance {bound:.3e}"
            )


def cmd_similarity(run: RunContext) -> None:
    cfg = run.cfg
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec)
    if cfg.n_items < 2 or cfg.n_items > len(train):
        raise ConfigError("n_items must be between 2 and the dataset size")
    if not 0 <= cfg.train_index < cfg.n_items:
        raise ConfigError("train_index outside the selected items")
    examples = [train[i] for i in range(cfg.n_items)]
    grads = [loss_gradient(spec, theta, ex).values for ex in examples]
    labels = [ex.id for ex in examples]

    dense = _dense_gnh(spec, theta, train)
    solver = lambda v: exact_ihvp(dense, cfg.lambda_damp, v)
    gradient_sim = similarity_matrix(grads, kind="gradient", labels=labels)
    influence_sim = similarity_matrix(grads, kind="influence", ihvp_solver=solver, labels=labels)

    def matrix_rows(values):
        return [(labels[i], *values[i]) for i in range(len(labels))]

    header = ["item"] + [str(lab) for lab in labels]
    run.emit_csv("gradient_similarity.csv", header, matrix_rows(gradient_sim.values))
    run.emit_csv("influence_similarity.csv", header, matrix_rows(influence_sim.values))
    run.emit_csv(
        "similarity_difference.csv",
        header,
        matrix_rows(gradient_sim.values - influence_sim.values),
    )
    run.emit_csv(
        "eigen_reweight.csv",
        ["eigenvalue", "coefficient", "weight"],
        eigen_reweight(grads[cfg.train_index], dense, cfg.lambda_damp),
    )


COMMANDS = {
    "stats": cmd_stats,
    "recommend": cmd_recommend,
    "lissa": cmd_lissa,
    "convergence": cmd_convergence,
    "pbrf-compare": cmd_pbrf_compare,
    "condition-c1": cmd_condition_c1,
    "counterexample": cmd_counterexample,
    "tfidf-check": cmd_tfidf_check,
    "similarity": cmd_similarity,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="lissakit", description="Influence-function experiment harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (or out_dir in config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="worker thread count")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg, raw_text = load_config(args.config)
        if cfg.command is not None and cfg.command != args.command:
            raise ConfigError(
                f"config is for command {cfg.command!r}, invoked as {args.command!r}"
            )
        out_dir = args.out if args.out is not None else cfg.out_dir
        if out_dir is None:
            raise ConfigError("no output directory: pass --out or set out_dir")
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        threads = args.threads if args.threads is not None else cfg.threads
        if threads < 1:
            raise ConfigError("threads must be >= 1")

        run = RunContext(cfg, Path(out_dir), seed, threads, sha256_hex(raw_text))
        run.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            COMMANDS[args.command](run)
        finally:
            # failed runs keep a manifest too, as long as they emitted data
            if run.outputs:
                run.write_manifest(args.command)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError, LissaDivergenceError) as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return 3
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
