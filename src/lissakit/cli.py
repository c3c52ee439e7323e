"""Command-line experiment harness.

Each subcommand reads one flat config file, derives every random stream from
the global seed plus a component name, writes CSV artifacts plus a manifest
into the output directory, and exits 0 on success, 2 on configuration
problems, 3 on numerical overflow, and 4 when a built-in oracle check fails.
``main`` runs each command under the one ``np.errstate`` of the CLI, so no
NumPy warning reaches stderr, and ``emit_csv`` refuses a nan or inf cell.
Reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, component_seed, load_config, sha256_hex
from .core import SeededRng, SymEig, check_symmetric, sym_eig, top_eigenvalue
from .gnh import MAX_DENSE_PARAMS, GnhOperator, gnh_matrix_exact, gnh_trace_exact
from .influence import eigen_reweight, similarity_matrix
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
    _forward,
    init_params,
    load_dataset_csv,
    loss_gradients,
    make_blobs,
)
from .pbrf import compare_influences, pbrf_finetune, pbrf_influence
from .spectral import (
    SketchConfig,
    check_condition_c1,
    estimate_frobenius,
    estimate_trace,
    recommend_hyperparams,
    sketch_operator,
    sketch_size,
    step_count,
    step_size,
    top_eigenvalue_from_sketch,
)
from .tfidf import BowParams, corpus_from_text, sample_corpus, tfidf_equivalence_check

MANIFEST_FORMAT = "lissakit-run-1"
# Environment variables that set the BLAS thread count.  Dense outputs move in
# their last bits with that count, so the manifest records each one's value.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Largest solver step count a command accepts: the solve keeps one iterate
# norm per step and lissa writes one trace row per step.
MAX_T_STEPS = 1_000_000
# Largest probe count a command accepts: the probe loop keeps one sample per
# probe, and each probe costs one to three HVPs.  It caps counterexample's
# n_runs too: the Monte-Carlo check keeps one seed per run.
MAX_PROBES = 1_000_000
# Largest number of floats a command holds in one array: every model command
# holds theta, one float per parameter, and its full-batch activations, one
# float per example and unit of the widest layer (every GnhOperator, mini-batch
# too, keeps them in its linearization record, and a mini-batch one its
# centered Jacobian rows where they fit 2^20 floats), convergence,
# pbrf-compare and similarity one gradient per example they score
# (pbrf-compare also one activation row per scored pair, similarity one float
# per item pair),
# convergence one copy of the iterate per snapshot until it correlates them,
# counterexample one iterate and its moment sums per step (a pass of its
# lockstep runs keeps the iterates of as many runs as fit in 2^20 floats, and
# of one run where one run holds more), condition-c1 the centered factors of
# one example's exact trace, and tfidf-check its corpus and its count,
# gradient and pair arrays, so this caps each array at 80 MB.  It does not
# cap the text of a table that a command writes.
MAX_KEPT_FLOATS = 10**7
# Largest number of random words one draw of a command may take: a batch of
# b examples draws b words per step (b times n_train in the lockstep finetunes
# of pbrf-compare, b times the dimension in counterexample; each chain of a
# lockstep solve draws its own batch), a synthetic dataset its n examples
# times their features, and each word is held as an 8-byte float, so this
# caps one draw at 80 MB.
MAX_DRAW_WORDS = 10**7


# Rows of a table that emit_csv formats at a time.
_CSV_CHUNK_ROWS = 1024


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


def _fmt_column(column) -> list[str]:
    """``_fmt`` of each cell of a column: a NumPy int or float array is read
    out once by ``tolist()``, whose Python ints and floats ``str`` and
    ``repr`` format as ``_fmt`` does."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return [_fmt(cell) for cell in column]


def _finite(column) -> bool:
    """Whether no float cell of a column is nan or inf."""
    if isinstance(column, np.ndarray):
        return column.dtype.kind != "f" or bool(np.isfinite(column).all())
    return all(math.isfinite(cell) for cell in column if isinstance(cell, (float, np.floating)))


def _row(*cells) -> list[list]:
    """The columns of a one-row table."""
    return [[cell] for cell in cells]


class RunContext:
    """Output directory, seeding, and artifact bookkeeping for one run."""

    def __init__(self, cfg: ExperimentConfig, out_dir: Path, seed: int, config_sha: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.config_sha = config_sha
        self.inputs: list[tuple[str, str]] = []
        self.outputs: list[tuple[str, str]] = []

    def sub_seed(self, name: str) -> int:
        return component_seed(self.seed, name)

    def rng(self, name: str) -> SeededRng:
        return SeededRng(self.sub_seed(name))

    def hash_input(self, name: str, path: str) -> None:
        """Record the sha256 of the bytes of the input file at ``path`` for
        the manifest's ``<name>_sha256`` line; raises OSError when it cannot
        be read."""
        self.inputs.append((name, sha256_hex(Path(path).read_bytes())))

    def emit_text(self, name: str, text: str) -> None:
        (self.out_dir / name).write_text(text)
        self.outputs.append((name, sha256_hex(text)))

    def emit_csv(self, name: str, header: list[str], columns) -> None:
        """A table given as its columns, each an array or a sequence of
        cells of one length, one line per row, each cell as ``_fmt`` writes
        it.  The columns are formatted _CSV_CHUNK_ROWS rows at a time, so
        no more than that many rows' cells are held as strings at once.  A nan
        or inf cell is an OverflowError naming the file and the column,
        raised before anything is written."""
        columns = list(columns)
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError("the columns of a table differ in length")
        for title, column in zip(header, columns):
            if not _finite(column):
                raise OverflowError(f"{name}: column {title} holds a non-finite value")
        lines = [",".join(header)]
        for start in range(0, max(lengths, default=0), _CSV_CHUNK_ROWS):
            cells = [_fmt_column(column[start : start + _CSV_CHUNK_ROWS]) for column in columns]
            lines += map(",".join, zip(*cells))
        self.emit_text(name, "\n".join(lines) + "\n")

    def write_manifest(self, command: str) -> None:
        """The run's inputs (the config, each input file it read, the seed),
        the NumPy and BLAS build and the BLAS thread variables it ran under,
        then one hash line per output."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines = [
            f"format = {MANIFEST_FORMAT}",
            f"command = {command}",
            f"config_sha256 = {self.config_sha}",
            *(f"{name}_sha256 = {sha}" for name, sha in self.inputs),
            f"seed = {self.seed}",
            f"package_version = {__version__}",
            f"numpy_version = {np.__version__}",
            f"blas = {blas.get('name')} {blas.get('version')}",
        ]
        lines += [f"{var} = {os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS]
        for name, sha in sorted(self.outputs):
            lines.append(f"output {name} sha256 = {sha}")
        (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _build_model(run: RunContext):
    cfg = run.cfg
    try:
        spec = ModelSpec(cfg.model_kind, cfg.layer_sizes, cfg.activation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    layers = ", ".join(str(s) for s in spec.layer_sizes)
    what = f"a model of {spec.n_params} parameters (layer_sizes = {layers})"
    _check_limit(what, spec.n_params, "MAX_KEPT_FLOATS", "lower layer_sizes")
    return spec, init_params(spec, run.rng("init"), cfg.init_scale)


def _overflow_error(run: RunContext, what: str) -> ConfigError:
    """The config error for a model whose numbers overflow, naming both the
    weights' scale and where the features come from."""
    cfg = run.cfg
    if cfg.dataset_path is None:
        data, hint = f"separation = {cfg.separation!r}", "separation"
    else:
        data, hint = f"dataset_path = {cfg.dataset_path!r}", "the scale of the dataset's features"
    return ConfigError(f"{what} at init_scale = {cfg.init_scale!r} and {data}; lower init_scale or {hint}")


def _check_nonzero_gnh(run: RunContext, spec: ModelSpec, theta, train) -> None:
    """For an error path: a softmax saturated at every example gives a zero
    Gauss-Newton matrix, the cause to name."""
    if gnh_trace_exact(spec, theta, train) == 0.0:
        raise _overflow_error(run, "a zero Gauss-Newton matrix (Tr(H) = 0: the softmax saturates)")


def _build_data(run: RunContext, spec: ModelSpec, theta: np.ndarray, n_test: int = 0):
    """Train set plus an optional held-out tail of n_test examples.  A model
    whose logits overflow on the data has no gradient, curvature or score to
    compute: one forward pass over every example makes that a config error
    before any of them."""
    cfg = run.cfg
    if cfg.dataset_path is not None:
        try:
            full = load_dataset_csv(cfg.dataset_path)
            run.hash_input("dataset", cfg.dataset_path)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {cfg.dataset_path!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if full.X.shape[1] != spec.input_dim or int(full.y.max()) >= spec.n_classes:
            raise ConfigError("dataset does not match the model's input/classes")
        if int(full.y.min()) < 0:
            raise ConfigError("dataset labels must be non-negative")
        n_full = len(full)
    else:
        n_full = cfg.n_examples + n_test
        what = f"a draw of n_examples + n_test = {n_full} examples of {spec.input_dim} features"
        _check_limit(what, n_full * spec.input_dim, "MAX_DRAW_WORDS")
    width = max(spec.layer_sizes[1:])
    what = f"a full-batch activation array of {n_full} examples times the widest layer of {width}"
    _check_limit(what, n_full * width, "MAX_KEPT_FLOATS", "use fewer examples or narrower layers")
    if cfg.dataset_path is None:
        # a huge separation overflows the class means, giving inf features
        full = make_blobs(run.rng("dataset"), n_full, spec.input_dim, spec.n_classes, cfg.separation)
        if not np.isfinite(full.X).all():
            raise ConfigError(f"separation = {cfg.separation!r} gives non-finite features; lower separation")
    if len(full) <= n_test:
        raise ConfigError("dataset too small for the requested test split")
    logits, _ = _forward(spec, theta, full.X)
    if not np.isfinite(logits).all():
        raise _overflow_error(run, "the model's logits overflow")
    if n_test == 0:
        return full, None
    cut = len(full) - n_test
    train = Dataset(X=full.X[:cut], y=full.y[:cut])
    test = Dataset(X=full.X[cut:], y=full.y[cut:])
    return train, test


def _check_limit(what: str, amount: int | None, limit: str, hint: str = "") -> None:
    """The CLI's one limit check: ``amount``, the count that ``what`` names, over
    the module constant named ``limit`` is a config error.  Each command calls
    it where the amount is first known, on what its run draws or keeps; every
    limit is inclusive, and an absent amount (None) passes."""
    value = globals()[limit]
    if amount is not None and amount > value:
        raise ConfigError(f"{what} is over the limit {limit} = {value}" + (hint and f"; {hint}"))


def _check_gradient_block(spec: ModelSpec, rows: int, field: str) -> None:
    """A command that scores ``rows`` examples, the count in ``field``, holds
    their (rows, n_params) gradient block."""
    what = f"a gradient block of {field} = {rows} times {spec.n_params} parameters"
    _check_limit(what, rows * spec.n_params, "MAX_KEPT_FLOATS", f"lower {field}")


def _gradients(run: RunContext, spec: ModelSpec, theta, X, y) -> np.ndarray:
    """The loss gradients of the rows X at labels y.  A row's own (1, in)
    product can overflow to nan where _build_data's one GEMM saturated."""
    G = loss_gradients(spec, theta, X, y)
    if not np.isfinite(G).all():
        raise _overflow_error(run, "the loss gradients overflow")
    return G


def _check_draw(op: GnhOperator, draw: int, what: str) -> None:
    """An operator whose batch covers the training set runs full batch and
    draws nothing; otherwise ``draw`` words, which ``what`` names, are a draw."""
    _check_limit(what, None if op.batch_size is None else draw, "MAX_DRAW_WORDS")


def _dense_gnh(run: RunContext, spec: ModelSpec, theta, train, read):
    """The dense GNH H and ``read(H)``, the one read of H that checks it:
    check_symmetric when the command only solves with H, top_eigenvalue when
    it reads lambda_max, sym_eig when it reads the eigenbasis.  Curvature can
    overflow where the logits do not (huge features), giving a non-finite
    matrix, which the check rejects: a config error."""
    _check_limit(
        f"a dense GNH of {spec.n_params} parameters", spec.n_params, "MAX_DENSE_PARAMS",
        "stats and condition-c1 never build it, and only lissa (eta set, no tolerance) and "
        "pbrf-compare (eta set) can run without it",
    )
    H = gnh_matrix_exact(spec, theta, train)
    try:
        return H, read(H)
    except ValueError as exc:
        raise _overflow_error(run, f"no dense Gauss-Newton matrix ({exc})") from exc


def _check_oracle_damping(run: RunContext) -> None:
    """The dense oracle needs lambda_damp > 0: every Gauss-Newton matrix here
    is singular (shifting all last-layer biases by one constant leaves every
    softmax unchanged), so at lambda_damp = 0 its solution is not unique."""
    if not run.cfg.lambda_damp > 0:
        raise ConfigError(
            f"lambda_damp = {run.cfg.lambda_damp!r}: the dense oracle needs lambda_damp > 0, "
            "since the Gauss-Newton matrix is singular"
        )


def _oracle_ihvp(run: RunContext, H: np.ndarray, g: np.ndarray, eig: SymEig | None = None) -> np.ndarray:
    """exact_ihvp at the run's damping, in ``eig`` = sym_eig(H) if given; a failed solve is a config error."""
    try:
        return exact_ihvp(H, run.cfg.lambda_damp, g, eig)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            f"dense oracle failed at lambda_damp = {run.cfg.lambda_damp!r} ({exc}); raise lambda_damp"
        ) from exc


def _check_given_step_count(run: RunContext, field: str = "t_steps") -> None:
    """The step count in ``field`` (t_steps, or pbrf_steps in its place), when
    given, is bounded by MAX_T_STEPS; when omitted it comes from eta and
    lambda_damp (spectral.step_count), which give none at lambda_damp = 0.
    The config alone decides both, so commands check them before any model
    work."""
    steps = getattr(run.cfg, field)
    if steps is None and not run.cfg.lambda_damp > 0:
        raise ConfigError(f"{field} must be given when lambda_damp is 0")
    _check_limit(f"{field} = {steps}", steps, "MAX_T_STEPS", f"set a smaller {field}")


def _solver_settings(run: RunContext, lambda_max: float | None, field: str = "t_steps"):
    """eta and the step count from config; an omitted eta comes from the dense
    GNH's top eigenvalue lambda_max (None when eta is set), an omitted step
    count from eta.  ``field`` names the config field that gives the step
    count, which _check_given_step_count has checked; a derived count over
    MAX_T_STEPS is a config error."""
    cfg = run.cfg
    eta = cfg.eta
    if eta is None:
        try:
            eta = step_size(lambda_max, cfg.lambda_damp)
        except ValueError as exc:
            raise ConfigError(f"{exc}; set eta or raise lambda_damp") from exc
    t_steps = getattr(cfg, field)
    if t_steps is None:
        try:
            t_steps = step_count(eta, cfg.lambda_damp, cfg.t_multiplier)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _check_limit(
            f"{field} = {t_steps} (derived from eta = {eta!r})", t_steps, "MAX_T_STEPS",
            f"set {field}, raise eta or lambda_damp, or lower t_multiplier",
        )
    return eta, t_steps


def _recommend(run: RunContext, trace: float, lambda_max: float):
    """recommend_hyperparams at the run's settings; settings that the solvers
    would refuse are a config error.  T = t_multiplier (lambda_max +
    lambda_damp) / lambda_damp and |B| = c_const trace / lambda_max."""
    cfg = run.cfg
    try:
        hp = recommend_hyperparams(trace, lambda_max, cfg.lambda_damp, cfg.c_const, cfg.t_multiplier)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_limit(
        f"the recommended t_steps = {hp.t_steps}", hp.t_steps, "MAX_T_STEPS",
        "raise lambda_damp or lower t_multiplier",
    )
    what = f"the recommended batch_size = {float(hp.batch_size_min):.6g}"
    _check_limit(what, hp.batch_size_min, "MAX_DRAW_WORDS", "lower c_const")
    return hp


def cmd_stats(run: RunContext) -> None:
    cfg = run.cfg
    _check_limit(f"n_probes = {cfg.n_probes}", cfg.n_probes, "MAX_PROBES")
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec, theta)
    sketch_cfg = SketchConfig(cfg.sketch_dim, run.sub_seed("sketch"), cfg.sketch_layout)
    layout = f"sketch_dim = {cfg.sketch_dim}, sketch_layout = {cfg.sketch_layout}"
    op = GnhOperator(spec, theta, train, fd_delta=cfg.fd_delta)
    columns = sketch_size(op, sketch_cfg)
    _check_limit(f"{columns} sketch columns ({layout})", columns, "MAX_DENSE_PARAMS")
    trace = estimate_trace(op, cfg.n_probes, run.rng("trace-probes"))
    frob = estimate_frobenius(op, cfg.n_probes, run.rng("frobenius-probes"))
    sketch = sketch_operator(op, sketch_cfg)
    # curvature that overflows gives a non-finite sketch, which sym_eig rejects
    try:
        lambda_top = top_eigenvalue_from_sketch(sketch)
    except ValueError as exc:
        raise _overflow_error(run, f"no curvature sketch ({exc})") from exc
    trace_total = trace.mean * op.n_params
    if not min(trace_total, lambda_top) > 0:  # _recommend refuses a non-positive one
        _check_nonzero_gnh(run, spec, theta, train)
    hp = _recommend(run, trace_total, lambda_top)
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
        _row(
            op.n_params,
            trace_total,
            trace.se * op.n_params,
            frob_norm,
            lambda_top,
            hp.eta,
            hp.batch_size_min,
            hp.t_steps,
        ),
    )
    print(f"n_params = {op.n_params}")
    print(f"trace = {_fmt(trace_total)}")
    print(f"lambda_max = {_fmt(lambda_top)}")
    print(f"eta = {_fmt(hp.eta)}")
    print(f"batch_size = {hp.batch_size_min}")
    print(f"t_steps = {_fmt(hp.t_steps)}")


def cmd_recommend(run: RunContext) -> None:
    cfg = run.cfg
    hp = _recommend(run, *cfg.require("trace", "lambda_max"))
    run.emit_csv(
        "recommend.csv",
        ["eta", "batch_size", "t_steps", "lambda_damp", "c_const", "t_multiplier"],
        _row(hp.eta, hp.batch_size_min, hp.t_steps, cfg.lambda_damp, cfg.c_const, cfg.t_multiplier),
    )
    print(f"eta = {_fmt(hp.eta)}")
    print(f"batch_size = {hp.batch_size_min}")
    print(f"t_steps = {_fmt(hp.t_steps)}")


def cmd_lissa(run: RunContext) -> None:
    cfg = run.cfg
    if cfg.tolerance is not None:
        _check_oracle_damping(run)
    _check_given_step_count(run)
    spec, theta = _build_model(run)
    train, _ = _build_data(run, spec, theta)
    if not 0 <= cfg.train_index < len(train):
        raise ConfigError("train_index outside the dataset")
    op = GnhOperator(spec, theta, train, batch_size=cfg.batch_size, fd_delta=cfg.fd_delta)
    _check_draw(op, cfg.batch_size, f"a draw of batch_size = {cfg.batch_size}")
    row = slice(cfg.train_index, cfg.train_index + 1)
    g = -_gradients(run, spec, theta, train.X[row], train.y[row])[0]

    H = lambda_max = None
    if cfg.eta is None or cfg.tolerance is not None:
        read = top_eigenvalue if cfg.eta is None else check_symmetric
        H, lambda_max = _dense_gnh(run, spec, theta, train, read)
    eta, t_steps = _solver_settings(run, lambda_max)

    lcfg = LissaConfig(
        eta=eta,
        lambda_damp=cfg.lambda_damp,
        t_steps=t_steps,
        seed=run.sub_seed("lissa"),
    )
    u, trace = lissa_solve(op, g, lcfg)

    if cfg.fd_delta is not None and cfg.fd_delta * float(trace.norms.max()) > 1.0:
        print(
            "warning: fd step times iterate norm exceeds 1; "
            "finite-difference curvature may be inaccurate",
            file=sys.stderr,
        )

    run.emit_csv("lissa_trace.csv", ["step", "u_norm"], [range(t_steps + 1), trace.norms])
    run.emit_csv("solution.csv", ["index", "value"], [range(len(u)), u])

    if cfg.tolerance is not None:
        u_star = _oracle_ihvp(run, H, g)
        # both norms scaled by max|u*|, which keeps a tiny u* (lambda_damp
        # near the float range) from underflowing to 0 / 0
        scale = float(np.max(np.abs(u_star)))
        if not scale > 0:
            raise ConfigError(
                f"the gradient at train_index = {cfg.train_index} is zero, so is the oracle "
                "solution, and no relative error can be checked"
            )
        rel = float(np.linalg.norm((u - u_star) / scale) / np.linalg.norm(u_star / scale))
        print(f"relative_error = {_fmt(rel)}")
        if rel > cfg.tolerance:
            raise OracleMismatchError(
                f"solve error {rel:.3e} above tolerance {cfg.tolerance:.3e}"
            )


def cmd_convergence(run: RunContext) -> None:
    cfg = run.cfg
    _check_oracle_damping(run)
    if cfg.n_test < 2:
        raise ConfigError("convergence needs n_test >= 2")
    _check_given_step_count(run)
    batch_sizes = cfg.require("batch_sizes")
    spec, theta = _build_model(run)
    _check_gradient_block(spec, cfg.n_test, "n_test")
    train, test = _build_data(run, spec, theta, n_test=cfg.n_test)
    if not 0 <= cfg.train_index < len(train):
        raise ConfigError("train_index outside the dataset")

    read = top_eigenvalue if cfg.eta is None else check_symmetric
    H, lambda_max = _dense_gnh(run, spec, theta, train, read)
    eta, t_steps = _solver_settings(run, lambda_max)
    snapshot_every = cfg.snapshot_every or max(1, t_steps // 50)
    snapshots = t_steps // snapshot_every + 1
    _check_limit(
        f"{snapshots} kept iterates of {spec.n_params} parameters (t_steps = {t_steps}, "
        f"snapshot_every = {snapshot_every})", snapshots * spec.n_params, "MAX_KEPT_FLOATS",
        "raise snapshot_every or lower t_steps",
    )
    row = slice(cfg.train_index, cfg.train_index + 1)
    g = -_gradients(run, spec, theta, train.X[row], train.y[row])[0]
    u_star = _oracle_ihvp(run, H, g)
    # the measurement f = log softmax(logits)[y] has the negated loss gradient
    T = -_gradients(run, spec, theta, test.X, test.y)

    op_full = GnhOperator(spec, theta, train, fd_delta=cfg.fd_delta)
    rows = []
    for b in batch_sizes:
        op = op_full.batched(b)
        _check_draw(op, b, f"a draw of batch_sizes entry {b}")
        lcfg = LissaConfig(
            eta=eta,
            lambda_damp=cfg.lambda_damp,
            t_steps=t_steps,
            seed=run.sub_seed(f"convergence-batch-{b}"),
            snapshot_every=snapshot_every,
        )
        _, trace = lissa_solve(op, g, lcfg)
        try:
            series = convergence_correlation(trace, T, reference=u_star)
        except ValueError as exc:
            raise ConfigError(f"no influence correlation at batch size {b}: {exc}") from exc
        rows += [(b, step, corr) for step, corr in series]
    run.emit_csv("convergence.csv", ["batch_size", "step", "correlation"], zip(*rows))


def cmd_pbrf_compare(run: RunContext) -> None:
    cfg = run.cfg
    if cfg.n_train * cfg.n_test < 10:
        raise ConfigError("need at least ten (train, test) pairs to compare")
    # pbrf_steps, when set, is the step count of the solves and the finetunes
    steps_field = "t_steps" if cfg.pbrf_steps is None else "pbrf_steps"
    _check_given_step_count(run, steps_field)
    batch_size = cfg.batch_size if cfg.batch_size is not None else 32
    spec, theta = _build_model(run)
    # the gradient, solution and finetune blocks of the n_train points, the
    # test gradient block, and the readout's stacked forward of every pair
    _check_gradient_block(spec, cfg.n_train, "n_train")
    _check_gradient_block(spec, cfg.n_test, "n_test")
    width = max(spec.layer_sizes[1:])
    what = f"a readout of n_train times n_test = {cfg.n_train * cfg.n_test} pairs times the widest layer of {width}"
    _check_limit(what, cfg.n_train * cfg.n_test * width, "MAX_KEPT_FLOATS", "lower n_train or n_test")
    train, test = _build_data(run, spec, theta, n_test=cfg.n_test)
    if cfg.n_train > len(train):
        raise ConfigError("n_train exceeds the training set")
    op = GnhOperator(spec, theta, train, batch_size=batch_size, fd_delta=cfg.fd_delta)
    # the solves and the finetunes draw in lockstep
    what = f"a draw of n_train = {cfg.n_train} times batch_size = {batch_size}"
    _check_draw(op, cfg.n_train * batch_size, what)

    lambda_max = _dense_gnh(run, spec, theta, train, top_eigenvalue)[1] if cfg.eta is None else None
    eta, steps = _solver_settings(run, lambda_max, steps_field)
    rows = slice(cfg.n_train)
    points = Dataset(X=train.X[rows], y=train.y[rows])
    G = _gradients(run, spec, theta, points.X, points.y)
    # the measurement f = log softmax(logits)[y] has the negated loss gradient
    T = -_gradients(run, spec, theta, test.X, test.y)
    item_seeds = [run.sub_seed(f"pbrf-item-{i}") for i in range(cfg.n_train)]

    # the items' solves run as lockstep chains; a divergence ends the command
    # before any finetune, naming the earliest diverging item.  The finetunes
    # replay the solves from the same operator and settings, and the first
    # step that overflows ends the command.
    lcfg = LissaConfig(eta=eta, lambda_damp=cfg.lambda_damp, t_steps=steps, seed=tuple(item_seeds))
    U, _ = lissa_solve(op, -G, lcfg)
    # one (1, n) @ (n, 1) product per pair, bit for bit each pair's u @ t
    lissa = (U[:, None, None, :] @ T[None, :, :, None])[:, :, 0, 0]
    finetunes = pbrf_finetune(op, points, lcfg, cfg.epsilon)
    retrain = pbrf_influence(spec, finetunes, theta, test, cfg.epsilon)

    try:
        comparison = compare_influences(lissa, retrain)
    except ValueError as exc:
        _check_nonzero_gnh(run, spec, theta, train)
        raise ConfigError(f"cannot compare the influences: {exc}") from exc
    # row i of both score arrays is train point i, column j test point j; an
    # example's id is its row, the test split's counted on from the train set's
    train_ids = np.repeat(np.arange(cfg.n_train), cfg.n_test)
    test_ids = np.tile(len(train) + np.arange(cfg.n_test), cfg.n_train)
    run.emit_csv(
        "pbrf_pairs.csv", ["train_id", "test_id", "lissa", "pbrf"], [train_ids, test_ids, lissa.ravel(), retrain.ravel()]
    )
    counts = [comparison.class_counts[k] for k in ("agreeing", "disagreeing", "near_zero")]
    run.emit_csv(
        "pbrf_summary.csv",
        ["pearson", "slope", "n_agreeing", "n_disagreeing", "n_near_zero"],
        _row(comparison.pearson, comparison.slope, *counts),
    )
    print(f"pearson = {_fmt(comparison.pearson)}")
    print(f"slope = {_fmt(comparison.slope)}")


def cmd_condition_c1(run: RunContext) -> None:
    cfg = run.cfg
    batch_sizes = cfg.require("batch_sizes")
    _check_limit(f"n_probes = {cfg.n_probes}", cfg.n_probes, "MAX_PROBES")
    spec, theta = _build_model(run)
    factor = spec.n_classes * max(spec.layer_sizes[1:])
    what = f"one example's trace factor of n_classes times the widest layer = {factor} floats"
    _check_limit(what, factor, "MAX_KEPT_FLOATS", "lower layer_sizes")
    train, _ = _build_data(run, spec, theta)
    # huge features overflow the curvature; the non-finite values are reported below
    rows = check_condition_c1(
        spec, theta, train, list(batch_sizes), cfg.n_probes, run.rng("condition-c1"), cfg.fd_delta
    )
    table = []
    points = []
    for row in rows:
        if not all(map(math.isfinite, (row.rhs_trace, row.lhs_trace.mean, row.lhs_trace.se))):
            raise _overflow_error(
                run, f"no finite noise profile at batch size {row.batch_size} "
                f"(Tr(H)^2/(n |B|) = {row.rhs_trace!r}, lhs = {row.lhs_trace.mean!r})"
            )
        if not row.rhs_trace > 0:
            raise ConfigError(
                f"Tr(H)^2/(n |B|) = {row.rhs_trace!r} at batch size {row.batch_size} is not positive "
                "(a zero Gauss-Newton matrix, or its trace underflows); the noise ratio is undefined"
            )
        ratio = row.lhs_trace.mean / row.rhs_trace
        table.append(
            (row.batch_size, row.lhs_trace.mean, row.lhs_trace.se, row.rhs_trace, ratio)
        )
        if row.batch_size < len(train) and row.lhs_trace.mean > 0:
            points.append((math.log(row.batch_size), math.log(row.lhs_trace.mean)))
    run.emit_csv("condition_c1.csv", ["batch_size", "lhs", "lhs_se", "rhs_c1", "ratio"], zip(*table))
    if len({x for x, _ in points}) >= 2:  # a slope needs two distinct batch sizes
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        slope = float(np.polyfit(xs, ys, 1)[0])
        run.emit_csv("condition_c1_fit.csv", ["slope", "n_points"], _row(slope, len(points)))
        print(f"slope = {_fmt(slope)}")


def cmd_counterexample(run: RunContext) -> None:
    cfg = run.cfg
    eigenvalues = cfg.require("eigenvalues")
    batch_size = cfg.batch_size if cfg.batch_size is not None else 1
    n = len(eigenvalues)
    _check_limit(f"t_max = {cfg.t_max}", cfg.t_max, "MAX_T_STEPS")
    _check_limit(f"n_runs = {cfg.n_runs}", cfg.n_runs, "MAX_PROBES")
    _check_limit(f"a dense rotation of {n} eigenvalues", n, "MAX_DENSE_PARAMS")
    what = f"a draw of batch_size = {batch_size} times {n} eigenvalues"
    _check_limit(what, batch_size * n, "MAX_DRAW_WORDS")
    _check_limit(
        f"{cfg.t_max + 1} kept iterates of {n} eigenvalues (t_max = {cfg.t_max})", (cfg.t_max + 1) * n,
        "MAX_KEPT_FLOATS", "lower t_max or use fewer eigenvalues",
    )
    try:
        eta = cfg.eta if cfg.eta is not None else step_size(max(eigenvalues), cfg.lambda_damp)
        # extreme eigenvalues or eta overflow the closed form; it is checked below
        problem = counterexample_build(
            eigenvalues=eigenvalues,
            batch_size=batch_size,
            lambda_damp=cfg.lambda_damp,
            eta=eta,
            seed=run.sub_seed("counterexample"),
        )
        exact = counterexample_moments(problem, cfg.t_max)
        growth = float(problem.second_moment_diagonal.max())
        threshold = problem.batch_threshold
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not (np.isfinite(exact).all() and math.isfinite(growth) and math.isfinite(threshold)):
        raise ConfigError(
            f"the eigenvalues and eta = {eta!r} give a non-finite closed-form second moment (E||u_t||^2, "
            "growth factor or batch threshold); keep eta and the eigenvalues' magnitudes and ratios moderate"
        )
    mc = counterexample_simulate(
        problem, cfg.n_runs, cfg.t_max, seed=run.sub_seed("counterexample-mc")
    )
    contraction = 1.0 - cfg.lambda_damp * eta
    u0_norm = float(np.linalg.norm(problem.u0))
    bound = [contraction**t * u0_norm for t in range(cfg.t_max + 1)]
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
        [range(cfg.t_max + 1), exact, mc.second_moment, mc.second_moment_se, mc.mean_norm, bound],
    )
    print(f"batch_threshold = {_fmt(threshold)}")
    print(f"max_growth_factor = {_fmt(growth)}")


def cmd_tfidf_check(run: RunContext) -> None:
    cfg = run.cfg
    corpus = None
    if cfg.corpus_path is not None:
        try:
            text = Path(cfg.corpus_path).read_text()
            run.hash_input("corpus", cfg.corpus_path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read corpus {cfg.corpus_path!r}: {exc}") from exc
        try:
            corpus = corpus_from_text(text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if corpus.vocab_size < 2:
            raise ConfigError(f"corpus {cfg.corpus_path!r} needs at least two distinct terms")
        n_docs, length, vocab = corpus.n_docs, corpus.doc_length, corpus.vocab_size
    else:
        n_docs, length, vocab = cfg.n_docs, cfg.doc_length, cfg.vocab_size
    # the corpus (also each document's draw), the count and gradient arrays
    # (also the probability draw) and the pair arrays
    for what, floats in (
        (f"n_docs = {n_docs} times doc_length = {length} terms", n_docs * length),
        (f"n_docs = {n_docs} times vocab_size = {vocab} counts", n_docs * vocab),
        (f"n_docs = {n_docs} squared document pairs", n_docs**2),
    ):
        _check_limit(f"an array of {what}", floats, "MAX_KEPT_FLOATS")
    if corpus is None:
        raw = run.rng("tfidf-probs").uniform(vocab) * 0.4 + 0.8
        p = raw / raw.sum()
        corpus = sample_corpus(run.rng("tfidf-corpus"), n_docs, length, p)
    else:
        counts = corpus.counts().sum(axis=0)
        p = (counts + 1.0) / (counts.sum() + vocab)
    params = BowParams.from_probabilities(p)
    try:
        influence, tfidf_sum, tfidf_form = tfidf_equivalence_check(corpus, params, cfg.lambda_damp)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # one row per unordered pair a <= b, read from the upper triangles
    a, b = np.triu_indices(n_docs)
    exact, form = influence[a, b], tfidf_form[a, b]
    abs_diff = np.abs(exact - form)
    run.emit_csv(
        "tfidf_pairs.csv",
        ["doc_a", "doc_b", "influence_exact", "tfidf_sum", "tfidf_form", "abs_diff"],
        [a, b, exact, tfidf_sum[a, b], form, abs_diff],
    )
    worst = abs_diff.max()
    print(f"worst_abs_diff = {_fmt(worst)}")
    if cfg.tolerance is not None:
        bound = cfg.tolerance * corpus.doc_length**2
        if worst > bound:
            raise OracleMismatchError(
                f"tfidf gap {worst:.3e} above tolerance {bound:.3e}"
            )


def cmd_similarity(run: RunContext) -> None:
    cfg = run.cfg
    _check_oracle_damping(run)
    spec, theta = _build_model(run)
    # the items' gradient block and their (n_items, n_items) similarities
    _check_gradient_block(spec, cfg.n_items, "n_items")
    what = f"n_items = {cfg.n_items} squared similarities"
    _check_limit(what, cfg.n_items**2, "MAX_KEPT_FLOATS", "lower n_items")
    train, _ = _build_data(run, spec, theta)
    if cfg.n_items < 2 or cfg.n_items > len(train):
        raise ConfigError("n_items must be between 2 and the dataset size")
    if not 0 <= cfg.train_index < cfg.n_items:
        raise ConfigError("train_index outside the selected items")
    items = slice(cfg.n_items)
    labels = range(cfg.n_items)
    # huge features overflow the gradients' inner products; the non-finite
    # similarities that come out are rejected
    G = _gradients(run, spec, theta, train.X[items], train.y[items])
    try:
        gradient_sim = similarity_matrix(G)
    except ValueError as exc:
        raise ConfigError(f"no similarity matrix: {exc}") from exc
    H, eig = _dense_gnh(run, spec, theta, train, sym_eig)
    reweight = eigen_reweight(G[cfg.train_index], eig, cfg.lambda_damp)
    solved = _oracle_ihvp(run, H, G.T, eig)
    try:
        influence_sim = similarity_matrix(G, solved)
    except ValueError as exc:
        raise ConfigError(f"no similarity matrix: {exc}") from exc

    header = ["item"] + [str(label) for label in labels]
    run.emit_csv("gradient_similarity.csv", header, [labels, *gradient_sim.T])
    run.emit_csv("influence_similarity.csv", header, [labels, *influence_sim.T])
    run.emit_csv("similarity_difference.csv", header, [labels, *(gradient_sim - influence_sim).T])
    run.emit_csv("eigen_reweight.csv", ["eigenvalue", "coefficient", "weight"], zip(*reweight))


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
        # Accepted only as 1, hidden: the benchmark harness in perfbench/run.py
        # still passes --threads 1, and every command runs on one thread.
        p.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
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
        run = RunContext(cfg, Path(out_dir), seed, sha256_hex(raw_text))
        run.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            with np.errstate(all="ignore"):
                COMMANDS[args.command](run)
        finally:
            # failed runs keep a manifest too, as long as they emitted data
            if run.outputs:
                run.write_manifest(args.command)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, LissaDivergenceError) as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return 3
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
