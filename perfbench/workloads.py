"""Workload definitions: the CLI commands each benchmark pass runs.

A workload is a fixed list of ``lissakit`` commands with fixed config texts.
The workload seed reaches the program only through the CLI's ``--seed`` flag;
nothing in a config depends on it, so one seed always gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MLP_16_64_10 = """\
model_kind = mlp
layer_sizes = 16, 64, 10
activation = tanh
lambda_damp = 0.1
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand name plus its config text."""

    name: str
    config: str


@dataclass(frozen=True)
class Workload:
    """``interpreter_bound`` workloads report wall_s at the reference
    interpreter speed (see calibration.py); BLAS-heavy ones report it as
    measured, because the interpreter's speed drifts more than BLAS speed."""

    name: str
    why: str
    commands: tuple[Command, ...]
    interpreter_bound: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectral-fullbatch",
            "ROADMAP item 2 baseline: stats on N=2048 (664 full-batch GNH HVPs); nearly "
            "all time in forward/JVP/backprop/act-deriv, no mini-batch or dense work.",
            (
                Command(
                    "stats",
                    "command = stats\n"
                    + _MLP_16_64_10
                    + "n_examples = 2048\nn_probes = 200\nsketch_dim = 64\n",
                ),
            ),
        ),
        Workload(
            "solve-minibatch",
            "Thousands of tiny solves (4000 B=16 GNH + 32000 sampler HVPs) where "
            "interpreter overhead dominates: lissa steps, mini-batch matvec, "
            "sample_batch, short RNG draws.",
            (
                Command(
                    "pbrf-compare",
                    "command = pbrf-compare\n"
                    "model_kind = mlp\nlayer_sizes = 8, 6, 4\nactivation = tanh\n"
                    "n_examples = 200\nlambda_damp = 0.06\nbatch_size = 16\n"
                    "t_steps = 25\nn_train = 160\nn_test = 40\n",
                ),
                Command(
                    "counterexample",
                    "command = counterexample\n"
                    "eigenvalues = 1, 1, 1, 1, 1, 1, 1, 1, 1, 1\n"
                    "lambda_damp = 0.1\nbatch_size = 1\nt_max = 8\nn_runs = 4000\n",
                ),
            ),
            interpreter_bound=True,
        ),
        Workload(
            "dense-oracle",
            "ROADMAP item 3 dense target: BLAS-bound gnh_matrix_exact, exact_ihvp, "
            "sym_eig and check_symmetric on 1738x1738; the stochastic lissa solve is light.",
            (
                Command(
                    "similarity",
                    "command = similarity\n" + _MLP_16_64_10 + "n_examples = 512\nn_items = 16\n",
                ),
                Command(
                    "lissa",
                    "command = lissa\n"
                    + _MLP_16_64_10
                    + "n_examples = 512\nbatch_size = 32\ntolerance = 0.5\n",
                ),
            ),
        ),
    )
}


def derived_t_steps(cfg, lambda_max: float) -> int:
    """T = mult / (lambda * eta), eta = 1 / (lambda_max + lambda) unless fixed."""
    eta = cfg.eta if cfg.eta is not None else 1.0 / (lambda_max + cfg.lambda_damp)
    return max(1, math.ceil(cfg.t_multiplier / (cfg.lambda_damp * eta)))


def nominal_hvps(command: str, cfg, lambda_max=None) -> tuple[int, int]:
    """(GNH HVPs, rank-one sampler HVPs) one run of ``command`` must make.

    ``cfg`` is the command's parsed ``ExperimentConfig``.  ``lambda_max`` is the
    dense GNH's top eigenvalue, needed only where T is derived from the spectrum.
    """
    if command == "stats":
        columns = cfg.sketch_dim * (1 if cfg.sketch_layout == "summed" else len(cfg.layer_sizes) - 1)
        # trace: one HVP per probe; Frobenius: two; sketch: one per column
        return 3 * cfg.n_probes + columns, 0
    if command == "pbrf-compare":
        steps = cfg.pbrf_steps if cfg.pbrf_steps is not None else cfg.t_steps
        if steps is None:
            raise ValueError("pbrf-compare workloads must fix t_steps")
        return cfg.n_train * steps, 0
    if command == "counterexample":
        return 0, cfg.n_runs * cfg.t_max
    if command == "similarity":
        return 0, 0
    if command == "lissa":
        if cfg.t_steps is not None:
            return cfg.t_steps, 0
        return derived_t_steps(cfg, lambda_max), 0
    raise ValueError(f"no nominal HVP count for command {command!r}")
