"""Solver behaviour on one synthetic problem: solve, race batches, diverge.

  lissa/          iterate norms and the solution, checked against the oracle
  convergence/    correlation with the oracle solution for three batch sizes
  counterexample/ exploding second moment at batch size 1 vs the closed form
"""

from _study import run_study

MODEL = """\
model_kind = softmax-linear
layer_sizes = 16, 5
init_scale = 0.5
n_examples = 512
separation = 6.0
lambda_damp = 0.36
eta = 0.25
batch_size = 21
t_steps = 40
"""


COMMANDS = (
    (
        "lissa",
        "command = lissa\n" + MODEL + "tolerance = 0.5\n",
    ),
    (
        "convergence",
        "command = convergence\n" + MODEL + "n_test = 20\nbatch_sizes = 2, 21, 42\n"
        "snapshot_every = 1\n",
    ),
    (
        "counterexample",
        "command = counterexample\neigenvalues = "
        "1, 1, 1, 1, 1, 1, 1, 1, 1, 1\nlambda_damp = 0.1\n"
        "eta = 0.909090909090909\nbatch_size = 1\nt_max = 8\nn_runs = 2000\n",
    ),
)


if __name__ == "__main__":
    run_study(__doc__, "runs/solver", COMMANDS)
