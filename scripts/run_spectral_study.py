"""Spectral statistics end to end: estimate, recommend, and check batch noise.

Runs three CLI commands against one synthetic model and leaves their CSV
artifacts side by side under the output directory:

  stats/         trace, Frobenius norm, sketched top eigenvalue, settings
  recommend/     settings recomputed from the published-statistics route
  condition-c1/  batch-noise trace against 1/|B| scaling
"""

from _study import run_study

BASE = """\
model_kind = softmax-linear
layer_sizes = 16, 5
init_scale = 0.5
n_examples = 512
separation = 2.0
lambda_damp = 0.3
n_probes = 400
sketch_dim = 96
"""


COMMANDS = (
    ("stats", "command = stats\n" + BASE),
    # feed the recommender the round numbers a spectra table would publish
    (
        "recommend",
        "command = recommend\ntrace = 16.0\nlambda_max = 3.6\nlambda_damp = 0.3\n",
    ),
    (
        "condition-c1",
        "command = condition-c1\n" + BASE + "batch_sizes = 8, 16, 32, 64, 512\n",
    ),
)


if __name__ == "__main__":
    run_study(__doc__, "runs/spectral", COMMANDS)
