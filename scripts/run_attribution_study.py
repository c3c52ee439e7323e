"""Attribution diagnostics: solver-vs-finetuning scores, similarity, TF-IDF.

  pbrf-compare/  scatter of stochastic-solver scores against finetuned ones
  similarity/    gradient-cosine vs curvature-weighted similarity matrices
  tfidf-check/   bag-of-words influence against the TF-IDF closed form
"""

from _study import run_study

MODEL = """\
model_kind = mlp
layer_sizes = 8, 6, 4
activation = tanh
init_scale = 0.5
n_examples = 200
separation = 2.0
lambda_damp = 0.06
eta = 1.6
batch_size = 16
t_steps = 25
"""


COMMANDS = (
    (
        "pbrf-compare",
        "command = pbrf-compare\n" + MODEL + "n_train = 10\nn_test = 40\n"
        "epsilon = 1e-8\n",
    ),
    (
        "similarity",
        "command = similarity\n" + MODEL + "n_items = 8\ntrain_index = 0\n",
    ),
    (
        "tfidf-check",
        "command = tfidf-check\nn_docs = 50\ndoc_length = 8\nvocab_size = 10\n"
        "lambda_damp = 1e-8\ntolerance = 1e-6\n",
    ),
)


if __name__ == "__main__":
    run_study(__doc__, "runs/attribution", COMMANDS)
