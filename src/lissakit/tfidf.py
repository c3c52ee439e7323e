"""Bag-of-words categorical model with a closed-form damped influence.

A document is a fixed-length sequence of term indices drawn from one softmax
distribution over the vocabulary.  The curvature Diag(p) - p p^T is a
rank-one downdate of a diagonal, so the damped influence of a document pair
has a closed form in vectors of the vocabulary's length, and it collapses,
as the damping goes to zero, to a term-frequency dot product weighted by
inverse term probability.  That makes the model a desk-scale oracle: every
quantity the stochastic pipeline estimates elsewhere is exact here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng
from .models import _softmax


@dataclass(frozen=True)
class Corpus:
    """Equal-length documents over an integer vocabulary."""

    documents: tuple[tuple[int, ...], ...]
    vocab_size: int

    def __post_init__(self):
        object.__setattr__(
            self, "documents", tuple(tuple(int(t) for t in doc) for doc in self.documents)
        )
        if not self.documents:
            raise ValueError("corpus is empty")
        lengths = {len(doc) for doc in self.documents}
        if lengths == {0}:
            raise ValueError("documents are empty")
        if len(lengths) != 1:
            raise ValueError("documents must all have the same length")
        ids = [t for doc in self.documents for t in doc]
        if min(ids) < 0 or max(ids) >= self.vocab_size:
            raise ValueError("term index outside the vocabulary")

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def doc_length(self) -> int:
        return len(self.documents[0])

    def counts(self) -> np.ndarray:
        """Per-document term counts, shape (n_docs, vocab_size)."""
        out = np.zeros((self.n_docs, self.vocab_size))
        for i, doc in enumerate(self.documents):
            np.add.at(out[i], list(doc), 1.0)
        return out


def corpus_from_text(text: str) -> tuple[Corpus, dict[str, int]]:
    """Parse one document per line, whitespace tokens, ids by first appearance."""
    vocab: dict[str, int] = {}
    documents = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        documents.append(tuple(vocab.setdefault(tok, len(vocab)) for tok in tokens))
    if not documents:
        raise ValueError("no documents in input")
    return Corpus(documents=tuple(documents), vocab_size=len(vocab)), vocab


def corpus_to_text(corpus: Corpus, id_to_token: dict[int, str] | None = None) -> str:
    """Inverse of corpus_from_text; integer ids become the tokens by default."""
    name = (lambda t: id_to_token[t]) if id_to_token else str
    return "\n".join(" ".join(name(t) for t in doc) for doc in corpus.documents) + "\n"


def sample_corpus(rng: SeededRng, n_docs: int, doc_length: int, probabilities) -> Corpus:
    """Draw documents i.i.d. from a categorical term distribution."""
    p = np.asarray(probabilities, dtype=np.float64)
    if n_docs < 1 or doc_length < 1:
        raise ValueError("need at least one document and one term")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be a distribution")
    edges = np.cumsum(p)
    edges[-1] = 1.0
    docs = []
    for _ in range(n_docs):
        draws = np.searchsorted(edges, rng.uniform(doc_length), side="right")
        docs.append(tuple(int(t) for t in draws))
    return Corpus(documents=tuple(docs), vocab_size=p.size)


@dataclass(frozen=True)
class BowParams:
    """Softmax parameters of the term distribution."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float64).ravel())
        if self.logits.size < 2:
            raise ValueError("need at least two terms")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")
        if np.any(self.probabilities <= 0):
            raise ValueError("term probabilities underflowed to zero")

    @property
    def probabilities(self) -> np.ndarray:
        return _softmax(self.logits)

    @classmethod
    def from_probabilities(cls, p) -> "BowParams":
        p = np.asarray(p, dtype=np.float64)
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be positive and sum to one")
        return cls(logits=np.log(p))


def bow_gradients(corpus: Corpus, params: BowParams) -> np.ndarray:
    """Gradients of the document log-likelihoods in the logits, one row per document.

    Row i is counts_i - |d| p, which is |d| (tau_i - p) for the document's
    term frequencies tau_i; every row sums to zero because softmax is shift
    invariant.
    """
    p = params.probabilities
    if corpus.vocab_size != p.size:
        raise ValueError(
            f"corpus vocabulary of {corpus.vocab_size} terms does not match "
            f"{p.size} term probabilities"
        )
    return corpus.counts() - corpus.doc_length * p


def tfidf_equivalence_check(
    corpus: Corpus, params: BowParams, lambda_damp: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact influence versus the TF-IDF limit for every document pair.

    Returns three (n_docs, n_docs) arrays whose entry (a, b) belongs to the
    pair (a, b), self pairs included; each is symmetric up to rounding.
    influence_exact is g_a (H + lambda)^-1 g_b.  tfidf_sum is the bare
    weighted dot product sum_t TF TF / p_t; tfidf_form rescales and centers it
    to |d|^2 (tfidf_sum - 1), which is what the centered gradients actually
    produce as the damping vanishes.

    By Sherman-Morrison, with H = Diag(p) - p p^T, w = 1/(p + lambda) and
    c = G w for the gradient block G, the inverse gives G Diag(w) G^T plus
    (G d)(G d)^T / s, where d = p w and s = lambda sum_j p_j w_j.  Every gradient sums to zero, so
    g . d = -lambda g . w, and the second term is lambda c c^T / sum_j p_j w_j:
    only length-V vectors, and no 1/lambda term to cancel.  For the same
    reason c equals G v with v = w - 1/(1 + lambda) = (1 - p) w / (1 + lambda);
    at a large damping w is nearly constant, and G w would be the rounding
    noise of sum_j g_j.  The gap to tfidf_form shrinks linearly in the
    damping.
    """
    if not lambda_damp > 0:
        raise ValueError(f"lambda_damp = {lambda_damp!r} must be positive")
    p = params.probabilities
    grads = bow_gradients(corpus, params)
    # an infinite damping gives inf * 0 below; reported as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        w = 1.0 / (p + lambda_damp)
        c = grads @ ((1.0 - p) * w / (1.0 + lambda_damp))
        # lambda / sum_j p_j w_j overflows near the float limit (1.7e308);
        # scaling each factor of the outer product does not
        influence = (grads * w) @ grads.T + np.outer(lambda_damp * c, c / (p @ w))
    if not np.isfinite(influence).all():
        raise ValueError(f"lambda_damp = {lambda_damp!r} gives a non-finite exact influence")
    length = corpus.doc_length
    tf = corpus.counts() / length
    tf_sum = (tf * (1.0 / p)) @ tf.T
    return influence, tf_sum, length**2 * (tf_sum - 1.0)
