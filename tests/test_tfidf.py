"""Tests for the bag-of-words model and its TF-IDF influence limit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import softmax_hessian
from lissakit.core import SeededRng
from lissakit.tfidf import (
    BowParams,
    Corpus,
    bow_gradients,
    corpus_from_text,
    corpus_to_text,
    sample_corpus,
    tfidf_equivalence_check,
)


def near_uniform_probs(rng, size, spread=0.4):
    raw = rng.uniform(size) * spread + 1.0 - spread / 2
    return raw / raw.sum()


def demo_corpus(seed=1):
    """50 documents of length 8 over a near-uniform 10-term vocabulary."""
    p = near_uniform_probs(SeededRng(seed), 10)
    corpus = sample_corpus(SeededRng(seed + 100), 50, 8, p)
    return corpus, BowParams.from_probabilities(p)


def influence_matrix(corpus, params, lambda_damp):
    """influence_exact of every document pair as an (n_docs, n_docs) array."""
    return tfidf_equivalence_check(corpus, params, lambda_damp)[0]


def pair_gaps(corpus, params, lambda_damp):
    """Pairs a <= b in row-major order, with |influence_exact - tfidf_form|
    of each: the doc_a, doc_b and abs_diff columns of tfidf_pairs.csv."""
    influence, _, form = tfidf_equivalence_check(corpus, params, lambda_damp)
    a, b = np.triu_indices(corpus.n_docs)
    return a, b, np.abs(influence[a, b] - form[a, b])


def dense_solve_influence(corpus, params, lambda_damp):
    """G (H + lambda I)^-1 G^T from an LU solve of the dense damped curvature."""
    grads = bow_gradients(corpus, params)
    system = softmax_hessian(params.logits) + lambda_damp * np.eye(corpus.vocab_size)
    return grads @ np.linalg.solve(system, grads.T)


def exact_influence(corpus, params, lambda_damp):
    """G (H + lambda)^-1 G^T in rational arithmetic, with p rescaled to sum to
    exactly one so that every gradient sums to exactly zero."""
    p = [Fraction(x) for x in params.probabilities]
    p = [x / sum(p) for x in p]
    lam = Fraction(lambda_damp)
    w = [1 / (x + lam) for x in p]
    d = [x * y for x, y in zip(p, w)]
    s = 1 - sum(x * y for x, y in zip(p, d))  # 1 - p^T Diag(w) p
    grads = [[int(n) - corpus.doc_length * x for n, x in zip(row, p)] for row in corpus.counts()]
    gd = [sum(g * y for g, y in zip(row, d)) for row in grads]
    return np.array(
        [
            [float(sum(x * y * z for x, y, z in zip(ga, gb, w)) + da * db / s) for gb, db in zip(grads, gd)]
            for ga, da in zip(grads, gd)
        ]
    )


def random_corpus(rng, vocab_size, n_docs, doc_length, scale):
    """A sampled corpus under softmax(scale * normal) term probabilities."""
    params = BowParams(logits=rng.normal(vocab_size) * scale)
    return sample_corpus(rng, n_docs, doc_length, params.probabilities), params


class TestCorpus:
    def test_counts_and_shape(self):
        corpus = Corpus(documents=((0, 0, 2), (1, 2, 2)), vocab_size=3)
        assert corpus.n_docs == 2
        assert corpus.doc_length == 3
        assert corpus.documents.dtype == np.int64 and corpus.documents.shape == (2, 3)
        np.testing.assert_array_equal(corpus.counts(), [[2, 0, 1], [0, 1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Corpus(documents=(), vocab_size=2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            Corpus(documents=((0, 1), (0,)), vocab_size=2)

    def test_out_of_range_term_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            Corpus(documents=((0, 3),), vocab_size=3)

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            Corpus(documents=((0, -1),), vocab_size=3)

    def test_unused_vocabulary_entries_allowed(self):
        corpus = Corpus(documents=((0, 1),), vocab_size=5)
        assert corpus.vocab_size == 5


class TestTextIo:
    def test_first_appearance_ids(self):
        corpus = corpus_from_text("b a\na b\n")
        np.testing.assert_array_equal(corpus.documents, [[0, 1], [1, 0]])

    def test_blank_lines_skipped(self):
        corpus = corpus_from_text("a a\n\na b\n")
        assert corpus.n_docs == 2

    def test_integer_token_round_trip(self):
        corpus = Corpus(documents=((0, 1), (1, 1)), vocab_size=2)
        again = corpus_from_text(corpus_to_text(corpus))
        np.testing.assert_array_equal(again.documents, corpus.documents)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            corpus_from_text("\n\n")

    def test_unequal_lines_rejected(self):
        with pytest.raises(ValueError):
            corpus_from_text("a a\nb\n")


class TestSampleCorpus:
    def test_deterministic(self):
        p = [0.2, 0.3, 0.5]
        a = sample_corpus(SeededRng(3), 5, 4, p)
        b = sample_corpus(SeededRng(3), 5, 4, p)
        np.testing.assert_array_equal(a.documents, b.documents)

    def test_one_draw_equals_a_draw_per_document(self):
        # document i holds words i L .. (i + 1) L - 1 of the stream
        p = [0.2, 0.3, 0.5]
        rng = SeededRng(5)
        singles = [sample_corpus(rng, 1, 4, p).documents[0] for _ in range(6)]
        np.testing.assert_array_equal(sample_corpus(SeededRng(5), 6, 4, p).documents, singles)

    def test_marginals_match_distribution(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        corpus = sample_corpus(SeededRng(4), 4000, 5, p)
        freq = corpus.counts().sum(axis=0) / (4000 * 5)
        np.testing.assert_allclose(freq, p, atol=0.01)

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            sample_corpus(SeededRng(0), 2, 2, [0.5, 0.4])

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            sample_corpus(SeededRng(0), 0, 2, [0.5, 0.5])


class TestBowParams:
    def test_probabilities_are_softmax(self):
        params = BowParams(logits=np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(params.probabilities, [0.25, 0.75], atol=1e-12)

    def test_from_probabilities_round_trip(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(BowParams.from_probabilities(p).probabilities, p, atol=1e-12)

    def test_sum_to_one(self):
        params = BowParams(logits=SeededRng(5).normal(20))
        assert params.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            BowParams(logits=np.array([1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BowParams(logits=np.array([0.0, np.inf]))

    def test_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflow"):
            BowParams(logits=np.array([0.0, -800.0]))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            BowParams.from_probabilities([0.5, 0.6])


class TestTfIdfWeights:
    """The check's TF = counts / |d| and its 1/p term weights."""

    def test_single_doc_frequencies(self):
        # doc "a a" over vocabulary {a, b}: TF = (1, 0), so sum_t TF TF / p_t = 1 / p_a
        corpus = Corpus(documents=((0, 0),), vocab_size=2)
        params = BowParams.from_probabilities([0.25, 0.75])
        _, tfidf_sum, _ = tfidf_equivalence_check(corpus, params, 1.0)
        assert tfidf_sum.shape == (1, 1)
        assert tfidf_sum[0, 0] == pytest.approx(4.0, rel=1e-15)

    def test_term_frequencies_normalized(self):
        # |d|^2 sum_t (TF_a - p)(TF_b - p) / p_t is |d|^2 (tfidf_sum - 1) only
        # when every TF row sums to one
        corpus, params = demo_corpus()
        p = params.probabilities
        centered = corpus.counts() / corpus.doc_length - p
        _, _, form = tfidf_equivalence_check(corpus, params, 1e-4)
        for a, b in zip(*np.triu_indices(corpus.n_docs)):
            expected = corpus.doc_length**2 * float((centered[a] * centered[b] / p).sum())
            assert form[a, b] == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestBowGradient:
    """The gradient block: one row counts - |d| p per document."""

    def test_matching_frequencies_give_zero(self):
        corpus = Corpus(documents=((0, 1),), vocab_size=2)
        grads = bow_gradients(corpus, BowParams.from_probabilities([0.5, 0.5]))
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_two_term_example(self):
        # docs "a a" and "b a" with p = (0.5, 0.5): gradients (1, -1) and (0, 0)
        corpus = Corpus(documents=((0, 0), (1, 0)), vocab_size=2)
        grads = bow_gradients(corpus, BowParams.from_probabilities([0.5, 0.5]))
        np.testing.assert_allclose(grads, [[1.0, -1.0], [0.0, 0.0]], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 12))
    def test_entries_sum_to_zero(self, seed, length):
        rng = SeededRng(seed)
        params = BowParams(logits=rng.normal(7))
        docs = tuple(tuple(int(t) for t in rng.integers(length, 7)) for _ in range(3))
        grads = bow_gradients(Corpus(documents=docs, vocab_size=7), params)
        assert grads.shape == (3, 7)
        assert np.abs(grads.sum(axis=1)).max() <= 1e-12

    def test_empty_doc_rejected(self):
        # the corpus refuses an empty document, so no gradient block is built
        with pytest.raises(ValueError, match="empty"):
            corpus = Corpus(documents=((),), vocab_size=2)
            bow_gradients(corpus, BowParams.from_probabilities([0.5, 0.5]))

    def test_out_of_range_rejected(self):
        # a term the probabilities do not cover
        corpus = Corpus(documents=((2,),), vocab_size=3)
        with pytest.raises(ValueError, match="vocabulary"):
            bow_gradients(corpus, BowParams.from_probabilities([0.5, 0.5]))


class TestBowInverseHessian:
    """The damped inverse (H + lambda)^-1, as the closed form applies it to the gradients."""

    def test_uniform_two_term_matches_dense_inverse(self):
        corpus = Corpus(documents=((0, 0), (0, 1), (1, 1)), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        dense = np.linalg.inv(np.array([[0.25, -0.25], [-0.25, 0.25]]) + np.eye(2))
        grads = bow_gradients(corpus, params)
        np.testing.assert_allclose(
            influence_matrix(corpus, params, 1.0), grads @ dense @ grads.T, atol=1e-10
        )

    def test_matches_dense_solve_across_damping_range(self):
        rng = SeededRng(6)
        corpus, params = random_corpus(rng, 25, 30, 9, 0.2)
        for lam in [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e3]:
            reference = dense_solve_influence(corpus, params, lam)
            gap = np.abs(influence_matrix(corpus, params, lam) - reference).max()
            assert gap <= 1e-12 * np.abs(reference).max(), f"damping {lam}"

    def test_matches_dense_solve_at_moderate_damping(self):
        corpus, params = random_corpus(SeededRng(7), 12, 10, 6, 1.0)
        for lam in [1e-2, 1.0, 1e3]:
            np.testing.assert_allclose(
                influence_matrix(corpus, params, lam),
                dense_solve_influence(corpus, params, lam),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_large_damping_approaches_scaled_identity(self):
        # lambda (H + lambda)^-1 -> I, so lambda g_a M g_b -> g_a . g_b
        corpus, params = random_corpus(SeededRng(8), 15, 12, 7, 0.5)
        lam = 1e3
        grads = bow_gradients(corpus, params)
        norms = np.linalg.norm(grads, axis=1)
        curvature_norm = np.linalg.norm(softmax_hessian(params.logits), 2)
        gap = np.abs(lam * influence_matrix(corpus, params, lam) - grads @ grads.T)
        assert (gap <= 2 * curvature_norm / lam * np.outer(norms, norms)).all()

    def test_non_positive_damping_rejected(self):
        corpus = Corpus(documents=((0, 1),), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        for lam in [0.0, -1.0]:
            with pytest.raises(ValueError, match="lambda_damp"):
                tfidf_equivalence_check(corpus, params, lam)

    def test_damping_that_overflows_the_inverse_rejected(self):
        # a subnormal p_t + lambda overflows w_t = 1 / (p_t + lambda)
        corpus = Corpus(documents=((0, 1), (0, 0)), vocab_size=2)
        params = BowParams(logits=[0.0, -744.0])
        assert params.probabilities[1] < 1e-320
        for lam in [5e-324, 1e-310]:
            with pytest.raises(ValueError, match="lambda_damp"):
                tfidf_equivalence_check(corpus, params, lam)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), log_lam=st.floats(-8, 3))
    def test_matches_dense_solve_property(self, seed, log_lam):
        rng = SeededRng(seed)
        size = 2 + int(rng.integers(1, 28)[0])
        n_docs = 1 + int(rng.integers(1, 12)[0])
        length = 1 + int(rng.integers(1, 12)[0])
        corpus, params = random_corpus(rng, size, n_docs, length, 0.4)
        lam = 10.0**log_lam
        reference = dense_solve_influence(corpus, params, lam)
        gap = np.abs(influence_matrix(corpus, params, lam) - reference).max()
        assert gap <= 1e-12 * np.abs(reference).max()


class TestEquivalenceCheck:
    def test_tiny_damping_gives_the_zero_damping_limit(self):
        # the dense inverse's rank-one term, about 1/(lambda V), overflowed here
        # or cancelled to ~1e284 against the zero-sum gradients; the closed
        # form has no such term, so influence_exact is the TF-IDF form itself
        corpus = Corpus(documents=((0,) * 8, (1, 2) * 4), vocab_size=3)
        params = BowParams.from_probabilities([0.2, 0.3, 0.5])
        for lam in [3e-309, 1e-310, 5e-324]:
            influence = influence_matrix(corpus, params, lam)
            # |d|^2 (sum_t TF TF / p_t - 1): 64 (1/0.2 - 1), 64 (0.25/0.3 + 0.25/0.5 - 1), -64
            assert influence[0, 0] == pytest.approx(256.0, rel=1e-14)
            expected = 64 * (0.25 / 0.3 + 0.25 / 0.5 - 1)
            assert influence[1, 1] == pytest.approx(expected, rel=1e-14)
            assert influence[0, 1] == pytest.approx(-64.0, rel=1e-14)
            assert pair_gaps(corpus, params, lam)[2].max() <= 1e-12

    def test_counts_the_corpus_once(self, monkeypatch):
        # the gradients and the term frequencies share one count
        calls = []
        real_counts = Corpus.counts

        def counts(self):
            calls.append(self)
            return real_counts(self)

        corpus = Corpus(documents=((0, 1, 1), (2, 0, 2), (1, 1, 1)), vocab_size=3)
        params = BowParams.from_probabilities([0.2, 0.3, 0.5])
        want = tfidf_equivalence_check(corpus, params, 0.1)
        monkeypatch.setattr(Corpus, "counts", counts)
        got = tfidf_equivalence_check(corpus, params, 0.1)
        assert calls == [corpus]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_overflowing_influence_rejected(self):
        # w is finite, but |d|^2 w_t near 1e311 overflows g Diag(w) g^T
        corpus = Corpus(documents=((1,) * 100, (0,) * 100), vocab_size=2)
        params = BowParams.from_probabilities([1.0 - 1e-307, 1e-307])
        assert np.isfinite(1.0 / (params.probabilities + 3e-309)).all()
        with pytest.raises(ValueError, match="non-finite exact influence"):
            tfidf_equivalence_check(corpus, params, 3e-309)

    def test_matches_exact_arithmetic_across_the_float_range(self):
        # no cancellation at either end: a tiny damping leaves no 1/lambda
        # term, and a large one no rounding noise of sum_j g_j
        for seed in range(3):
            corpus, params = random_corpus(SeededRng(seed), 5, 4, 6, 0.8)
            for lam in [5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e20, 1e300, 1.7e308]:
                reference = exact_influence(corpus, params, lam)
                gap = np.abs(influence_matrix(corpus, params, lam) - reference).max()
                assert gap <= 1e-14 * np.abs(reference).max(), f"seed {seed}, damping {lam}"

    def test_disjoint_frequency_pair_is_zero(self):
        # docs "a a" and "a b" at p = (0.5, 0.5): both forms vanish
        corpus = Corpus(documents=((0, 0), (0, 1)), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        influence, tfidf_sum, form = tfidf_equivalence_check(corpus, params, 1e-8)
        assert tfidf_sum[0, 1] == pytest.approx(1.0)
        assert form[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert abs(influence[0, 1]) <= 1e-6

    def test_self_pair_value(self):
        # doc "a a" against itself: |d|^2 (1/0.5 - 1) = 4
        corpus = Corpus(documents=((0, 0), (0, 1)), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        influence, _, form = tfidf_equivalence_check(corpus, params, 1e-8)
        assert form[0, 0] == pytest.approx(4.0)
        assert influence[0, 0] == pytest.approx(4.0, rel=1e-6)

    def test_large_damping_regime(self):
        corpus, params = demo_corpus()
        lam = 1e3
        influence, _, form = tfidf_equivalence_check(corpus, params, lam)
        grads = bow_gradients(corpus, params)
        norms = np.linalg.norm(grads, axis=1)
        curvature_norm = np.linalg.norm(softmax_hessian(params.logits), 2)
        deviations = 0
        pairs = list(zip(*pair_gaps(corpus, params, lam)))
        for a, b, abs_diff in pairs:
            raw = float(grads[a] @ grads[b])
            slack = norms[a] * norms[b] * curvature_norm / lam**2
            assert abs(influence[a, b] - raw / lam) <= slack
            if abs_diff > 0.5 * abs(form[a, b]):
                deviations += 1
        assert deviations > len(pairs) / 2

    def test_small_damping_agreement(self):
        corpus, params = demo_corpus()
        bound = 1e-6 * corpus.doc_length**2
        assert pair_gaps(corpus, params, 1e-8)[2].max() <= bound

    def test_residual_linear_in_damping(self):
        corpus, params = demo_corpus()
        lams = [1e-8, 1e-6, 1e-4]
        slopes = []
        for lam in lams:
            worst = pair_gaps(corpus, params, lam)[2].max()
            slopes.append(worst / lam)
        for slope in slopes[1:]:
            assert slope / slopes[0] == pytest.approx(1.0, abs=0.2)

    def test_gap_bound_constant_stable_across_corpora(self):
        # abs_diff <= c * damping * |g_a| |g_b| with one c fitted once
        fitted = []
        for seed in [1, 2]:
            corpus, params = demo_corpus(seed)
            grads = bow_gradients(corpus, params)
            norms = np.linalg.norm(grads, axis=1)
            for lam in [1e-6, 1e-4]:
                a, b, abs_diff = pair_gaps(corpus, params, lam)
                c = (abs_diff / (lam * norms[a] * norms[b])).max()
                fitted.append(c)
        assert max(fitted) <= 1.5 * min(fitted)

    def test_pair_enumeration(self):
        # every ordered pair, self pairs included, in three symmetric arrays
        corpus, params = demo_corpus()
        for table in tfidf_equivalence_check(corpus, params, 1e-4):
            assert table.shape == (50, 50)
            assert np.abs(table - table.T).max() <= 1e-12 * np.abs(table).max()
        a, b, _ = pair_gaps(corpus, params, 1e-4)
        assert len(a) == 50 * 51 // 2
        assert (a <= b).all()

    def test_zero_damping_rejected(self):
        corpus = Corpus(documents=((0, 1),), vocab_size=2)
        with pytest.raises(ValueError):
            tfidf_equivalence_check(corpus, BowParams.from_probabilities([0.5, 0.5]), 0.0)


class TestSqrtIdfApproximation:
    def test_rare_term_consistency(self):
        # when p_t |d| is small, DF is close to |d| p_t, so the sqrt-IDF
        # weighted dot product tracks (1/|d|) sum TF TF / p_t
        p = near_uniform_probs(SeededRng(11), 40)
        corpus = sample_corpus(SeededRng(12), 2000, 4, p)
        assert (p * corpus.doc_length).max() < 0.15
        counts = corpus.counts()
        df = (counts > 0).mean(axis=0)
        assert (df > 0).all()

        tf = counts / corpus.doc_length
        n = corpus.n_docs
        totals = tf.sum(axis=0)
        squares = (tf**2).sum(axis=0)
        pair_mean = (totals**2 - squares) / (n * (n - 1))
        # sqrt-IDF weights sqrt(1/DF) enter the dot product squared
        idf_dot = float((pair_mean / df).sum())
        prob_dot = float((pair_mean / p).sum()) / corpus.doc_length
        assert idf_dot / prob_dot == pytest.approx(1.0, abs=0.2)
