"""Tests for the bag-of-words model and its TF-IDF influence limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit.core import SeededRng
from lissakit.gnh import softmax_hessian
from lissakit.tfidf import (
    BowParams,
    Corpus,
    bow_gradient,
    bow_inverse_hessian,
    corpus_from_text,
    corpus_to_text,
    sample_corpus,
    tfidf_equivalence_check,
    tfidf_weights,
)


def near_uniform_probs(rng, size, spread=0.4):
    raw = rng.uniform(size) * spread + 1.0 - spread / 2
    return raw / raw.sum()


def demo_corpus(seed=1):
    """50 documents of length 8 over a near-uniform 10-term vocabulary."""
    p = near_uniform_probs(SeededRng(seed), 10)
    corpus = sample_corpus(SeededRng(seed + 100), 50, 8, p)
    return corpus, BowParams.from_probabilities(p)


class TestCorpus:
    def test_counts_and_shape(self):
        corpus = Corpus(documents=((0, 0, 2), (1, 2, 2)), vocab_size=3)
        assert corpus.n_docs == 2
        assert corpus.doc_length == 3
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
        corpus, vocab = corpus_from_text("b a\na b\n")
        assert vocab == {"b": 0, "a": 1}
        assert corpus.documents == ((0, 1), (1, 0))

    def test_blank_lines_skipped(self):
        corpus, _ = corpus_from_text("a a\n\na b\n")
        assert corpus.n_docs == 2

    def test_round_trip(self):
        text = "cat dog\ndog dog\n"
        corpus, vocab = corpus_from_text(text)
        names = {i: tok for tok, i in vocab.items()}
        assert corpus_to_text(corpus, names) == text

    def test_integer_token_round_trip(self):
        corpus = Corpus(documents=((0, 1), (1, 1)), vocab_size=2)
        again, _ = corpus_from_text(corpus_to_text(corpus))
        assert again.documents == corpus.documents

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
        assert a.documents == b.documents

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
    def test_single_doc_frequencies(self):
        # doc "a a" over vocabulary {a, b}
        corpus = Corpus(documents=((0, 0),), vocab_size=2)
        weights = tfidf_weights(corpus)
        np.testing.assert_allclose(weights.tf, [[1.0, 0.0]])

    def test_document_frequency_counting(self):
        # docs "a a" and "a b": DF(a)=1, DF(b)=0.5, IDF(b)=sqrt(2)
        corpus = Corpus(documents=((0, 0), (0, 1)), vocab_size=2)
        weights = tfidf_weights(corpus)
        np.testing.assert_allclose(weights.df, [1.0, 0.5])
        assert weights.idf[0] == pytest.approx(1.0)
        assert weights.idf[1] == pytest.approx(np.sqrt(2.0))

    def test_term_frequencies_normalized(self):
        corpus, _ = demo_corpus()
        np.testing.assert_allclose(tfidf_weights(corpus).tf.sum(axis=1), 1.0, atol=1e-12)

    def test_absent_term_flagged(self):
        corpus = Corpus(documents=((0, 1),), vocab_size=3)
        weights = tfidf_weights(corpus)
        assert weights.df[2] == 0.0
        assert np.isnan(weights.idf[2])
        np.testing.assert_array_equal(weights.undefined_terms, [2])


class TestBowGradient:
    def test_matching_frequencies_give_zero(self):
        grad = bow_gradient((0, 1), BowParams.from_probabilities([0.5, 0.5]))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_two_term_example(self):
        # doc "a a" with p = (0.5, 0.5): gradient (1, -1)
        grad = bow_gradient((0, 0), BowParams.from_probabilities([0.5, 0.5]))
        np.testing.assert_allclose(grad, [1.0, -1.0], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 12))
    def test_entries_sum_to_zero(self, seed, length):
        rng = SeededRng(seed)
        params = BowParams(logits=rng.normal(7))
        doc = tuple(int(t) for t in rng.integers(length, 7))
        assert abs(bow_gradient(doc, params).sum()) <= 1e-12

    def test_empty_doc_rejected(self):
        with pytest.raises(ValueError):
            bow_gradient((), BowParams.from_probabilities([0.5, 0.5]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bow_gradient((2,), BowParams.from_probabilities([0.5, 0.5]))


class TestBowInverseHessian:
    def test_uniform_two_term_matches_dense_inverse(self):
        params = BowParams.from_probabilities([0.5, 0.5])
        dense = np.linalg.inv(np.array([[0.25, -0.25], [-0.25, 0.25]]) + np.eye(2))
        np.testing.assert_allclose(bow_inverse_hessian(params, 1.0), dense, atol=1e-10)

    def test_residual_across_damping_range(self):
        params = BowParams(logits=SeededRng(6).normal(25) * 0.2)
        H = softmax_hessian(params.logits)
        for lam in [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e3]:
            M = bow_inverse_hessian(params, lam)
            residual = (H + lam * np.eye(25)) @ M - np.eye(25)
            assert np.abs(residual).max() <= 1e-10, f"damping {lam}"

    def test_matches_dense_solve_at_moderate_damping(self):
        params = BowParams(logits=SeededRng(7).normal(12))
        for lam in [1e-2, 1.0, 1e3]:
            dense = np.linalg.inv(softmax_hessian(params.logits) + lam * np.eye(12))
            np.testing.assert_allclose(bow_inverse_hessian(params, lam), dense, atol=1e-10)

    def test_large_damping_approaches_scaled_identity(self):
        params = BowParams(logits=SeededRng(8).normal(15) * 0.5)
        lam = 1e3
        H = softmax_hessian(params.logits)
        gap = np.linalg.norm(lam * bow_inverse_hessian(params, lam) - np.eye(15), 2)
        assert gap <= 2 * np.linalg.norm(H, 2) / lam

    def test_non_positive_damping_rejected(self):
        params = BowParams.from_probabilities([0.5, 0.5])
        for lam in [0.0, -1.0]:
            with pytest.raises(ValueError):
                bow_inverse_hessian(params, lam)

    def test_damping_that_overflows_the_inverse_rejected(self):
        # s = lambda * sum_j p_j / (p_j + lambda) is subnormal, so d d^T / s overflows
        params = BowParams.from_probabilities([0.5, 0.5])
        for lam in [5e-324, 1e-310]:
            with pytest.raises(ValueError, match="lambda_damp"):
                bow_inverse_hessian(params, lam)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), log_lam=st.floats(-6, 3))
    def test_residual_property(self, seed, log_lam):
        rng = SeededRng(seed)
        size = 2 + int(rng.integers(1, 28)[0])
        params = BowParams(logits=rng.normal(size) * 0.4)
        lam = 10.0**log_lam
        M = bow_inverse_hessian(params, lam)
        residual = (softmax_hessian(params.logits) + lam * np.eye(size)) @ M - np.eye(size)
        assert np.abs(residual).max() <= 1e-10


class TestEquivalenceCheck:
    def test_overflowing_influence_rejected(self):
        # the inverse is finite, but its rank-one term near 1e308 overflows g^T M g
        corpus = Corpus(documents=((0,) * 8, (1, 2) * 4), vocab_size=3)
        params = BowParams.from_probabilities([0.2, 0.3, 0.5])
        assert np.isfinite(bow_inverse_hessian(params, 3e-309)).all()
        with pytest.raises(ValueError, match="overflows the exact influence"):
            tfidf_equivalence_check(corpus, params, 3e-309)

    def test_disjoint_frequency_pair_is_zero(self):
        # docs "a a" and "a b" at p = (0.5, 0.5): both forms vanish
        corpus = Corpus(documents=((0, 0), (0, 1)), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        rows = {(r.doc_a, r.doc_b): r for r in tfidf_equivalence_check(corpus, params, 1e-8)}
        pair = rows[(0, 1)]
        assert pair.tfidf_sum == pytest.approx(1.0)
        assert pair.tfidf_form == pytest.approx(0.0, abs=1e-12)
        assert abs(pair.influence_exact) <= 1e-6

    def test_self_pair_value(self):
        # doc "a a" against itself: |d|^2 (1/0.5 - 1) = 4
        corpus = Corpus(documents=((0, 0), (0, 1)), vocab_size=2)
        params = BowParams.from_probabilities([0.5, 0.5])
        rows = {(r.doc_a, r.doc_b): r for r in tfidf_equivalence_check(corpus, params, 1e-8)}
        self_pair = rows[(0, 0)]
        assert self_pair.tfidf_form == pytest.approx(4.0)
        assert self_pair.influence_exact == pytest.approx(4.0, rel=1e-6)

    def test_large_damping_regime(self):
        corpus, params = demo_corpus()
        lam = 1e3
        rows = tfidf_equivalence_check(corpus, params, lam)
        weights = tfidf_weights(corpus)
        grads = (weights.tf - params.probabilities) * corpus.doc_length
        norms = np.linalg.norm(grads, axis=1)
        curvature_norm = np.linalg.norm(softmax_hessian(params.logits), 2)
        deviations = 0
        for row in rows:
            raw = float(grads[row.doc_a] @ grads[row.doc_b])
            slack = norms[row.doc_a] * norms[row.doc_b] * curvature_norm / lam**2
            assert abs(row.influence_exact - raw / lam) <= slack
            if row.abs_diff > 0.5 * abs(row.tfidf_form):
                deviations += 1
        assert deviations > len(rows) / 2

    def test_small_damping_agreement(self):
        corpus, params = demo_corpus()
        rows = tfidf_equivalence_check(corpus, params, 1e-8)
        bound = 1e-6 * corpus.doc_length**2
        assert max(r.abs_diff for r in rows) <= bound

    def test_residual_linear_in_damping(self):
        corpus, params = demo_corpus()
        lams = [1e-8, 1e-6, 1e-4]
        slopes = []
        for lam in lams:
            worst = max(r.abs_diff for r in tfidf_equivalence_check(corpus, params, lam))
            slopes.append(worst / lam)
        for slope in slopes[1:]:
            assert slope / slopes[0] == pytest.approx(1.0, abs=0.2)

    def test_gap_bound_constant_stable_across_corpora(self):
        # abs_diff <= c * damping * |g_a| |g_b| with one c fitted once
        fitted = []
        for seed in [1, 2]:
            corpus, params = demo_corpus(seed)
            weights = tfidf_weights(corpus)
            grads = (weights.tf - params.probabilities) * corpus.doc_length
            norms = np.linalg.norm(grads, axis=1)
            for lam in [1e-6, 1e-4]:
                rows = tfidf_equivalence_check(corpus, params, lam)
                c = max(r.abs_diff / (lam * norms[r.doc_a] * norms[r.doc_b]) for r in rows)
                fitted.append(c)
        assert max(fitted) <= 1.5 * min(fitted)

    def test_pair_enumeration(self):
        corpus, params = demo_corpus()
        rows = tfidf_equivalence_check(corpus, params, 1e-4)
        assert len(rows) == 50 * 51 // 2
        assert all(r.doc_a <= r.doc_b for r in rows)

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
        weights = tfidf_weights(corpus)
        assert weights.undefined_terms.size == 0

        tf = weights.tf
        n = corpus.n_docs
        totals = tf.sum(axis=0)
        squares = (tf**2).sum(axis=0)
        pair_mean = (totals**2 - squares) / (n * (n - 1))
        idf_dot = float((pair_mean * weights.idf**2).sum())
        prob_dot = float((pair_mean / p).sum()) / corpus.doc_length
        assert idf_dot / prob_dot == pytest.approx(1.0, abs=0.2)
