"""Tests for influence scores, similarity matrices, and eigen reweighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit.core import SeededRng, sym_eig
from lissakit.influence import (
    SimilarityMatrix,
    eigen_reweight,
    eigen_reweight_reconstruction,
    influence_score,
    similarity_matrix,
)
from lissakit.lissa import exact_ihvp
from lissakit.models import ParamVector


def random_psd(n, seed, spread=1.0):
    rng = SeededRng(seed)
    A = rng.normal(n * n).reshape(n, n)
    return A @ A.T * spread / n


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestInfluenceScore:
    def test_plain_dot_product(self):
        u = np.array([1.0, 2.0, -1.0])
        g = np.array([0.5, 0.0, 3.0])
        assert influence_score(u, g) == pytest.approx(-2.5)

    def test_zero_vector_scores_zero(self):
        assert influence_score(np.zeros(4), np.ones(4)) == 0.0

    def test_identity_curvature_reduces_to_negative_gradient_dot(self):
        # with H = 0 and damping 1 the solve of -grad is just -grad
        rng = SeededRng(3)
        train_grad = rng.normal(6)
        test_grad = rng.normal(6)
        u = exact_ihvp(sym_eig(np.zeros((6, 6))), 1.0, -train_grad)
        assert influence_score(u, test_grad) == pytest.approx(-float(train_grad @ test_grad))

    def test_param_vector_inputs(self):
        segments = (("all", 0, 3),)
        u = ParamVector(np.array([1.0, 0.0, 2.0]), segments)
        g = ParamVector(np.array([3.0, 5.0, 0.5]), segments)
        assert influence_score(u, g) == pytest.approx(4.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            influence_score(np.ones(3), np.ones(4))


class TestGradientSimilarity:
    def test_orthogonal_vectors(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        sim = similarity_matrix(grads)
        assert sim.values == pytest.approx(np.eye(2))

    def test_known_cosine(self):
        grads = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        sim = similarity_matrix(grads)
        assert sim.values[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_matches_pairwise_cosine(self):
        rng = SeededRng(11)
        grads = [rng.normal(8) for _ in range(5)]
        sim = similarity_matrix(grads)
        for i in range(5):
            for j in range(5):
                assert sim.values[i, j] == pytest.approx(cosine(grads[i], grads[j]), abs=1e-12)

    def test_rescaling_invariance(self):
        rng = SeededRng(12)
        grads = [rng.normal(6) for _ in range(4)]
        scaled = [g * s for g, s in zip(grads, [0.01, 5.0, 300.0, 1.0])]
        a = similarity_matrix(grads)
        b = similarity_matrix(scaled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            similarity_matrix([np.ones(3), np.zeros(3)])

    def test_single_gradient_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([np.ones(3)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([np.ones(3), np.ones(4)])

    def test_default_labels(self):
        sim = similarity_matrix([np.ones(2), np.array([1.0, -1.0])])
        assert sim.labels == [0, 1]

    def test_custom_labels(self):
        sim = similarity_matrix([np.ones(2), np.array([1.0, -1.0])], labels=["a", "b"])
        assert sim.labels == ["a", "b"]


class TestInfluenceSimilarity:
    def test_identity_solver_reduces_to_cosine(self):
        rng = SeededRng(4)
        grads = [rng.normal(7) for _ in range(4)]
        plain = similarity_matrix(grads)
        ident = similarity_matrix(grads, ihvp_solver=lambda v: v)
        np.testing.assert_allclose(plain.values, ident.values, atol=1e-12)

    def test_symmetric_and_unit_diagonal(self):
        H = random_psd(10, seed=21)
        damp = 0.3
        rng = SeededRng(5)
        grads = [rng.normal(10) for _ in range(6)]
        sim = similarity_matrix(grads, ihvp_solver=lambda v: exact_ihvp(sym_eig(H), damp, v))
        assert np.abs(sim.values - sim.values.T).max() <= 1e-9
        assert np.abs(np.diag(sim.values) - 1.0).max() <= 1e-9

    def test_matches_whitened_cosine(self):
        # similarity under (H + lambda)^-1 is cosine of (H + lambda)^-1/2 g
        H = random_psd(9, seed=22)
        damp = 0.5
        eigenvalues, vectors = np.linalg.eigh(H)
        whiten = vectors @ np.diag((eigenvalues + damp) ** -0.5) @ vectors.T
        rng = SeededRng(6)
        grads = [rng.normal(9) for _ in range(5)]
        sim = similarity_matrix(grads, ihvp_solver=lambda v: exact_ihvp(sym_eig(H), damp, v))
        for i in range(5):
            for j in range(5):
                expected = cosine(whiten @ grads[i], whiten @ grads[j])
                assert abs(sim.values[i, j] - expected) <= 1e-8

    def test_rescaling_invariance(self):
        H = random_psd(8, seed=23)
        solver = lambda v: exact_ihvp(sym_eig(H), 0.2, v)
        rng = SeededRng(7)
        grads = [rng.normal(8) for _ in range(4)]
        scaled = [g * s for g, s in zip(grads, [10.0, 0.5, 2.0, 7.0])]
        a = similarity_matrix(grads, ihvp_solver=solver)
        b = similarity_matrix(scaled, ihvp_solver=solver)
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_near_duplicates_beat_median_pair(self):
        # shared high-curvature component inflates raw-gradient similarity;
        # whitening strips it, so only the planted duplicates stay close
        n = 20
        rng = SeededRng(31)
        top = rng.normal(n)
        top /= np.linalg.norm(top)
        H = 50.0 * np.outer(top, top) + random_psd(n, seed=32, spread=0.5)
        damp = 0.1
        grads = []
        for k in range(8):
            noise = rng.normal(n)
            grads.append(3.0 * float(rng.uniform(1)[0]) * top + 0.3 * noise)
        grads.append(grads[0] + 1e-3 * rng.normal(n))

        solver = lambda v: exact_ihvp(sym_eig(H), damp, v)
        infl = similarity_matrix(grads, ihvp_solver=solver)
        grad = similarity_matrix(grads)

        off = ~np.eye(len(grads), dtype=bool)
        pair = infl.values[0, -1]
        assert pair > np.median(infl.values[off])
        assert pair > 0.99
        # unrelated pairs decorrelate after whitening but not before
        assert np.median(infl.values[off]) < np.median(grad.values[off])

    def test_solver_called_once_on_the_whole_block(self):
        H = random_psd(10, seed=24)
        grads = [SeededRng(9).normal(10) * k for k in range(1, 6)]
        shapes = []

        def solver(block):
            shapes.append(block.shape)
            return exact_ihvp(sym_eig(H), 0.4, block)

        sim = similarity_matrix(grads, ihvp_solver=solver)
        assert shapes == [(10, 5)]
        assert sim.kind == "influence"
        assert similarity_matrix(grads).kind == "gradient"

    def test_non_positive_self_score_rejected(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(ValueError, match="self-similarity"):
            similarity_matrix(grads, ihvp_solver=lambda v: -v)


class TestSimilarityMatrixType:
    def test_asymmetric_rejected(self):
        values = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            SimilarityMatrix(values=values, labels=[0, 1], kind="gradient")

    def test_off_diagonal_rejected(self):
        values = np.array([[1.0, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(values=values, labels=[0, 1], kind="gradient")

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(values=np.eye(2), labels=[0], kind="gradient")


class TestEigenReweight:
    def test_two_eigenvalue_example(self):
        # eigenvalues 10 and 0.1 with damping 1: weights 1/11 and 1/1.1
        H = np.diag([10.0, 0.1])
        rows = eigen_reweight(np.array([1.0, 1.0]), sym_eig(H), lambda_damp=1.0)
        assert rows[0][0] == pytest.approx(10.0)
        assert rows[0][2] == pytest.approx(1 / 11)
        assert rows[1][2] == pytest.approx(1 / 1.1)

    def test_descending_eigenvalue_order(self):
        H = random_psd(12, seed=41)
        rows = eigen_reweight(SeededRng(1).normal(12), sym_eig(H), 0.5)
        eigenvalues = [r[0] for r in rows]
        assert eigenvalues == sorted(eigenvalues, reverse=True)

    def test_flat_direction_gets_weight_one(self):
        H = np.diag([2.0, 0.0])
        rows = eigen_reweight(np.array([1.0, 1.0]), sym_eig(H), lambda_damp=0.5)
        assert rows[0][2] == pytest.approx(0.5 / 2.5)
        assert rows[1][2] == pytest.approx(1.0)

    def test_zero_damping_zero_eigenvalue_limit(self):
        H = np.diag([3.0, 0.0])
        rows = eigen_reweight(np.array([1.0, 1.0]), sym_eig(H), lambda_damp=0.0)
        assert rows[0][2] == 0.0
        assert rows[1][2] == 1.0

    def test_coefficients_on_diagonal_matrix(self):
        H = np.diag([4.0, 3.0, 1.0])
        g = np.array([0.5, -2.0, 7.0])
        rows = eigen_reweight(g, sym_eig(H), 1.0)
        assert sorted(abs(r[1]) for r in rows) == pytest.approx([0.5, 2.0, 7.0])

    def test_reconstruction_matches_damped_solve(self):
        H = random_psd(30, seed=42)
        damp = 0.7
        g = SeededRng(8).normal(30)
        recon = eigen_reweight_reconstruction(g, sym_eig(H), damp)
        expected = damp * np.linalg.solve(H + damp * np.eye(30), g)
        assert np.abs(recon - expected).max() <= 1e-8

    def test_top_direction_suppression_is_exact(self):
        # a gradient along the top eigendirection keeps norm damp/(top + damp)
        H = random_psd(15, seed=43)
        damp = 0.25
        eigenvalues, vectors = np.linalg.eigh(H)
        top_value = eigenvalues[-1]
        g = vectors[:, -1] * 4.0
        recon = eigen_reweight_reconstruction(g, sym_eig(H), damp)
        expected_norm = damp / (top_value + damp) * np.linalg.norm(g)
        assert np.linalg.norm(recon) == pytest.approx(expected_norm, rel=1e-10)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            eigen_reweight(np.ones(2), sym_eig(np.eye(2)), -0.1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            eigen_reweight(np.ones(3), sym_eig(np.eye(2)), 0.1)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            eigen_reweight(np.ones(2), sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]])), 0.1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), damp=st.floats(1e-3, 10.0))
    def test_reconstruction_property(self, seed, damp):
        H = random_psd(8, seed=seed)
        g = SeededRng(seed + 1).normal(8)
        recon = eigen_reweight_reconstruction(g, sym_eig(H), damp)
        expected = damp * np.linalg.solve(H + damp * np.eye(8), g)
        assert np.abs(recon - expected).max() <= 1e-8
