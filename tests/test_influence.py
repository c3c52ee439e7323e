"""Tests for similarity matrices and eigen reweighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lissakit import cli
from lissakit.core import SeededRng, SymEig, sym_eig
from _reference import eigen_reweight_reconstruction
from lissakit.influence import eigen_reweight, similarity_matrix
from lissakit.lissa import exact_ihvp


def random_psd(n, seed, spread=1.0):
    rng = SeededRng(seed)
    A = rng.normal(n * n).reshape(n, n)
    return A @ A.T * spread / n


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def whitened(G, H, damp):
    """similarity_matrix of G under the damped solve of H."""
    return similarity_matrix(G, exact_ihvp(H, damp, G.T))


class TestGradientSimilarity:
    def test_orthogonal_vectors(self):
        sim = similarity_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert sim == pytest.approx(np.eye(2))

    def test_known_cosine(self):
        sim = similarity_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(1 / np.sqrt(2))

    def test_matches_pairwise_cosine(self):
        G = SeededRng(11).normal(5 * 8).reshape(5, 8)
        sim = similarity_matrix(G)
        for i in range(5):
            for j in range(5):
                assert sim[i, j] == pytest.approx(cosine(G[i], G[j]), abs=1e-12)

    def test_rescaling_invariance(self):
        G = SeededRng(12).normal(4 * 6).reshape(4, 6)
        scaled = G * np.array([0.01, 5.0, 300.0, 1.0])[:, None]
        np.testing.assert_allclose(similarity_matrix(G), similarity_matrix(scaled), atol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            similarity_matrix(np.array([np.ones(3), np.zeros(3)]))

    def test_single_gradient_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix(np.ones((1, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([np.ones(3), np.ones(4)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        G = np.ones((3, 4))
        G[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite gradient"):
            similarity_matrix(G)

    def test_non_finite_result_rejected(self):
        # finite rows whose inner products overflow give inf / inf = nan
        G = np.array([[1e200, 0.0], [1e200, 1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite similarity"):
                similarity_matrix(G)


class TestInfluenceSimilarity:
    def test_identity_solver_reduces_to_cosine(self):
        G = SeededRng(4).normal(4 * 7).reshape(4, 7)
        np.testing.assert_allclose(similarity_matrix(G), similarity_matrix(G, G.T), atol=1e-12)

    def test_symmetric_and_unit_diagonal(self):
        H = random_psd(10, seed=21)
        G = SeededRng(5).normal(6 * 10).reshape(6, 10)
        sim = whitened(G, H, 0.3)
        assert np.array_equal(sim, sim.T)
        assert (np.diag(sim) == 1.0).all()

    def test_matches_whitened_cosine(self):
        # similarity under (H + lambda)^-1 is cosine of (H + lambda)^-1/2 g
        H = random_psd(9, seed=22)
        damp = 0.5
        eigenvalues, vectors = np.linalg.eigh(H)
        whiten = vectors @ np.diag((eigenvalues + damp) ** -0.5) @ vectors.T
        G = SeededRng(6).normal(5 * 9).reshape(5, 9)
        sim = whitened(G, H, damp)
        for i in range(5):
            for j in range(5):
                expected = cosine(whiten @ G[i], whiten @ G[j])
                assert abs(sim[i, j] - expected) <= 1e-8

    def test_rescaling_invariance(self):
        H = random_psd(8, seed=23)
        G = SeededRng(7).normal(4 * 8).reshape(4, 8)
        scaled = G * np.array([10.0, 0.5, 2.0, 7.0])[:, None]
        np.testing.assert_allclose(whitened(G, H, 0.2), whitened(scaled, H, 0.2), atol=1e-10)

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
        G = np.array(grads)

        infl = whitened(G, H, damp)
        grad = similarity_matrix(G)

        off = ~np.eye(len(grads), dtype=bool)
        pair = infl[0, -1]
        assert pair > np.median(infl[off])
        assert pair > 0.99
        # unrelated pairs decorrelate after whitening but not before
        assert np.median(infl[off]) < np.median(grad[off])

    def test_solver_called_once_on_the_whole_block(self, tmp_path, monkeypatch):
        # the similarity command solves its items as one (n_params, n_items)
        # block, in the eigenbasis that it holds for the reweighting: no LU
        calls = []
        real = cli.exact_ihvp

        def exact_ihvp_spy(H, damp, g, eig=None):
            calls.append((np.shape(g), type(eig)))
            return real(H, damp, g, eig)

        def refuse(*args):
            raise AssertionError("an LU solve in similarity")

        monkeypatch.setattr(cli, "exact_ihvp", exact_ihvp_spy)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        cfg = tmp_path / "similarity.cfg"
        cfg.write_text("model_kind = mlp\nlayer_sizes = 4, 5, 3\nn_examples = 30\nn_items = 6\n")
        assert cli.main(["similarity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == [((43, 6), SymEig)]

    def test_non_positive_self_score_rejected(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="self-similarity"):
            similarity_matrix(G, -G.T)

    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_nan_solved_block_rejected(self, where):
        G = SeededRng(10).normal(3 * 4).reshape(3, 4)
        solved = G.T.copy()
        solved[where] = np.nan
        with pytest.raises(ValueError, match="non-finite similarity"):
            similarity_matrix(G, solved)


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
