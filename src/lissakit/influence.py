"""Influence scores, gradient/influence similarity, and eigenbasis reweighting.

An influence score is the inner product between a solved inverse-curvature
vector and a measurement gradient.  Similarity matrices compare training
items either by raw gradient direction or after damped inverse-curvature
whitening; the whitened version suppresses directions whose curvature
dominates the damping, which is also what the eigenbasis reweighting makes
explicit coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SymEig, check_symmetric
from .models import _vector


def influence_score(u_train, test_grad) -> float:
    """Inner product of a solved vector with a measurement gradient.

    With u_train solving (H + lambda) u = -grad_loss(train), the score is the
    damped influence of upweighting the training point on the measurement.
    """
    u = _vector(u_train)
    g = _vector(test_grad)
    if u.shape != g.shape:
        raise ValueError("vectors differ in length")
    return float(u @ g)


@dataclass
class SimilarityMatrix:
    """Symmetric unit-diagonal similarity with item labels."""

    values: np.ndarray
    labels: list
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.values.shape[0]
        if self.values.shape != (n, n) or len(self.labels) != n:
            raise ValueError("matrix and labels disagree")
        if self.kind not in ("gradient", "influence"):
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        check_symmetric(self.values, rtol=1e-9)
        if np.abs(np.diag(self.values) - 1.0).max() > 1e-9:
            raise ValueError("diagonal must be 1")


def similarity_matrix(grads, ihvp_solver=None, labels=None) -> SimilarityMatrix:
    """Pairwise similarity between gradient vectors.

    Without a solver this is plain cosine similarity.  With one it whitens
    through a damped inverse-curvature solve: ``ihvp_solver`` gets the
    (n_params, n_items) block of gradients and returns the block of solved
    columns in one call, pair scores are symmetrized, and everything is
    normalized by the self-scores, so output is invariant to positive
    rescaling of any input gradient.
    """
    vectors = [_vector(g) for g in grads]
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least two gradients")
    if any(v.shape != vectors[0].shape for v in vectors):
        raise ValueError("gradients differ in length")
    if not all(np.isfinite(v).all() for v in vectors):
        raise ValueError("non-finite gradient")
    if any(float(v @ v) == 0.0 for v in vectors):
        raise ValueError("zero-norm gradient")
    if labels is None:
        labels = list(range(n))

    G = np.vstack(vectors)
    if ihvp_solver is None:
        inner = G @ G.T
    else:
        raw = G @ np.asarray(ihvp_solver(G.T), dtype=np.float64)
        inner = 0.5 * (raw + raw.T)

    self_scores = np.diag(inner)
    if np.any(self_scores <= 0):
        raise ValueError("non-positive self-similarity; solver output unusable")
    scale = np.sqrt(self_scores)
    values = inner / np.outer(scale, scale)
    np.fill_diagonal(values, 1.0)
    values = 0.5 * (values + values.T)
    kind = "gradient" if ihvp_solver is None else "influence"
    return SimilarityMatrix(values=values, labels=list(labels), kind=kind)


def eigen_reweight(g, eig: SymEig, lambda_damp: float) -> list[tuple[float, float, float]]:
    """Per-eigendirection view of the damped solve.

    Returns (eigenvalue, <g, v_j>, lambda/(eigenvalue + lambda)) triples in
    descending eigenvalue order from ``eig`` = ``core.sym_eig(H)``.  The weight
    is the factor by which damping shrinks that coordinate of g: near zero for
    eigenvalues far above the damping, approaching one for flat directions.
    """
    if lambda_damp < 0:
        raise ValueError("damping must be non-negative")
    g = _vector(g)
    if g.size != eig.vectors.shape[0]:
        raise ValueError("gradient does not match the matrix")
    denom = eig.values + lambda_damp
    weights = np.divide(lambda_damp, denom, out=np.ones_like(denom), where=denom > 0)
    return list(zip(eig.values.tolist(), (eig.vectors.T @ g).tolist(), weights.tolist()))


def eigen_reweight_reconstruction(g, eig: SymEig, lambda_damp: float) -> np.ndarray:
    """Assemble sum_j weight_j <g, v_j> v_j, the damped projection of g.

    Equals lambda (H + lambda)^-1 g, the part of the gradient that survives
    the solve after the high-curvature directions are suppressed.
    """
    _, coefficients, weights = np.array(eigen_reweight(g, eig, lambda_damp)).T
    return eig.vectors @ (coefficients * weights)
