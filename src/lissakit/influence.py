"""Gradient/influence similarity and eigenbasis reweighting.

Similarity matrices compare training items either by raw gradient direction
or after damped inverse-curvature whitening; the whitened version suppresses
directions whose curvature dominates the damping, which is also what the
eigenbasis reweighting makes explicit coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from .core import SymEig


def similarity_matrix(G, solved=None) -> np.ndarray:
    """Pairwise similarity between the rows of the (k, n) gradient block G.

    Without ``solved`` this is plain cosine similarity.  With it, the (n, k)
    block of the rows' damped inverse-curvature solves, it is whitened: pair
    scores G @ solved are symmetrized, and everything is normalized by the
    self-scores, so output is invariant to positive rescaling of any row.
    Returns the symmetric, unit-diagonal (k, k) array.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] < 2:
        raise ValueError("need a (k, n) block of at least two gradients")
    if not np.isfinite(G).all():
        raise ValueError("non-finite gradient")
    if np.any(np.sum(G * G, axis=1) == 0.0):
        raise ValueError("zero-norm gradient")

    if solved is None:
        inner = G @ G.T
    else:
        raw = G @ solved
        inner = 0.5 * (raw + raw.T)

    self_scores = np.diag(inner)
    if np.any(self_scores <= 0):
        raise ValueError("non-positive self-similarity; solver output unusable")
    scale = np.sqrt(self_scores)
    values = inner / np.outer(scale, scale)
    np.fill_diagonal(values, 1.0)
    values = 0.5 * (values + values.T)
    if not np.isfinite(values).all():
        raise ValueError("non-finite similarity")
    return values


def eigen_reweight(g, eig: SymEig, lambda_damp: float) -> list[tuple[float, float, float]]:
    """Per-eigendirection view of the damped solve.

    Returns (eigenvalue, <g, v_j>, lambda/(eigenvalue + lambda)) triples in
    descending eigenvalue order from ``eig`` = ``core.sym_eig(H)``.  The weight
    is the factor by which damping shrinks that coordinate of g: near zero for
    eigenvalues far above the damping, approaching one for flat directions.
    """
    if lambda_damp < 0:
        raise ValueError("damping must be non-negative")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != eig.vectors.shape[:1]:
        raise ValueError("gradient does not match the matrix")
    denom = eig.values + lambda_damp
    weights = np.divide(lambda_damp, denom, out=np.ones_like(denom), where=denom > 0)
    return list(zip(eig.values.tolist(), (eig.vectors.T @ g).tolist(), weights.tolist()))
