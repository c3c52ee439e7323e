"""Deterministic randomness, dense linear algebra, and summary statistics.

Dense vectors and matrices are plain float64 numpy arrays throughout the
package.  All randomness flows through :class:`SeededRng`, a counter-based
generator with fixed, documented constants, so that identical seeds produce
bit-identical streams on every platform and any draw can be replayed from
``(seed, position)`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood; public-domain reference code).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_INV_2_53 = 2.0 ** -53

# Words a single-seed SeededRng computes ahead for its small draws.
_BLOCK_WORDS = 256

# The same constants as uint64 scalars, built once rather than on every draw.
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_U1, _U11, _U27, _U30, _U31, _U63 = (np.uint64(k) for k in (1, 11, 27, 30, 31, 63))
# rademacher's value of a word's top bit
_SIGNS = np.array([-1.0, 1.0])


def _signs(words: np.ndarray) -> np.ndarray:
    """The value in _SIGNS of each word's top bit, as a fresh array."""
    # the 0/1 top bits index the table as int64, which NumPy takes uncast
    return _SIGNS[(words >> _U63).view(np.int64)]


def _mix64_scalar(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching the scalar path; after the
    # first operation every step works in place on the one fresh array
    z = z ^ (z >> _U30)
    z *= _MIX_A_U64
    z ^= z >> _U27
    z *= _MIX_B_U64
    z ^= z >> _U31
    return z


def derive_seed(seed: int, *keys: int) -> int:
    """Derive an independent substream seed from integer keys.

    Folds each key into the seed with the SplitMix64 finalizer:
    ``h <- mix64(h ^ mix64(key + GAMMA))``.  Deterministic, order-sensitive,
    and collision-resistant enough for experiment bookkeeping.
    """
    if not keys:
        raise ValueError("derive_seed requires at least one key")
    h = seed & _MASK64
    for k in keys:
        h = _mix64_scalar(h ^ _mix64_scalar((int(k) + _GAMMA) & _MASK64))
    return h


def derive_seeds(seed: int, *keys: int, count: int) -> list[int]:
    """``[derive_seed(seed, *keys, i) for i in range(count)]``, with the last
    key's fold done for every i in one uint64 array pass."""
    h = np.uint64(derive_seed(seed, *keys))
    last = np.arange(count, dtype=np.uint64) + _GAMMA_U64
    return _mix64_array(h ^ _mix64_array(last)).tolist()


class SeededRng:
    """Counter-based SplitMix64 stream.

    Output ``i`` (1-indexed) is ``mix64(seed + i * GAMMA)``; the only state
    is the number of 64-bit words consumed, so streams can be split,
    replayed, and compared across platforms.  Normal deviates use the
    Box-Muller transform (cosine branch), consuming exactly two words each.

    ``seed`` is one seed or a sequence of R seeds.  With R seeds the stream
    is R streams in lockstep: every draw returns an (R, n) block whose row r
    is word for word the draw of ``SeededRng(seeds[r])`` at the same
    position, and all rows share the position.

    A single-seed stream serves its small draws from a block of the same
    counter stream computed ahead: ``_BLOCK_WORDS`` words, starting at the
    position of the draw that filled it.  A draw that fits in the block
    returns a read-only slice of it; any other draw, and every draw of R
    seeds (whose one caller never reads a block twice), computes exactly its
    own words.
    ``rademacher`` reads the block's +-1 values, computed on its first draw
    from that block.  Word i is the same either way, so words, positions and
    every output are those of the blockless stream.  ``position`` stays the
    number of words consumed, and the block is read only while ``position``
    lies in the range it covers, so reassigning ``position`` replays or skips
    as before.
    """

    def __init__(self, seed):
        # a Python int, the common seed, skips np.ndim
        if isinstance(seed, int) or np.ndim(seed) == 0:
            self.seed = int(seed) & _MASK64
            self._base = np.uint64(self.seed)
            self._width = _BLOCK_WORDS
        else:
            self.seed = np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)
            self._base = self.seed[:, None]
            self._width = 0
        self.position = 0
        self._block = None  # words _block_start+1 ..., read-only
        self._block_start = 0
        self._block_signs = None  # rademacher's values of _block, once read

    def __repr__(self) -> str:
        if isinstance(self.seed, int):
            return f"SeededRng(seed={self.seed:#018x}, position={self.position})"
        return f"SeededRng(seeds={self.seed.size}, position={self.position})"

    def raw_uint64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array: shape (n,) for one
        seed, (R, n) for R seeds."""
        if n < 0:
            raise ValueError("n must be non-negative")
        start = self.position
        offset = start - self._block_start
        if self._block is None or offset < 0 or offset + n > self._width:
            if n >= self._width:
                self.position = start + n
                return self._words(start, n)
            self._block = self._words(start, self._width)
            self._block.flags.writeable = False
            self._block_start = start
            self._block_signs = None
            offset = 0
        self.position = start + n
        return self._block[offset : offset + n]

    def _words(self, start: int, n: int) -> np.ndarray:
        """Words start+1 ... start+n of every row."""
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        return _mix64_array(self._base + idx * _GAMMA_U64)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1) with 53-bit resolution."""
        bits = self.raw_uint64(n) >> _U11
        return bits.astype(np.float64) * _INV_2_53

    def normal(self, n: int) -> np.ndarray:
        """``n`` i.i.d. standard normals via Box-Muller."""
        u1 = ((self.raw_uint64(n) >> _U11) + _U1).astype(np.float64) * _INV_2_53
        u2 = self.uniform(n)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` uniform integers in [0, bound) as int64 (floor of u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > (1 << 53):
            raise ValueError("bound exceeds 53-bit sampling resolution")
        # uniform(n) * bound: the same two products in the same order, in
        # place on one float array.  No index reaches bound: u <= 1 - 2^-53,
        # and (1 - 2^-53) bound falls short of bound by bound 2^-53, which for
        # any bound <= 2^53 is more than half the float spacing below bound
        # (all of it when bound is a power of two), so it rounds below bound.
        u = np.multiply(self.raw_uint64(n) >> _U11, _INV_2_53)
        u *= bound
        return u.astype(np.int64)

    def rademacher(self, n: int) -> np.ndarray:
        """``n`` independent +-1 values as float64.  A draw that raw_uint64
        serves from the block reads a read-only slice of the block's signs,
        computed once per block."""
        words = self.raw_uint64(n)
        if self._block is None or words.base is not self._block:
            return _signs(words)  # a draw too long for a block: its own words
        if self._block_signs is None:
            self._block_signs = _signs(self._block)
            self._block_signs.flags.writeable = False
        offset = self.position - n - self._block_start
        return self._block_signs[offset : offset + n]

    def substream(self, *keys: int) -> "SeededRng":
        """Fresh stream derived from this stream's seed and integer keys."""
        return SeededRng(derive_seed(self.seed, *keys))


# Rows per block of check_symmetric's upper-triangle sweep, and its tolerance
# on max|m - m^T| relative to max|m|.
_SYMMETRY_BLOCK = 128
_SYMMETRY_RTOL = 1e-12


def check_symmetric(m: np.ndarray) -> None:
    """Raise if ``m`` is not square, has a non-finite entry, or is not
    symmetric within ``_SYMMETRY_RTOL * max|m|``.

    Sweeps the upper triangle in blocks of rows, comparing ``m[i:i+b, i:]``
    with ``m[i:, i:i+b].T``; the two slabs cover every entry, so max|m| and
    max|m - m^T| come out of one pass without an n x n temporary.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scales, gaps = [0.0], [0.0]
    for i in range(0, m.shape[0], _SYMMETRY_BLOCK):
        upper = m[i : i + _SYMMETRY_BLOCK, i:]
        lower = m[i:, i : i + _SYMMETRY_BLOCK].T
        scales += [np.max(np.abs(upper)), np.max(np.abs(lower))]
        with np.errstate(invalid="ignore"):  # inf - inf; max|m| rejects it below
            gaps.append(np.max(np.abs(upper - lower)))
    # np.max, unlike the builtin, propagates a NaN: max|m| is finite only
    # when every entry is
    scale = float(np.max(scales))
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    tol = _SYMMETRY_RTOL * max(scale, np.finfo(np.float64).tiny)
    if float(np.max(gaps)) > tol:
        raise ValueError("matrix is not symmetric within tolerance")


# top_eigenvalue's Lanczos iteration: the seed of its start vector, its first
# checkpoint (each later one is 1.5 times the last), and its stopping rule
# beta_k |s_k| <= _LANCZOS_RTOL |theta| on the top Ritz pair.
_LANCZOS_SEED = 0x6C616E637A6F73
_LANCZOS_FIRST = 16
_LANCZOS_RTOL = 1e-14


def top_eigenvalue(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, without its eigenvectors.

    One symmetry check, then Lanczos with full reorthogonalization (two
    Gram-Schmidt passes per step) from a start vector drawn at a fixed seed,
    so the value is a function of the matrix alone.  The top Ritz value of
    the tridiagonal is read only at checkpoints k = 16, 24, 36, ..., at an
    invariant subspace (beta = 0) and at k = n; it is returned once the top
    Ritz pair's residual beta_k |s_k| is at most _LANCZOS_RTOL |theta|, or at
    the subspace or k = n, where the Ritz values are the eigenvalues.  The
    basis grows as it fills, so a fast solve holds a few dozen vectors.
    """
    m = np.asarray(m, dtype=np.float64)
    check_symmetric(m)
    n = m.shape[0]
    if n == 0:
        raise ValueError("an empty matrix has no eigenvalue")
    q = SeededRng(_LANCZOS_SEED).normal(n)
    basis = np.empty((min(n, 2 * _LANCZOS_FIRST), n))
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    checkpoint = _LANCZOS_FIRST
    # a matrix near the float range can overflow a product; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            w = m @ basis[k - 1]
            past = basis[:k]
            coefficients = past @ w
            w -= coefficients @ past
            correction = past @ w
            w -= correction @ past
            alpha.append(coefficients[-1] + correction[-1])
            # ||w|| from w scaled to max |w| = 1, whose squares can neither
            # overflow nor underflow; beta = 0 only for w = 0
            top = float(np.max(np.abs(w)))
            b = top * float(np.linalg.norm(w / top)) if top > 0 else 0.0
            if not math.isfinite(b):
                raise ValueError("the Lanczos vectors overflow; the matrix is too large in norm")
            if k in (checkpoint, n) or b == 0.0:
                values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
                theta = float(values[-1])
                if k == n or b == 0.0 or b * abs(vectors[-1, -1]) <= _LANCZOS_RTOL * abs(theta):
                    return theta
                checkpoint = checkpoint * 3 // 2
            beta.append(b)
            if k == basis.shape[0]:
                basis = np.concatenate([basis, np.empty((min(n, 2 * k) - k, n))])
            basis[k] = w / b


class SymEig(NamedTuple):
    """Eigenvalues of a checked symmetric matrix sorted descending and the
    matching orthonormal eigenvector columns: matrix = V diag(values) V^T.
    Each column's largest-magnitude entry (the first, on a tie) is positive."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(m: np.ndarray) -> SymEig:
    """Eigendecomposition of a symmetric matrix: one symmetry check, one eigh.

    An eigenvector's sign is arbitrary, and eigh may flip it when the matrix
    moves in its last bits; fixing it by the column's largest-magnitude entry
    makes the columns, and any coefficient read in them, follow the matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    check_symmetric(m)
    w, v = np.linalg.eigh(m)  # ascending, so reversing the columns sorts them
    vectors = np.ascontiguousarray(v[:, ::-1])
    # the largest magnitude is the column's max or minus its min; the two
    # reductions run along rows of the C-ordered array, unlike an argmax
    # (initial=0 changes no decision and lets a 0 x 0 matrix through)
    high, low = vectors.max(axis=0, initial=0.0), -vectors.min(axis=0, initial=0.0)
    flip = low > high
    ties = np.flatnonzero(low == high)
    if ties.size:
        tied = vectors[:, ties]
        flip[ties] = tied[np.argmax(np.abs(tied), axis=0), np.arange(ties.size)] < 0
    vectors *= np.where(flip, -1.0, 1.0)
    return SymEig(np.ascontiguousarray(w[::-1]), vectors)


def pearson_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-length samples.

    Raises on fewer than two points, mismatched lengths, non-finite values,
    or zero variance in either input.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("inputs must have equal length")
    if a.size < 2:
        raise ValueError("need at least two points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")
    # the correlation is scale-free: a sample whose squares could overflow is
    # first divided by its largest magnitude
    a, b = (x / np.abs(x).max() if np.abs(x).max() > 1e100 else x for x in (a, b))
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(np.dot(da, da)))
    nb = float(np.sqrt(np.dot(db, db)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero variance input")
    return float(np.clip(np.dot(da, db) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class MeanSe:
    """Sample mean with its standard error over ``n`` draws."""

    mean: float
    se: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not math.isnan(self.se) and self.se < 0:
            raise ValueError("se must be non-negative")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MeanSe":
        x = np.asarray(samples, dtype=np.float64).ravel()
        if x.size < 2:
            raise ValueError("need at least two samples for a standard error")
        return cls(mean=float(x.mean()), se=float(x.std(ddof=1) / math.sqrt(x.size)), n=int(x.size))
