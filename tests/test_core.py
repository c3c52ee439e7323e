import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import DenseOperator
from lissakit.core import (
    _BLOCK_WORDS,
    _SIGNS,
    MeanSe,
    SeededRng,
    derive_seed,
    derive_seeds,
    check_symmetric,
    pearson_corr,
    sym_eig,
    top_eigenvalue,
)
from lissakit.gnh import gnh_matrix_exact
from lissakit.models import ModelSpec, init_params, make_blobs

MASK = (1 << 64) - 1


def rng_at(seed, position):
    """A stream resumed at ``position``: a new stream, its position assigned."""
    rng = SeededRng(seed)
    rng.position = position
    return rng


def splitmix64_reference(seed, n):
    """Scalar reference implementation, independent of the vectorized path."""
    out = []
    x = seed & MASK
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestSeededRng:
    def test_known_answer_seed_zero(self):
        # First outputs of SplitMix64 seeded with 0, per the public-domain
        # reference implementation.
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        got = SeededRng(0).raw_uint64(3)
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 123456789])
    def test_matches_scalar_reference(self, seed):
        got = SeededRng(seed).raw_uint64(64)
        assert [int(v) for v in got] == splitmix64_reference(seed, 64)

    def test_deterministic_and_seed_sensitive(self):
        a = SeededRng(7).uniform(100)
        b = SeededRng(7).uniform(100)
        c = SeededRng(8).uniform(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_position_resume(self):
        rng = SeededRng(11)
        whole = rng.raw_uint64(10)
        rng2 = SeededRng(11)
        first = rng2.raw_uint64(4)
        rest = rng2.raw_uint64(6)
        assert np.array_equal(whole, np.concatenate([first, rest]))
        assert rng2.position == 10

    def test_uniform_range(self):
        u = SeededRng(3).uniform(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normal_moments(self):
        z = SeededRng(5).normal(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        # Box-Muller consumes two words per deviate.
        rng = SeededRng(5)
        rng.normal(10)
        assert rng.position == 20

    def test_normal_scalar_oracle(self):
        # Box-Muller recomputed by hand from the raw word stream.
        words = splitmix64_reference(99, 6)
        u1 = [((w >> 11) + 1) * 2.0**-53 for w in words[:3]]
        u2 = [(w >> 11) * 2.0**-53 for w in words[3:]]
        expected = [
            math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
            for a, b in zip(u1, u2)
        ]
        got = SeededRng(99).normal(3)
        assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_integers_bounds_and_determinism(self):
        idx = SeededRng(2).integers(5000, 7)
        assert idx.min() >= 0 and idx.max() <= 6
        counts = np.bincount(idx, minlength=7)
        # crude uniformity: each bin within 5 sigma of 5000/7
        p = 1.0 / 7
        sigma = math.sqrt(5000 * p * (1 - p))
        assert np.all(np.abs(counts - 5000 * p) < 5 * sigma)
        assert np.array_equal(idx, SeededRng(2).integers(5000, 7))

    def test_rademacher(self):
        r = SeededRng(4).rademacher(4000)
        assert set(np.unique(r)) == {-1.0, 1.0}
        assert abs(r.mean()) < 0.06

    @pytest.mark.parametrize("seed", [4, [0, 3, 2**64 - 1, 3]])
    def test_rademacher_equals_the_arithmetic_sign_map(self, seed):
        # the sign table gives the values of (bits >> 63) * 2 - 1, at draws
        # below, at and above the 256-word block and across its edge
        signs, words = SeededRng(seed), SeededRng(seed)
        for n in (255, 256, 257, 1, 100, 200, 0, 3):
            got = signs.rademacher(n)
            want = (words.raw_uint64(n) >> np.uint64(63)).astype(np.float64) * 2.0 - 1.0
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert signs.position == words.position == 1072

    @pytest.mark.parametrize("position", [0, 7, 2**40])
    def test_seed_array_draws_each_stream_in_lockstep(self, position):
        seeds = [0, 3, 2**64 - 1, derive_seed(9, 1), 3]
        block = rng_at(seeds, position)
        singles = [rng_at(s, position) for s in seeds]
        draws = [("raw_uint64", (6,)), ("uniform", (5,)), ("normal", (4,)),
                 ("integers", (9, 13)), ("rademacher", (10,)), ("raw_uint64", (0,))]
        for name, args in draws:
            got = getattr(block, name)(*args)
            want = [getattr(r, name)(*args) for r in singles]
            assert got.shape == (len(seeds), args[0])
            for row, w in zip(got, want):
                assert row.dtype == w.dtype and row.tobytes() == w.tobytes(), name
        assert block.position == singles[0].position

    def test_substreams_differ(self):
        rng = SeededRng(21)
        a = rng.substream(0).uniform(50)
        b = rng.substream(1).uniform(50)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, SeededRng(21).substream(0).uniform(50))

    def test_derive_seed_requires_keys(self):
        with pytest.raises(ValueError):
            derive_seed(1)

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


@st.composite
def draw_plans(draw):
    """A stream (one seed, or R <= 4 seeds) and a sequence of draw sizes: empty,
    small, near the block edge and at or above the block width (R seeds have
    no block, and draw these sizes directly)."""
    n_seeds = draw(st.integers(0, 4))
    seeds = draw(st.lists(st.integers(0, MASK), min_size=max(1, n_seeds), max_size=max(1, n_seeds)))
    width = _BLOCK_WORDS
    size = st.one_of(
        st.just(0),
        st.integers(1, 9),
        st.integers(max(0, width - 3), width + 1),
        st.integers(width, 2 * width + 5),
    )
    sizes = draw(st.lists(size, max_size=12))
    start = draw(st.sampled_from([0, 1, width - 1, width, 10 * width + 7]))
    return (seeds[0] if n_seeds == 0 else seeds), start, sizes


class TestSeededRngBlock:
    """A single seed's small draws come from a block of the same counter
    stream computed ahead, R seeds' draws are computed directly; every draw
    must be exactly the words of the blockless stream."""

    @staticmethod
    def direct(seed, start, n):
        # words start+1 ... start+n from a draw too long for any block
        return rng_at(seed, start).raw_uint64(n + _BLOCK_WORDS)[..., :n]

    @settings(max_examples=150, deadline=None)
    @given(draw_plans())
    def test_draws_concatenate_to_one_fresh_draw(self, plan):
        seed, start, sizes = plan
        rng = rng_at(seed, start)
        parts = []
        for n in sizes:
            parts.append(rng.raw_uint64(n))
            assert parts[-1].shape[-1] == n and parts[-1].dtype == np.uint64
        total = sum(sizes)
        assert rng.position == start + total
        want = self.direct(seed, start, total)
        got = np.concatenate(parts, axis=-1) if parts else want[..., :0]
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [17, [17, 3, 2**64 - 1]])
    def test_resume_mid_block_and_reassigned_position(self, seed):
        width = _BLOCK_WORDS
        whole = self.direct(seed, 0, 4 * width)
        for p in (1, 5, width - 2, width, width + 3, 3 * width - 1):
            assert np.array_equal(rng_at(seed, p).raw_uint64(4), whole[..., p : p + 4])
        rng = SeededRng(seed)
        rng.raw_uint64(6)
        # back, forward inside the block, across its edge and past it
        for p, n in ((2, 3), (width // 2, 5), (0, 1), (width - 2, 5), (width + 1, 2), (3, 4),
                     (3 * width, width)):
            rng.position = p
            assert np.array_equal(rng.raw_uint64(n), whole[..., p : p + n]), (p, n)
            assert rng.position == p + n

    @pytest.mark.parametrize("seed", [8, [8, 9]])
    def test_writing_a_draw_leaves_later_draws_unchanged(self, seed):
        rng = SeededRng(seed)
        whole = self.direct(seed, 0, _BLOCK_WORDS + 60)
        for n in (4, 4, 9):
            got = rng.raw_uint64(n)
            try:
                got[...] = 0
            except ValueError:
                pass
        rng.position = 0
        assert np.array_equal(rng.raw_uint64(40), whole[..., :40])
        got = rng.raw_uint64(_BLOCK_WORDS)  # too long for a block
        got[...] = 0
        assert np.array_equal(rng.raw_uint64(4), whole[..., _BLOCK_WORDS + 40 : _BLOCK_WORDS + 44])
        assert np.array_equal(SeededRng(seed).uniform(40), (whole[..., :40] >> np.uint64(11)) * 2.0**-53)


def fresh_words(seed, start, n):
    """Words start+1 ... start+n of a new stream, from a draw too long for
    any block."""
    return rng_at(seed, start).raw_uint64(n + _BLOCK_WORDS)[..., :n]


class TestSeededRngFastPaths:
    """rademacher reads a sign table of the computed block, integers works in
    place, a Python int seed skips the array checks, and derive_seeds folds
    its last key for every index at once: each must give the bits of the
    plain form."""

    @pytest.mark.parametrize("seed", [4, [4, 9, 2**64 - 1]])
    def test_rademacher_equals_the_signs_of_a_fresh_draw(self, seed):
        width = _BLOCK_WORDS
        rng = SeededRng(seed)
        # (position to move to or None, draw, n): inside a block, across its
        # end, at and above its width, after raw draws of the same block, and
        # after the position moves back and forward
        plan = [
            (None, "signs", 3), (None, "signs", 10), (None, "raw", 4), (None, "signs", width - 20),
            (None, "signs", 6), (None, "signs", width), (None, "signs", width + 7), (2, "signs", 4),
            (None, "raw", 1), (None, "signs", 9), (width - 2, "signs", 5), (7, "signs", 1),
            (3 * width, "raw", 2), (None, "signs", 9), (1, "signs", 0), (5 * width + 3, "signs", 2),
        ]
        for position, kind, n in plan:
            if position is not None:
                rng.position = position
            start = rng.position
            words = fresh_words(seed, start, n)
            if kind == "raw":
                assert np.array_equal(rng.raw_uint64(n), words)
                continue
            got = rng.rademacher(n)
            want = _SIGNS[(words >> np.uint64(63)).astype(np.int64)]
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (position, n)
            assert rng.position == start + n

    @pytest.mark.parametrize("seed", [4, [4, 9]])
    def test_rademacher_arrays_are_read_only_like_raw_words(self, seed):
        signs, words = SeededRng(seed), SeededRng(seed)
        for n in (3, 10, 1):
            got, raw = signs.rademacher(n), words.raw_uint64(n)
            # one seed's small draws are read-only slices of its block; every
            # draw of R seeds is its own fresh array
            assert got.flags.writeable == raw.flags.writeable == (np.ndim(seed) > 0)
            if got.flags.writeable:
                got[...] = 0.0
            else:
                with pytest.raises(ValueError):
                    got[...] = 0.0
        # a draw too long for a block is its own fresh array, as raw_uint64's is
        got, raw = signs.rademacher(2 * _BLOCK_WORDS), words.raw_uint64(2 * _BLOCK_WORDS)
        assert got.flags.writeable and raw.flags.writeable
        got[...] = 0.0
        assert np.array_equal(signs.rademacher(5), SeededRng(seed).rademacher(2 * _BLOCK_WORDS + 19)[..., -5:])

    @pytest.mark.parametrize("bound", [1, 2, 200, 2**31, 2**53])
    @pytest.mark.parametrize("seed", [6, [6, 2**64 - 1, 0]])
    def test_integers_equal_the_floor_of_uniforms_times_bound(self, seed, bound):
        rng, uniforms = SeededRng(seed), SeededRng(seed)
        for n in (0, 1, 16, 300, 7, 2 * _BLOCK_WORDS):
            got = rng.integers(n, bound)
            want = np.minimum((uniforms.uniform(n) * bound).astype(np.int64), bound - 1)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize(
        "bound", [1, 2, 3] + [2**k + d for k in (2, 10, 31, 52) for d in (-1, 0, 1)] + [2**53 - 1, 2**53]
    )
    def test_the_all_ones_word_stays_below_the_bound(self, bound, monkeypatch):
        # the largest uniform, 1 - 2^-53, times any bound up to 2^53 rounds
        # below the bound, so integers needs no clamp to bound - 1
        rng = SeededRng(0)
        monkeypatch.setattr(rng, "raw_uint64", lambda n: np.full(n, 2**64 - 1, dtype=np.uint64))
        assert rng.integers(3, bound).tolist() == [bound - 1] * 3

    @pytest.mark.parametrize("k", [0, 5, 2**63 + 11, 2**64 - 1, -1, -5, -(2**63)])
    def test_seed_types_give_one_stream(self, k):
        # a negative seed wraps mod 2**64, as the same np.int64 and the
        # np.uint64 of its wrapped value do
        wrapped = k % 2**64
        want = SeededRng(wrapped).raw_uint64(300)
        seeds = [k, np.uint64(wrapped)] + ([np.int64(k)] if -(2**63) <= k < 2**63 else [])
        for seed in seeds:
            rng = SeededRng(seed)
            assert type(rng.seed) is int and rng.seed == wrapped, type(seed)
            assert rng.raw_uint64(300).tobytes() == want.tobytes(), type(seed)
            assert repr(rng) == repr(SeededRng(wrapped)).replace("position=0", "position=300")

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    def test_derive_seeds_equals_derive_seed_per_index(self, seed):
        got = derive_seeds(seed, 17, count=1000)
        assert got == [derive_seed(seed, 17, run) for run in range(1000)]
        assert all(type(s) is int for s in got)
        assert derive_seeds(seed, 2, 5, count=3) == [derive_seed(seed, 2, 5, i) for i in range(3)]
        assert derive_seeds(seed, 17, count=0) == []


class TestSymEig:
    def test_diagonal(self):
        eig = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(eig.values, [3.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(2))

    def test_identity(self):
        assert np.allclose(sym_eig(np.eye(5)).values, np.ones(5))

    def test_reconstruction_and_orthonormality(self):
        rng = SeededRng(17)
        a = rng.normal(64).reshape(8, 8)
        m = (a + a.T) / 2
        w, v = sym_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-8
        assert np.linalg.norm(v.T @ v - np.eye(8)) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))

    def test_empty_matrix(self):
        eig = sym_eig(np.zeros((0, 0)))
        assert eig.values.shape == (0,) and eig.vectors.shape == (0, 0)

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (9, 2), (130, 3)])
    def test_largest_magnitude_entry_of_each_vector_is_positive(self, n, seed):
        a = SeededRng(seed).normal(n * n).reshape(n, n)
        v = sym_eig(a + a.T).vectors
        top = np.argmax(np.abs(v), axis=0)
        assert np.all(v[top, np.arange(n)] > 0)

    def test_sign_tie_goes_to_the_first_entry(self):
        # both eigenvectors of [[0, 1], [1, 0]] have entries of equal magnitude
        v = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]])).vectors
        assert np.all(v[0] > 0)
        assert v[1, 1] < 0

    def test_vectors_do_not_depend_on_the_signs_eigh_returns(self, monkeypatch):
        # eigh may flip a column when the matrix moves in its last bits
        a = SeededRng(5).normal(40 * 40).reshape(40, 40)
        m = a @ a.T
        want = sym_eig(m).vectors
        eigh = np.linalg.eigh

        def flipped(x):
            w, v = eigh(x)
            return w, v * np.where(np.arange(v.shape[1]) % 3 == 0, -1.0, 1.0)

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        assert np.array_equal(sym_eig(m).vectors, want)

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(m)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_property_residual(self, n, seed):
        a = SeededRng(seed).normal(n * n).reshape(n, n)
        m = (a + a.T) / 2
        w, v = sym_eig(m)
        scale = max(1.0, np.abs(m).max())
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-9 * scale * n


class TestSymEigvals:
    """The spectrum of sym_eig, read on its own as lambda_max is."""

    @pytest.mark.parametrize("n, seed", [(1, 0), (8, 1), (40, 2), (130, 3)])
    def test_values_match_eigvalsh(self, n, seed):
        a = SeededRng(seed).normal(n * n).reshape(n, n)
        m = a @ a.T - 0.5 * (a + a.T)
        w = sym_eig(m).values
        reference = np.linalg.eigvalsh(m)[::-1]
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(w - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_rejects_asymmetric(self):
        # One entry off across the 128-row block boundary of check_symmetric:
        # no eigenvalues (and so no lambda_max) come from an asymmetric matrix.
        a = SeededRng(4).normal(130 * 130).reshape(130, 130)
        m = a @ a.T
        m[60, 129] += 1.0
        with pytest.raises(ValueError):
            sym_eig(m).values


def with_spectrum(values, seed=0):
    """The exactly symmetric matrix Q diag(values) Q^T for a random orthogonal Q."""
    n = len(values)
    q, _ = np.linalg.qr(SeededRng(seed).normal(n * n).reshape(n, n))
    m = (q * np.asarray(values, dtype=np.float64)) @ q.T
    return (m + m.T) / 2


def assert_top_eigenvalue(m):
    reference = np.linalg.eigvalsh(m)[-1]
    assert abs(top_eigenvalue(m) - reference) <= 1e-13 * abs(reference)


class TestTopEigenvalue:
    """lambda_max by Lanczos, against the full spectrum of eigvalsh."""

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("softmax-linear", (10, 4)), ModelSpec("mlp", (6, 12, 5), "tanh")],
        ids=["softmax-linear", "mlp"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_dense_gnh(self, spec, seed):
        theta = init_params(spec, SeededRng(seed), scale=0.5)
        data = make_blobs(SeededRng(seed + 10), 200, spec.input_dim, spec.n_classes)
        assert_top_eigenvalue(gnh_matrix_exact(spec, theta, data))

    @pytest.mark.parametrize(
        "values",
        [
            np.linspace(0.0, 1.0, 300),
            np.concatenate([np.linspace(0.0, 1.0 - 1e-12, 299), [1.0]]),
            np.concatenate([np.linspace(0.0, 1.0, 299), [20.0]]),
            np.concatenate([np.zeros(299), [3.5]]),
            np.zeros(300),
            np.ones(300),
        ],
        ids=["uniform", "top-gap-1e-12", "twenty-fold-top", "rank-one", "zero", "identity"],
    )
    def test_spectra(self, values):
        assert_top_eigenvalue(with_spectrum(values, seed=3))

    @pytest.mark.parametrize("m", [[[2.5]], [[-1.0]], [[2.0, 1.0], [1.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]])
    def test_one_and_two_by_two(self, m):
        assert_top_eigenvalue(np.array(m))

    @pytest.mark.parametrize("scale", [1e-300, 1e250, 1e300])
    def test_scale_near_the_float_range(self, scale):
        # ||H q||^2 underflows or overflows here unless the norm is taken scaled
        assert_top_eigenvalue(with_spectrum(np.linspace(0.0, 1.0, 200), seed=1) * scale)

    def test_is_a_function_of_the_matrix(self):
        m = with_spectrum(np.linspace(0.0, 1.0, 120), seed=4)
        assert top_eigenvalue(m) == top_eigenvalue(m.copy())

    def test_reads_the_tridiagonal_only_at_checkpoints(self, monkeypatch):
        # eigh on the k x k tridiagonal at k = 16, 24, 36, 54, ... and at k = n
        sizes = []
        eigh = np.linalg.eigh

        def counted(t):
            sizes.append(t.shape[0])
            return eigh(t)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert_top_eigenvalue(with_spectrum(np.linspace(0.0, 1.0, 100), seed=5))
        assert sizes and set(sizes) <= {16, 24, 36, 54, 81, 100}

    def test_rejects_asymmetric(self):
        m = with_spectrum(np.linspace(0.0, 1.0, 130), seed=6)
        m[60, 129] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            top_eigenvalue(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            top_eigenvalue(m)

    def test_rejects_empty_and_non_square(self):
        for m in (np.zeros((0, 0)), np.ones((2, 3))):
            with pytest.raises(ValueError):
                top_eigenvalue(m)


def full_matrix_asymmetric(m, rtol=1e-12):
    """The decision check_symmetric made with a full n x n m - m.T."""
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    tol = rtol * max(scale, np.finfo(np.float64).tiny)
    return float(np.max(np.abs(m - m.T), initial=0.0)) > tol


def raises_asymmetric(m):
    try:
        check_symmetric(m)
    except ValueError:
        return True
    return False


class TestCheckSymmetric:
    @pytest.mark.parametrize(
        "n, entry",
        [
            (5, (0, 3)),  # first row
            (129, (0, 128)),  # first row, last column
            (129, (60, 128)),  # last column, across the 128-row block boundary
            (300, (127, 128)),  # the two sides of a block boundary
            (300, (128, 127)),
            (300, (250, 3)),  # below the diagonal, far from its mirror's block
            (300, (299, 298)),  # last row of a partial block
        ],
    )
    def test_same_decision_as_full_matrix_formula(self, n, entry):
        a = SeededRng(n).normal(n * n).reshape(n, n)
        m = (a + a.T) / 2
        tol = 1e-12 * np.max(np.abs(m))
        decisions = []
        for factor in (0.5, 2.0, 1e6):
            bumped = m.copy()
            bumped[entry] += factor * tol
            decisions.append(raises_asymmetric(bumped))
            assert decisions[-1] == full_matrix_asymmetric(bumped)
        assert decisions == [False, True, True]

    @pytest.mark.parametrize("n", [0, 1, 129])
    def test_symmetric_inputs_pass(self, n):
        a = SeededRng(n).normal(n * n).reshape(n, n)
        m = a + a.T
        assert not full_matrix_asymmetric(m)
        check_symmetric(m)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            check_symmetric(np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n, entry", [(3, (1, 2)), (3, (0, 0)), (130, (60, 129))])
    def test_rejects_non_finite(self, value, n, entry):
        # NaN compares False against any tolerance, so the check once let a
        # NaN matrix through to eigh; one non-finite entry or its mirror is enough
        m = np.eye(n)
        m[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(m)
        m[entry[::-1]] = value
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(m)


class TestPearson:
    def test_perfect_and_anti(self):
        x = np.array([1.0, 2.0, 3.0, 5.0])
        assert pearson_corr(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_corr(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # r((1,2,3),(1,2,4)) = 9 / sqrt(84), worked out from the definition.
        r = pearson_corr([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(9.0 / math.sqrt(84.0), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0], [2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1.7e307])
    def test_samples_near_the_float_range(self, scale):
        # their squares overflow; the samples of convergence at lambda_damp =
        # 1e-300 once warned of an overflow in a dot product
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])
        assert pearson_corr(scale * a, b) == pytest.approx(9.0 / math.sqrt(84.0), abs=1e-12)
        assert pearson_corr(-scale * a, scale * b) == pytest.approx(-9.0 / math.sqrt(84.0), abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_property_bounded(self, seed):
        rng = SeededRng(seed)
        a = rng.normal(20)
        b = rng.normal(20)
        assert -1.0 <= pearson_corr(a, b) <= 1.0


class TestMeanSe:
    def test_from_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        ms = MeanSe.from_samples(x)
        assert ms.mean == pytest.approx(2.5)
        assert ms.se == pytest.approx(np.std(x, ddof=1) / 2.0)
        assert ms.n == 4

    def test_needs_two(self):
        with pytest.raises(ValueError):
            MeanSe.from_samples([1.0])

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            MeanSe(mean=0.0, se=-1.0, n=3)


class TestDenseOperator:
    def test_matvec(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(op.matvec(np.ones(3)), [1.0, 2.0, 3.0])
        assert op.n_params == 3
        assert op.segments == (("all", 0, 3),)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_shape_vector(self):
        op = DenseOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matvec(np.ones(3))
