import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from lmopt.linalg import (
    RANK_RTOL,
    LowRank,
    derive_seed,
    derive_seeds,
    lowrank_svd,
    newton_schulz_orthogonalize,
    rng_gaussian,
    rng_permutation,
    rng_rademacher,
    semi_orthogonal_init,
    sigma_max,
    singular_values,
    svd_reduced,
)


def random_matrix(rows, cols, seed):
    return rng_gaussian(rows, cols, seed)


class TestSvdReduced:
    def test_diagonal_rank_one(self):
        res = svd_reduced([[5.0, 0.0], [0.0, 0.0]])
        assert res.rank == 1
        np.testing.assert_allclose(res.sigma, [5.0])
        np.testing.assert_allclose(res.u, [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(res.vt, [[1.0, 0.0]], atol=1e-14)

    def test_single_offdiagonal_entry(self):
        res = svd_reduced([[0.0, 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(res.sigma, [3.0])
        np.testing.assert_allclose(res.u, [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(res.vt, [[0.0, 1.0]], atol=1e-14)

    def test_reconstruction_oracle_8x5(self):
        g = random_matrix(8, 5, seed=11)
        res = svd_reduced(g)
        rel = np.linalg.norm(res.reconstruct() - g) / np.linalg.norm(g)
        assert rel <= 1e-8

    @pytest.mark.parametrize("shape", [(3, 3), (16, 7), (7, 16), (64, 64), (1, 5)])
    def test_roundtrip_and_factor_orthonormality(self, shape):
        a = random_matrix(*shape, seed=hash(shape) % 1000)
        res = svd_reduced(a)
        r = res.rank
        assert r <= min(shape)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(r), atol=1e-10)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(r), atol=1e-10)
        assert np.all(np.diff(res.sigma) <= 0)
        assert np.all(res.sigma > 0)
        rel = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_polar_factor_matches_sign_fixed_factors_bit_for_bit(self):
        # The lmo reads only u @ vt and sigma, which no sign pair changes: flipping
        # column j of u and row j of vt negates both factors of every product. The
        # reference fixes each column's first largest-|entry| positive, the
        # convention svd_reduced once applied, and must give the same bits.
        cases = {"full rank": 0, "rank deficient": 0, "tie": 0}
        inputs = []
        for shape in [(16, 7), (7, 16), (1, 5), (5, 1), (32, 32)]:
            a = random_matrix(*shape, seed=shape[0] * 7 + shape[1])
            if min(shape) > 2:
                a[:, 1] = a[:, 0]  # rank deficient, so truncation runs too
            inputs.append(a)
        # Small integer matrices give rank-deficient operands and columns of u whose
        # largest |entry| is held by a positive and a negative entry alike.
        for shape in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4), (5, 3)]:
            for k in range(150):
                a = np.clip(np.rint(rng_gaussian(*shape, derive_seed(71, *shape, k))), -2, 2)
                if a.any():
                    inputs.append(a)
        for a in inputs:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            keep = s > RANK_RTOL * s[0]
            if not keep.all():
                u, s, vt = u[:, keep], s[keep], vt[keep, :]
            cases["rank deficient" if s.size < min(a.shape) else "full rank"] += 1
            cases["tie"] += bool(np.any(-u.min(axis=0) == u.max(axis=0)))
            flip = u[np.argmax(np.abs(u), axis=0), np.arange(s.size)] < 0.0
            np.negative(u, out=u, where=flip)
            np.negative(vt, out=vt, where=flip[:, None])
            res = svd_reduced(a)
            assert res.orthogonal_factor().tobytes() == (u @ vt).tobytes()
            assert res.sigma.tobytes() == s.tobytes()
        assert min(cases.values()) >= 20, cases

    def test_rank_truncation(self):
        a = np.diag([1.0, 1e-14])
        res = svd_reduced(a)
        assert res.rank == 1
        assert np.all(res.sigma > 1e-10 * res.sigma[0])

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 4)])
    def test_zero_matrix_has_rank_zero(self, shape):
        # Empty factors, as lowrank_svd gives a zero product: the orthogonal factor
        # of a zero matrix is the zero matrix, with no branch in the caller.
        res = svd_reduced(np.zeros(shape))
        assert res.rank == 0
        assert res.u.shape == (shape[0], 0) and res.vt.shape == (0, shape[1])
        factor = res.orthogonal_factor()
        assert factor.shape == shape and not factor.any()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd_reduced([[1.0, np.nan], [0.0, 1.0]])


class TestSingularValues:
    @pytest.mark.parametrize("shape", [(16, 7), (7, 16), (1, 9), (9, 1), (32, 32)])
    def test_matches_svd_reduced_sigma(self, shape):
        a = random_matrix(*shape, seed=shape[0] * 100 + shape[1])
        np.testing.assert_allclose(singular_values(a), svd_reduced(a).sigma, rtol=1e-12)

    def test_rank_deficient_drops_values_below_cutoff(self):
        u = semi_orthogonal_init(12, 3, seed=4)
        v = semi_orthogonal_init(8, 3, seed=5)
        a = (u * np.array([3.0, 1.0, 0.5])) @ v.T
        sv = singular_values(a)
        assert sv.size == svd_reduced(a).rank == 3
        assert np.all(sv > 1e-10 * sv[0])
        np.testing.assert_allclose(sv, svd_reduced(a).sigma, rtol=1e-12)
        np.testing.assert_allclose(singular_values(np.diag([1.0, 1e-14])), [1.0], rtol=1e-12)

    def test_zero_matrix_has_empty_spectrum(self):
        sv = singular_values(np.zeros((3, 2)))
        assert sv.size == 0 and np.sum(sv) == 0.0

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                singular_values([[1.0, bad], [0.0, 1.0]])


def _spectrum_matrix(rows, cols, sigma, seed):
    """u diag(sigma) v^T with semi-orthogonal u (rows, r) and v (cols, r), r = len(sigma)."""
    r = len(sigma)
    u = semi_orthogonal_init(rows, r, seed)
    v = semi_orthogonal_init(cols, r, seed + 1)
    return (u * np.asarray(sigma)) @ v.T


SIGMA_MAX_CASES = {
    "square": random_matrix(32, 32, 40),
    "tall": random_matrix(48, 9, 41),
    "wide": random_matrix(9, 48, 42),
    "row": random_matrix(1, 17, 43),
    "column": random_matrix(17, 1, 44),
    "rank_one": np.outer(random_matrix(20, 1, 45), random_matrix(12, 1, 46)),
    "rank_deficient": _spectrum_matrix(24, 16, [3.0, 1.0, 0.5], 47),
    "condition_1e12": _spectrum_matrix(20, 14, np.logspace(0.0, -12.0, 14), 48),
}


class TestSigmaMax:
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("case", sorted(SIGMA_MAX_CASES))
    def test_matches_top_singular_value(self, case, scale):
        a = scale * SIGMA_MAX_CASES[case]
        np.testing.assert_allclose(sigma_max(a), singular_values(a)[0], rtol=1e-13, atol=0)

    def test_zero_matrix_gives_zero(self):
        assert sigma_max(np.zeros((3, 2))) == 0.0

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                sigma_max([[1.0, bad], [0.0, 1.0]])


def low_rank(rows, cols, width, seed):
    return LowRank(random_matrix(rows, width, seed), random_matrix(cols, width, seed + 1))


class TestLowRankSvd:
    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(24, 24), (40, 12), (12, 40), (3, 30)])
    def test_matches_dense_svd(self, shape, width):
        a = low_rank(*shape, width, seed=shape[0] + 10 * width)
        got, want = lowrank_svd(a), svd_reduced(a.dense())
        assert got.rank == want.rank == min(width, *shape)
        scale = want.sigma[0]
        np.testing.assert_allclose(got.sigma, want.sigma, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(got.orthogonal_factor(), want.orthogonal_factor(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.reconstruct(), a.dense(), rtol=0, atol=1e-12 * scale)

    def test_shape(self):
        a = low_rank(7, 4, 2, seed=3)
        assert a.shape == (7, 4) and a.dense().shape == (7, 4)

    def test_zero_and_cancelling_factors_have_rank_zero(self):
        x, y = random_matrix(6, 1, 1), random_matrix(5, 1, 2)
        for a in (LowRank(np.zeros((6, 1)), y), LowRank(x, np.zeros((5, 2))[:, :1]),
                  LowRank(np.hstack([x, x]), np.hstack([y, -y]))):
            res = lowrank_svd(a)
            assert res.rank == 0
            np.testing.assert_array_equal(res.orthogonal_factor(), np.zeros((6, 5)))

    def test_bad_factors_rejected(self):
        x, y = random_matrix(6, 2, 1), random_matrix(5, 2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            lowrank_svd(LowRank(np.where(x > 0, np.inf, x), y))
        with pytest.raises(ValueError, match="column count"):
            lowrank_svd(LowRank(x, y[:, :1]))
        with pytest.raises(ValueError, match="2-D"):
            lowrank_svd(LowRank(x[:, 0], y))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            lowrank_svd(LowRank(1e200 * x, 1e200 * y))


class TestNewtonSchulz:
    def test_identity_band(self):
        m = newton_schulz_orthogonalize(np.eye(2), iters=5)
        sv = svd_reduced(m).sigma
        assert np.all(sv >= 0.65) and np.all(sv <= 1.35)
        assert np.sum(m * np.eye(2)) > 0

    def test_rank_one_alignment(self):
        a = np.array([[5.0, 0.0], [0.0, 0.0]])
        m = newton_schulz_orthogonalize(a, iters=5)
        target = np.array([[1.0, 0.0], [0.0, 0.0]])  # exact-SVD orthogonal factor
        alignment = np.sum(m * target) / np.sum(target * target)
        assert alignment >= 0.95

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(
            newton_schulz_orthogonalize(np.zeros((3, 2)), iters=5), np.zeros((3, 2))
        )

    def test_zero_iters_returns_normalized_input(self):
        a = random_matrix(4, 3, seed=2)
        m = newton_schulz_orthogonalize(a, iters=0)
        np.testing.assert_allclose(m, a / np.linalg.norm(a), atol=1e-15)

    @pytest.mark.parametrize("shape", [(6, 6), (12, 8), (8, 12), (16, 16)])
    def test_conditioned_inputs_stay_in_band(self, shape):
        # spectrum log-spaced over condition number 100
        seed = shape[0] * 100 + shape[1]
        r = min(shape)
        u = semi_orthogonal_init(shape[0], r, seed)
        v = semi_orthogonal_init(shape[1], r, seed + 1)
        sigma = np.logspace(-2, 0, r)
        a = (u * sigma) @ v.T
        m = newton_schulz_orthogonalize(a, iters=5)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all(sv >= 0.65) and np.all(sv <= 1.35)
        target = u @ v.T
        alignment = np.sum(m * target) / np.sum(target * target)
        assert alignment >= 0.95

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("shape", [(6, 6), (12, 8), (8, 12)])
    def test_band_holds_at_every_scale(self, shape, scale):
        # the Frobenius normalization runs at a power-of-two scale, so it neither
        # underflows to 0/0 nor overflows to a zero direction
        a = random_matrix(*shape, seed=shape[0] * 100 + shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = newton_schulz_orthogonalize(scale * a, iters=5)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all(sv >= 0.65) and np.all(sv <= 1.35)
        np.testing.assert_allclose(m, newton_schulz_orthogonalize(a, iters=5), rtol=0, atol=1e-12)

    def test_idempotence_band_on_semi_orthogonal(self):
        q = semi_orthogonal_init(10, 6, seed=3)
        m = newton_schulz_orthogonalize(q, iters=5)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all(sv >= 0.65) and np.all(sv <= 1.35)

    def test_negative_iters_rejected(self):
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(np.eye(2), iters=-1)


class TestSemiOrthogonalInit:
    def test_tall_columns_orthonormal(self):
        q = semi_orthogonal_init(4, 2, seed=0)
        assert q.shape == (4, 2)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)

    def test_wide_rows_orthonormal(self):
        q = semi_orthogonal_init(3, 9, seed=5)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)

    def test_square_is_orthogonal(self):
        q = semi_orthogonal_init(2, 2, seed=123)
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-10

    def test_boundary_spectral_norm(self):
        for d_out, d_in, seed in [(8, 3, 0), (3, 8, 1), (5, 5, 2)]:
            q = semi_orthogonal_init(d_out, d_in, seed)
            assert abs(np.linalg.norm(q, 2) - 1.0) <= 1e-10

    def test_deterministic(self):
        a = semi_orthogonal_init(6, 4, seed=9)
        b = semi_orthogonal_init(6, 4, seed=9)
        np.testing.assert_array_equal(a, b)
        c = semi_orthogonal_init(6, 4, seed=10)
        assert np.any(a != c)


class TestRng:
    def test_rademacher_values(self):
        r = rng_rademacher(2, 2, seed=4)
        assert set(np.unique(r)) <= {-1.0, 1.0}

    def test_gaussian_mean_clt(self):
        g = rng_gaussian(1000, 1, seed=7)
        assert abs(g.mean()) <= 0.15

    def test_gaussian_variance_sane(self):
        g = rng_gaussian(200, 50, seed=8)
        assert abs(g.std() - 1.0) <= 0.05

    def test_deterministic(self):
        np.testing.assert_array_equal(rng_gaussian(5, 5, 1), rng_gaussian(5, 5, 1))
        np.testing.assert_array_equal(rng_rademacher(5, 5, 1), rng_rademacher(5, 5, 1))
        assert np.any(rng_gaussian(5, 5, 1) != rng_gaussian(5, 5, 2))

    def test_permutation(self):
        p = rng_permutation(17, seed=3)
        assert sorted(p.tolist()) == list(range(17))
        np.testing.assert_array_equal(p, rng_permutation(17, seed=3))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            rng_gaussian(0, 3, 1)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (7, 1), (32, 1), (3, 5), (33, 2)])
    def test_seed_stack_matches_per_seed_draws(self, rows, cols):
        seeds = [0, 5, derive_seed(3, 1, 2), 2**63, 2**63 + 12345, 2**64 - 1]
        stack = rng_gaussian(rows, cols, seeds)
        assert stack.shape == (len(seeds), rows, cols)
        for i, seed in enumerate(seeds):
            assert np.array_equal(stack[i], rng_gaussian(rows, cols, seed))

    def test_seed_stack_of_one(self):
        assert np.array_equal(rng_gaussian(4, 1, [2**63 + 1])[0], rng_gaussian(4, 1, 2**63 + 1))

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_derive_seeds_match_scalar_folds(self, seed):
        trials = [0, 9, 3]
        steps = [0, 1, 2, 63, 64, 65, 129, 4096]
        base = [derive_seed(seed, t) for t in trials]
        want = np.array([[derive_seed(seed, t, k) for k in steps] for t in trials], np.uint64)
        for seeds in (base, np.array(base, dtype=np.uint64)):
            got = derive_seeds(seeds, steps)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert np.array_equal(derive_seeds(base, np.arange(64, 66)), want[:, 4:6])

    def test_uint64_seed_array_gives_a_stack_per_seed(self):
        seeds = derive_seeds([derive_seed(1, t) for t in range(3)], range(1, 3)).T
        stack = rng_gaussian(5, 2, seeds)
        assert stack.shape == (2, 3, 5, 2)
        for k, t in np.ndindex(2, 3):
            assert np.array_equal(stack[k, t], rng_gaussian(5, 2, int(seeds[k, t])))

    def test_derive_seeds_needs_integer_indices(self):
        with pytest.raises(ValueError, match="1-D integer"):
            derive_seeds([0], [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D integer"):
            derive_seeds([0], [[1, 2]])


# SHA-256 of each draw's raw bytes (C order), with its dtype and shape. The digests
# pin the stream itself, so a rewrite of the mix or of Box-Muller that moves any bit
# fails here, not only one that breaks self-consistency.
_PINNED_DRAWS = [
    pytest.param(
        lambda: rng_gaussian(5, 7, 0),
        "53b65eb74ad8558125892bf7a26be5b9602fdb491859d0e533991bdef7c9d6cc",
        id="gaussian-odd-seed0",
    ),
    pytest.param(
        lambda: rng_gaussian(6, 4, 0),
        "ff296748b33e2341638b07b746cbfc0e4e5595e8875bd34a67c8e08595d90b8a",
        id="gaussian-even-seed0",
    ),
    pytest.param(
        lambda: rng_gaussian(3, 3, 2**64 - 1),
        "6de490e0d2ab77d964f89895257262c79245e1fb4d92039d96786bf4ba8afb94",
        id="gaussian-odd-seedmax",
    ),
    pytest.param(
        lambda: rng_gaussian(8, 8, 2**64 - 1),
        "29621806bd2102362b491b62ac4435ae9af73e9314a03e38e169a30646f610f4",
        id="gaussian-even-seedmax",
    ),
    pytest.param(
        lambda: rng_gaussian(65, 33, 12345),
        "97e3c93c4a6b8e05d63c915c911cd9bdcbe3fa2cccbfc6b74ec57d3c9da16e47",
        id="gaussian-65x33",
    ),
    pytest.param(
        lambda: rng_gaussian(1, 1, 3),
        "9ee30e35b39371bf41c7b05adb31f0b003eb7ab21276e17e2da4be1bc99b6f0e",
        id="gaussian-1x1",
    ),
    pytest.param(
        lambda: rng_gaussian(3, 5, [0, 1, 2**64 - 1]),
        "c172d4eb8faa75793dcc14214822797fda1243e07faf49803ba6b72d5eb59158",
        id="gaussian-seed-list",
    ),
    pytest.param(
        lambda: rng_gaussian(4, 1, derive_seeds([0, 7], np.arange(3))),
        "193aaca48a484b3cd59a374e173f9638dbd722284b0e83c9ef4543b85523760d",
        id="gaussian-derived-seeds",
    ),
    pytest.param(
        lambda: rng_gaussian(3, 1, derive_seeds([5, 6], np.arange(4)).T),
        "ae58d621fa15a23c13d9ea7ae807da3b1831f7a8defa98c297e53e5c46609d43",
        id="gaussian-derived-seeds-transposed",
    ),
    pytest.param(
        lambda: rng_rademacher(5, 7, 0),
        "44ca65f5cbc0dafd3dad3d8a9c35e566b7b2c02c2870c9af3b5c00f90c55fd98",
        id="rademacher-seed0",
    ),
    pytest.param(
        lambda: rng_rademacher(4, 4, 2**64 - 1),
        "3d1337b994e4868dccccf7f74bcba412decc59956e00f4d5aaa09cf956416cb6",
        id="rademacher-seedmax",
    ),
    pytest.param(
        lambda: rng_permutation(33, 0),
        "b434391e7d920068b9507f47a165eace57b5f776204f4baf9c49863a4f28735b",
        id="permutation-seed0",
    ),
    pytest.param(
        lambda: rng_permutation(10, 2**64 - 1),
        "e63e51066e69d49bd805bfec4f9aa64466941d18832199b1bc46a905c3c1ffe0",
        id="permutation-seedmax",
    ),
    pytest.param(
        lambda: derive_seeds([0, 1, 2**64 - 1], np.array([0, 1, 5, -1])),
        "8208e9128efec52b321033f92f480d3cd5c1c1e7f6701fb59ac44485a3ac1ca8",
        id="derive-seeds",
    ),
]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()).hexdigest()


class TestRngPinned:
    @pytest.mark.parametrize("draw, want", _PINNED_DRAWS)
    def test_draw_bits_are_pinned(self, draw, want):
        assert _digest(draw()) == want

    def test_dtypes_and_shapes(self):
        assert rng_gaussian(3, 5, [0, 1, 2]).shape == (3, 3, 5)
        assert rng_gaussian(4, 1, derive_seeds([0, 7], np.arange(3))).shape == (2, 3, 4, 1)
        assert rng_rademacher(5, 7, 0).dtype == np.float64
        assert rng_permutation(33, 0).dtype == np.int64
        assert derive_seeds([0], [1]).dtype == np.uint64

    def test_gaussian_draw_peaks_within_three_results(self):
        # The mix, the uniforms and Box-Muller run in arrays the draw owns: the
        # counter stream and its shift buffer, then the uniforms and the output.
        rng_gaussian(2, 2, 0)
        tracemalloc.start()
        try:
            z = rng_gaussian(512, 512, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * z.nbytes, f"tracemalloc peak {peak / 2**20:.2f} MiB"


_REJECTIONS = {
    "empty_matrix": (lambda: svd_reduced(np.zeros((0, 3))), "matrix must be nonempty"),
    "vector_matrix": (lambda: svd_reduced(np.ones(3)), r"matrix must be 2-D, got shape \(3,\)"),
    "empty_factor": (lambda: lowrank_svd(LowRank(np.zeros((3, 0)), np.zeros((2, 0)))),
                     "left factor must be nonempty"),
    "permutation_length": (lambda: rng_permutation(0, 1), "n must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_rejection_names_its_field(case):
    call, message = _REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()
