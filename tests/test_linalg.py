import warnings

import numpy as np
import pytest

from lmopt.linalg import (
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

    @pytest.mark.parametrize("shape", [(16, 7), (7, 16), (1, 5), (5, 1), (32, 32)])
    def test_sign_convention_matches_column_loop(self, shape):
        # reference: flip each column so its largest-magnitude entry is positive
        a = random_matrix(*shape, seed=shape[0] * 7 + shape[1])
        if min(shape) > 2:
            a[:, 1] = a[:, 0]  # rank deficient, so truncation runs too
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > 1e-10 * s[0]
        u, s, vt = u[:, keep], s[keep], vt[keep, :]
        for j in range(s.size):
            i = int(np.argmax(np.abs(u[:, j])))
            if u[i, j] < 0.0:
                u[:, j] = -u[:, j]
                vt[j, :] = -vt[j, :]
        res = svd_reduced(a)
        np.testing.assert_array_equal(res.u, u)
        np.testing.assert_array_equal(res.sigma, s)
        np.testing.assert_array_equal(res.vt, vt)

    def test_rank_truncation(self):
        a = np.diag([1.0, 1e-14])
        res = svd_reduced(a)
        assert res.rank == 1
        assert np.all(res.sigma > 1e-10 * res.sigma[0])

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix has no reduced SVD"):
            svd_reduced(np.zeros((3, 3)))

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

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix has no reduced SVD"):
            singular_values(np.zeros((3, 2)))

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
