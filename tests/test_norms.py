import itertools
import re
import warnings

import numpy as np
import pytest

from lmopt import linalg, norms
from lmopt.linalg import (
    LowRank,
    derive_seed,
    lowrank_svd,
    rng_gaussian,
    sigma_max,
    singular_values,
    svd_reduced,
)
from lmopt.norms import (
    VECTOR_KINDS,
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    dual_norm,
    fw_gap,
    inner,
    lmo,
    lmo_coefficient,
    model_lmo,
    op_norm,
    sharp_op,
)

ALL_KINDS = sorted(NormKind, key=lambda k: k.value)
KIND_ID = {kind: i for i, kind in enumerate(ALL_KINDS)}


def make_spec(kind, d_out, d_in, radius=1.0):
    if kind in VECTOR_KINDS:
        return NormSpec.vector(kind, d_out, radius=radius)
    return NormSpec(kind=kind, radius=radius, d_out=d_out, d_in=d_in)


def random_operand(spec, seed):
    if spec.is_vector:
        return rng_gaussian(spec.d_out, 1, seed)[:, 0]
    return rng_gaussian(spec.d_out, spec.d_in, seed)


def random_dims(kind, seed, max_dim=64):
    d_out = 1 + derive_seed(seed, 0) % max_dim
    d_in = 1 if kind in VECTOR_KINDS else 1 + derive_seed(seed, 1) % max_dim
    return d_out, d_in


class TestVecNorm:
    """The l1 / l2 / l-infinity / RMS vector norms, as the vector kinds' norms and
    duals: l2 is EUCLIDEAN_VEC, RMS is RMS_VEC, l-infinity is MAX_VEC and l1 its dual."""

    def test_l2(self):
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2)
        assert op_norm([3.0, 4.0], spec) == pytest.approx(5.0)
        assert dual_norm([3.0, 4.0], spec) == pytest.approx(5.0)

    def test_rms_of_ones(self):
        spec = NormSpec.vector(NormKind.RMS_VEC, 4)
        assert op_norm([1.0, 1.0, 1.0, 1.0], spec) == pytest.approx(1.0)

    def test_chain_holds(self):
        z = [3.0, -4.0]
        max_vec = NormSpec.vector(NormKind.MAX_VEC, 2)
        l1 = dual_norm(z, max_vec)
        l2 = op_norm(z, NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2))
        linf = op_norm(z, max_vec)
        assert (l1, l2, linf) == pytest.approx((7.0, 5.0, 4.0))
        assert linf <= l2 <= l1

    def test_empty_rejected(self):
        for kind in VECTOR_KINDS:
            with pytest.raises(ValueError):
                NormSpec.vector(kind, 0)
            for norm in (op_norm, dual_norm):
                with pytest.raises(ValueError):
                    norm([], NormSpec.vector(kind, 1))


class TestOpNorm:
    def test_sign_is_max_abs(self):
        spec = NormSpec(NormKind.SIGN, 1.0, 2, 2)
        assert op_norm([[2.0, -3.0], [0.0, 1.0]], spec) == pytest.approx(3.0)

    def test_spectral_diag(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)
        assert op_norm(np.diag([3.0, 4.0]), spec) == pytest.approx(4.0)

    def test_colnorm_column(self):
        spec = NormSpec(NormKind.COL_NORM, 1.0, 2, 1)
        assert op_norm([[3.0], [4.0]], spec) == pytest.approx(5.0 / np.sqrt(2.0))

    def test_rownorm(self):
        spec = NormSpec(NormKind.ROW_NORM, 1.0, 2, 2)
        val = op_norm([[3.0, 4.0], [0.0, 1.0]], spec)
        assert val == pytest.approx(np.sqrt(2.0) * 5.0)

    @pytest.mark.parametrize("shape", [(5, 4), (4, 5), (1, 6), (6, 1)])
    def test_matrix_kinds_reduce_vector_rows(self, shape):
        # RowNorm runs the Euclidean stack oracle on its rows, ColNorm on its columns
        a = rng_gaussian(*shape, derive_seed(25, *shape))
        d_out, d_in = shape
        rows = op_norm(a, NormSpec.vector(NormKind.EUCLIDEAN_VEC, d_in))
        cols = op_norm(a.T, NormSpec.vector(NormKind.EUCLIDEAN_VEC, d_out))
        assert op_norm(a, NormSpec(NormKind.ROW_NORM, 1.0, *shape)) == pytest.approx(
            np.sqrt(d_in) * np.max(rows), rel=1e-15, abs=0
        )
        assert op_norm(a, NormSpec(NormKind.COL_NORM, 1.0, *shape)) == pytest.approx(
            np.max(cols) / np.sqrt(d_out), rel=1e-15, abs=0
        )
        flat = NormSpec.vector(NormKind.MAX_VEC, a.size)
        assert dual_norm(a, NormSpec(NormKind.SIGN, 1.0, *shape)) == dual_norm(a.ravel(), flat)
        assert op_norm(a, NormSpec(NormKind.SIGN, 1.0, *shape)) == op_norm(a.ravel(), flat)

    def test_shape_mismatch(self):
        spec = NormSpec(NormKind.SIGN, 1.0, 2, 2)
        with pytest.raises(ValueError, match="expected shape"):
            op_norm(np.ones((3, 2)), spec)

    def test_operator_norm_transfer_bounds(self):
        # sampled check of the norm-conversion facts, by direct computation
        for seed in range(20):
            d_out = 2 + seed % 7
            d_in = 2 + (seed * 3) % 9
            a = rng_gaussian(d_out, d_in, derive_seed(100, seed))
            rms_rms = op_norm(a, NormSpec(NormKind.SPECTRAL, 1.0, d_out, d_in))
            one_rms = op_norm(a, NormSpec(NormKind.COL_NORM, 1.0, d_out, d_in))
            assert rms_rms <= d_in * one_rms + 1e-12
            inf_inf = max(np.sum(np.abs(a), axis=1))  # max row l1 norm
            rms_inf = op_norm(a, NormSpec(NormKind.ROW_NORM, 1.0, d_out, d_in))
            assert inf_inf <= np.sqrt(d_in) * rms_inf + 1e-12


class TestLmoExamples:
    def test_sign(self):
        spec = NormSpec(NormKind.SIGN, 1.0, 2, 2)
        out = lmo([[2.0, -3.0], [0.0, 1.0]], spec)
        np.testing.assert_array_equal(out, [[-1.0, 1.0], [0.0, -1.0]])

    def test_spectral_rank_one(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)
        out = lmo([[5.0, 0.0], [0.0, 0.0]], spec)
        np.testing.assert_allclose(out, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_colnorm_column(self):
        spec = NormSpec(NormKind.COL_NORM, 1.0, 2, 1)
        out = lmo([[3.0], [4.0]], spec)
        np.testing.assert_allclose(
            out, [[-np.sqrt(2.0) * 0.6], [-np.sqrt(2.0) * 0.8]], atol=1e-12
        )
        np.testing.assert_allclose(out, [[-0.84852813742385702], [-1.13137084989847604]])

    def test_euclidean_with_radius(self):
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2, radius=2.0)
        s = np.array([3.0, 4.0])
        out = lmo(s, spec)
        np.testing.assert_allclose(out, [-1.2, -1.6])
        assert float(s @ out) == pytest.approx(-10.0)

    def test_scale_invariance_all_kinds(self):
        for kind in ALL_KINDS:
            spec = make_spec(kind, 6, 4)
            s = random_operand(spec, derive_seed(5, KIND_ID[kind]))
            base = lmo(s, spec)
            for a in (0.5, 2.0, 10.0):
                np.testing.assert_allclose(lmo(a * s, spec), base, atol=1e-10)

    def test_zero_maps_to_zero(self):
        for kind in ALL_KINDS:
            spec = make_spec(kind, 3, 2)
            z = np.zeros(3) if spec.is_vector else np.zeros((3, 2))
            np.testing.assert_array_equal(lmo(z, spec), z)

    def test_zero_column_convention(self):
        spec = NormSpec(NormKind.COL_NORM, 1.0, 2, 2)
        out = lmo([[3.0, 0.0], [4.0, 0.0]], spec)
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])
        assert np.linalg.norm(out[:, 0]) == pytest.approx(np.sqrt(2.0))

    def test_zero_row_convention(self):
        spec = NormSpec(NormKind.ROW_NORM, 1.0, 2, 2)
        out = lmo([[0.0, 0.0], [3.0, 4.0]], spec)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])


class TestLmoContracts:
    """Boundary, dual pairing, and optimality of the oracle, sampled per kind."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_boundary_and_pairing(self, kind):
        for trial in range(100):
            seed = derive_seed(42, KIND_ID[kind], trial)
            d_out, d_in = random_dims(kind, seed)
            radius = 0.25 + (derive_seed(seed, 2) % 8) / 2.0
            spec = make_spec(kind, d_out, d_in, radius=radius)
            s = random_operand(spec, derive_seed(seed, 3))
            out = lmo(s, spec)
            tol = 1e-8 if kind is NormKind.SPECTRAL else 1e-10
            assert abs(op_norm(out, spec) - radius) <= tol * max(1.0, radius)
            pairing = float(np.vdot(s, out)) + radius * dual_norm(s, spec)
            assert abs(pairing) <= 1e-8 * max(1.0, radius * dual_norm(s, spec))

    def test_brute_force_optimality_2x2(self):
        # enumerate the +-radius extreme points of the sign ball (shared by the
        # matrix max-entry ball and the vector l-inf ball)
        for kind in (NormKind.SIGN, NormKind.MAX_VEC):
            for trial in range(25):
                seed = derive_seed(77, KIND_ID[kind], trial)
                radius = 0.5 + (derive_seed(seed, 1) % 4) / 2.0
                if kind is NormKind.SIGN:
                    spec = NormSpec(NormKind.SIGN, radius, 2, 2)
                    s = rng_gaussian(2, 2, seed)
                else:
                    spec = NormSpec.vector(NormKind.MAX_VEC, 4, radius=radius)
                    s = rng_gaussian(4, 1, seed)[:, 0]
                flat = s.ravel()
                best = min(
                    float(flat @ (radius * np.array(signs)))
                    for signs in itertools.product((-1.0, 1.0), repeat=4)
                )
                attained = float(np.vdot(s, lmo(s, spec)))
                assert attained == pytest.approx(best, abs=1e-12)


class TestDualNorm:
    def test_sign_entrywise_l1(self):
        spec = NormSpec(NormKind.SIGN, 1.0, 2, 2)
        assert dual_norm([[2.0, -3.0], [0.0, 1.0]], spec) == pytest.approx(6.0)

    def test_euclidean(self):
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2)
        assert dual_norm([3.0, 4.0], spec) == pytest.approx(5.0)

    def test_spectral_nuclear(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)
        assert dual_norm(np.diag([3.0, 4.0]), spec) == pytest.approx(7.0)

    def test_zero_is_zero(self):
        spec = NormSpec(NormKind.SIGN, 1.0, 2, 2)
        assert dual_norm(np.zeros((2, 2)), spec) == 0.0

    def test_dual_is_radius_free(self):
        a = rng_gaussian(3, 3, 5)
        one = dual_norm(a, NormSpec(NormKind.SPECTRAL, 1.0, 3, 3))
        two = dual_norm(a, NormSpec(NormKind.SPECTRAL, 2.0, 3, 3))
        assert one == pytest.approx(two)


class TestSharpOp:
    def test_euclidean_sharp_is_identity(self):
        for radius in (1.0, 3.0):
            spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2, radius=radius)
            np.testing.assert_allclose(sharp_op([3.0, 4.0], spec), [3.0, 4.0], atol=1e-12)

    def test_maxvec_sharp(self):
        # brute-force check: argmax of <s, x> - 0.5 * max(|x|)^2 over x = t * sign(s)
        # maximizes t * ||s||_1 - 0.5 t^2, so t = ||s||_1 = 3 and sharp = [3, -3]
        spec = NormSpec.vector(NormKind.MAX_VEC, 2, radius=1.0)
        out = sharp_op([2.0, -1.0], spec)
        np.testing.assert_allclose(out, [3.0, -3.0], atol=1e-12)
        spec5 = NormSpec.vector(NormKind.MAX_VEC, 2, radius=5.0)
        np.testing.assert_allclose(sharp_op([2.0, -1.0], spec5), out, atol=1e-12)

    def test_zero(self):
        spec = NormSpec.vector(NormKind.MAX_VEC, 3)
        np.testing.assert_array_equal(sharp_op(np.zeros(3), spec), np.zeros(3))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_pairing_equals_dual_squared(self, kind):
        for trial in range(20):
            seed = derive_seed(9, KIND_ID[kind], trial)
            d_out, d_in = random_dims(kind, seed, max_dim=16)
            spec = make_spec(kind, d_out, d_in, radius=1.5)
            s = random_operand(spec, derive_seed(seed, 1))
            d = dual_norm(s, spec)
            pairing = float(np.vdot(s, sharp_op(s, spec)))
            assert abs(pairing - d * d) <= 1e-8 * max(1.0, d * d)

    def test_scales_linearly_unlike_lmo(self):
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3)
        s = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(sharp_op(3.0 * s, spec), 3.0 * sharp_op(s, spec))


class TestComposite:
    def two_layer_spec(self):
        return ModelNormSpec(
            (
                NormSpec(NormKind.SIGN, 1.0, 2, 2),
                NormSpec(NormKind.SIGN, 2.0, 2, 2),
            )
        )

    def test_max_over_layers(self):
        spec = self.two_layer_spec()
        w1 = 0.5 * np.ones((2, 2))
        w2 = 3.0 * np.ones((2, 2))
        assert composite_norm([w1, w2], spec) == pytest.approx(1.5)

    def test_zero_params(self):
        spec = self.two_layer_spec()
        assert composite_norm([np.zeros((2, 2))] * 2, spec) == 0.0

    def test_boundary_is_one(self):
        spec = ModelNormSpec((NormSpec(NormKind.SIGN, 0.25, 2, 2),))
        w = 0.25 * np.ones((2, 2))
        assert composite_norm([w], spec) == pytest.approx(1.0)

    def test_alignment_mismatch(self):
        with pytest.raises(ValueError):
            composite_norm([np.zeros((2, 2))], self.two_layer_spec())

    def test_model_lmo_boundary(self):
        spec = self.two_layer_spec()
        grads = [rng_gaussian(2, 2, 1), rng_gaussian(2, 2, 2)]
        outs = model_lmo(grads, spec)
        assert composite_norm(outs, spec) == pytest.approx(1.0, abs=1e-12)


class TestVectorStacks:
    """Vector kinds act row by row on a (T, d) stack, one row per independent run."""

    def stack(self, d, seed):
        rows = rng_gaussian(d, 1, [derive_seed(seed, t) for t in range(5)])[..., 0]
        rows[2] = 0.0
        return rows

    @pytest.mark.parametrize("kind", sorted(VECTOR_KINDS, key=lambda k: k.value))
    def test_rows_equal_vector_calls(self, kind):
        spec = NormSpec.vector(kind, 9, radius=1.7)
        s = self.stack(9, KIND_ID[kind])
        out = lmo(s, spec)
        assert out.shape == s.shape
        for fn in (op_norm, dual_norm):
            values = fn(s, spec)
            assert values.shape == (5,)
            for i, row in enumerate(s):
                assert values[i] == fn(row, spec)
        for i, row in enumerate(s):
            assert np.array_equal(out[i], lmo(row, spec))
            assert np.array_equal(sharp_op(s, spec)[i], sharp_op(row, spec))
        np.testing.assert_array_equal(out[2], np.zeros(9))

    @pytest.mark.parametrize("kind", sorted(VECTOR_KINDS, key=lambda k: k.value))
    def test_all_zero_stack(self, kind):
        spec = NormSpec.vector(kind, 4)
        s = np.zeros((3, 4))
        np.testing.assert_array_equal(lmo(s, spec), s)
        np.testing.assert_array_equal(op_norm(s, spec), np.zeros(3))
        np.testing.assert_array_equal(dual_norm(s, spec), np.zeros(3))

    def test_composite_norm_per_row(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 9, radius=2.0),)
        )
        s = self.stack(9, 3)
        values = composite_norm([s], spec)
        assert values.shape == (5,)
        for i, row in enumerate(s):
            assert values[i] == composite_norm([row], spec)

    def test_fw_gap_per_row(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.RMS_VEC, 9, radius=0.5),)
        )
        g, x = self.stack(9, 4), self.stack(9, 5)
        gaps = fw_gap([g], [x], spec)
        assert gaps.shape == (5,)
        for i in range(5):
            assert gaps[i] == pytest.approx(fw_gap([g[i]], [x[i]], spec), rel=1e-15)

    def test_mixed_list_in_either_atom_order(self):
        # A spectral 3 x 2 atom beside a (3, 4) Euclidean stack whose zero row leaves
        # the max to the matrix: every row's value, in either order, is the single run's.
        spectral = NormSpec(NormKind.SPECTRAL, 0.5, 3, 2)
        euclidean = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 4, radius=1.7)
        w, gw = 0.1 * rng_gaussian(3, 2, 21), rng_gaussian(3, 2, 22)
        v, gv = self.stack(4, 23)[:3], self.stack(4, 24)[:3]
        per_order = []
        for stack_first in (False, True):
            spec = ModelNormSpec((euclidean, spectral) if stack_first else (spectral, euclidean))

            def layout(matrix, vector):
                return [vector, matrix] if stack_first else [matrix, vector]

            row_norms = composite_norm(layout(w, v), spec)
            row_gaps = fw_gap(layout(gw, gv), layout(w, v), spec)
            row_inners = inner(layout(gw, gv), layout(w, v), spec)
            assert row_norms.shape == row_gaps.shape == row_inners.shape == (3,)
            for i in range(3):
                norm_i = composite_norm(layout(w, v[i]), spec)
                gap_i = fw_gap(layout(gw, gv[i]), layout(w, v[i]), spec)
                inner_i = inner(layout(gw, gv[i]), layout(w, v[i]), spec)
                assert type(norm_i) is type(gap_i) is type(inner_i) is float
                assert row_norms[i] == pytest.approx(norm_i, rel=1e-15)
                assert row_gaps[i] == pytest.approx(gap_i, rel=1e-15)
                assert row_inners[i] == pytest.approx(inner_i, rel=1e-15)
                flat = [np.concatenate([a.ravel() for a in layout(gw, gv[i])]),
                        np.concatenate([a.ravel() for a in layout(w, v[i])])]
                assert inner_i == pytest.approx(float(np.vdot(*flat)), rel=1e-15)
            per_order.append((row_norms, row_gaps, row_inners))
        assert per_order[0][0][2] == op_norm(w, spectral) / 0.5
        for a, b in zip(*per_order):
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("shape", [(5, 8), (5, 10), (2, 5, 9), (9, 1)])
    def test_wrong_shape_rejected(self, shape):
        spec = NormSpec.vector(NormKind.RMS_VEC, 9)
        for fn in (lmo, op_norm, dual_norm):
            with pytest.raises(ValueError, match="length 9"):
                fn(np.ones(shape), spec)


class TestScaleSafeL2:
    """The l2 kinds (the Euclidean and RMS vectors, ColNorm's columns and RowNorm's
    rows) form each row's norm at a power-of-two scale when its plain sum of squares
    would overflow, underflow or lose precision; other rows keep the plain formulas,
    bit for bit. The max-based kinds and the exact spectral lmo keep the same
    boundary and pairing at every scale."""

    L2_KINDS = [NormKind.EUCLIDEAN_VEC, NormKind.RMS_VEC]
    L2_MATRIX_KINDS = [NormKind.COL_NORM, NormKind.ROW_NORM]

    def unit_stack(self, d):
        rows = rng_gaussian(d, 1, [derive_seed(23, t) for t in range(5)])[..., 0]
        rows[2] = 0.0
        return rows

    def unit_matrix(self, shape):
        """A Gaussian matrix with a zero row and a zero column."""
        m = rng_gaussian(*shape, derive_seed(24, *shape))
        m[1] = 0.0
        m[:, 2] = 0.0
        return m

    def test_overflowing_norm_example(self):
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(np.array([1e300, 1e300]), spec)
            dual = dual_norm(np.array([1e300, 1e300]), spec)
        np.testing.assert_allclose(out, [-np.sqrt(0.5)] * 2, rtol=1e-15)
        assert dual == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("stacked", [False, True], ids=["vector", "stack"])
    @pytest.mark.parametrize("kind", [*L2_KINDS, NormKind.MAX_VEC], ids=lambda k: k.value)
    def test_boundary_and_pairing_at_every_scale(self, kind, stacked, scale):
        radius = 1.7
        spec = NormSpec.vector(kind, 9, radius=radius)
        unit = self.unit_stack(9)
        s = scale * unit if stacked else scale * unit[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(s, spec)
            bound = np.atleast_1d(op_norm(out, spec))
            dual = np.atleast_1d(dual_norm(s, spec))
            norm = np.atleast_1d(op_norm(s, spec))
            pairing = np.atleast_1d(np.einsum("...d,...d->...", s, out)) + radius * dual
        rows = np.atleast_2d(unit)[: len(bound)]
        nonzero = rows.any(axis=1)
        np.testing.assert_allclose(bound[nonzero], radius, rtol=1e-12, atol=0)
        assert np.all(np.atleast_2d(out)[~nonzero] == 0.0) and np.all(dual[~nonzero] == 0.0)
        np.testing.assert_allclose(np.atleast_2d(out), np.atleast_2d(lmo(rows, spec)), rtol=1e-12)
        np.testing.assert_allclose(dual, scale * dual_norm(rows, spec), rtol=1e-12, atol=0)
        np.testing.assert_allclose(norm, scale * op_norm(rows, spec), rtol=1e-12, atol=0)
        assert np.all(np.abs(pairing) <= 1e-12 * radius * dual)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("shape", [(5, 4), (4, 5)], ids=["tall", "wide"])
    @pytest.mark.parametrize(
        "kind", [*L2_MATRIX_KINDS, NormKind.SIGN, NormKind.SPECTRAL], ids=lambda k: k.value
    )
    def test_matrix_boundary_and_pairing_at_every_scale(self, kind, shape, scale):
        radius = 1.7
        spec = NormSpec(kind, radius, *shape)
        unit = self.unit_matrix(shape)
        s = scale * unit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(s, spec)
            bound = op_norm(out, spec)
            dual = dual_norm(s, spec)
            norm = op_norm(s, spec)
            pairing = float(np.vdot(s, out)) + radius * dual
        zero = out[:, 2] if kind is NormKind.COL_NORM else out[1]
        # The row oracles zero a zero row exactly. The spectral lmo's zero row is U's,
        # zero only to rounding, so its entries are also compared at 1e-12 absolute.
        atol = 1e-12 * radius if kind is NormKind.SPECTRAL else 0.0
        assert np.all(np.abs(zero) <= atol)
        assert bound == pytest.approx(radius, rel=1e-12, abs=0)
        np.testing.assert_allclose(out, lmo(unit, spec), rtol=1e-12, atol=atol)
        assert dual == pytest.approx(scale * dual_norm(unit, spec), rel=1e-12, abs=0)
        assert norm == pytest.approx(scale * op_norm(unit, spec), rel=1e-12, abs=0)
        assert abs(pairing) <= 1e-12 * radius * dual

    @pytest.mark.parametrize(
        "kind", L2_KINDS + L2_MATRIX_KINDS + [NormKind.SPECTRAL, NormKind.MAX_VEC, NormKind.SIGN],
        ids=lambda k: k.value,
    )
    def test_dual_past_the_range_is_inf(self, kind):
        spec = make_spec(kind, 5, 4)
        s = np.full((5,) if spec.is_vector else (5, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dual_norm(s, spec) == np.inf
        # while its lmo is still the direction of the operand
        np.testing.assert_allclose(lmo(s, spec), lmo(np.ones_like(s), spec), rtol=1e-15)

    @pytest.mark.parametrize("kind", L2_KINDS, ids=lambda k: k.value)
    def test_sharp_past_the_range_keeps_zero_entries(self, kind):
        # The dual of the stack's first row is inf: its sharp is inf along the
        # row's nonzero entries and 0 at its zero entry, where inf * 0 would be NaN.
        spec = make_spec(kind, 3, 1)
        s = np.array([[1.5e308, 1.5e308, 0.0], [1.0, 2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sharp_op(s, spec)
        assert np.array_equal(out[0], [np.inf, np.inf, 0.0])
        assert np.array_equal(out[1], sharp_op(s[1], spec))

    @pytest.mark.parametrize("scale", [1e308, 1e-308])
    @pytest.mark.parametrize(
        "fn, kind, shape",
        [
            (op_norm, NormKind.RMS_VEC, (9,)),
            (op_norm, NormKind.COL_NORM, (9, 2)),
            (dual_norm, NormKind.ROW_NORM, (1, 4)),
            (op_norm, NormKind.SPECTRAL, (9, 1)),
            (dual_norm, NormKind.SPECTRAL, (1, 4)),
        ],
        ids=["rms_vec_op", "col_norm_op", "row_norm_dual", "spectral_op", "spectral_dual"],
    )
    def test_c_shrinks_a_row_norm_before_its_map_back(self, fn, kind, shape, scale):
        # Each row's l2 norm (the spectral kind's sigma) is 3 or 2 times the scale,
        # past float64's range at 1e308, and c (1/3 or 1/2) brings the value back to
        # the scale itself.
        spec = make_spec(kind, *shape) if len(shape) == 2 else make_spec(kind, shape[0], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn(np.full(shape, scale), spec)
        assert value == pytest.approx(scale, rel=1e-15, abs=0)

    @pytest.mark.parametrize("kind", L2_KINDS + L2_MATRIX_KINDS, ids=lambda k: k.value)
    def test_radius_near_the_largest_float(self, kind):
        # coef / norm overflows on a row of norm below |coef| / max float, while the
        # row's lmo, coef times its unit row, is finite; other rows keep their bits.
        spec = make_spec(kind, 5, 1 if kind in VECTOR_KINDS else 4,
                         radius=np.finfo(np.float64).max / 4)
        unit = self.unit_stack(5) if spec.is_vector else self.unit_matrix((5, 4))

        def rows(m):  # the lmo's rows: ColNorm's are the columns
            return m.T if kind is NormKind.COL_NORM else m

        s = unit.copy()
        rows(s)[0] *= 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(s, spec)
            bound = np.max(op_norm(out, spec))
        assert np.all(np.isfinite(out)) and bound == pytest.approx(spec.radius, rel=1e-12)
        np.testing.assert_allclose(rows(out)[0], rows(lmo(unit, spec))[0], rtol=1e-12)
        coef = -lmo_coefficient(spec)
        for r, o in zip(rows(s)[3:], rows(out)[3:]):
            assert np.array_equal(o, (coef / np.sqrt(np.einsum("d,d->", r, r))) * r)

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_largest_radius_rounds_no_row_past_the_range(self, d):
        # At the largest radius, (coef / norm) * r can round past float64's range
        # (the 1-D row 4.176487794778e23 did), so every row is coef times its unit row.
        spec = NormSpec.vector(NormKind.EUCLIDEAN_VEC, d, radius=np.finfo(np.float64).max)
        scales = np.ldexp(1.0, np.arange(-1000, 1000, 37))[:, None]
        s = rng_gaussian(d, 1, [derive_seed(26, t) for t in range(len(scales))])[..., 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(np.vstack([s * scales, [[4.176487794778e23] * d]]), spec)
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= spec.radius)

    @pytest.mark.parametrize(
        "kind, shape",
        [(NormKind.RMS_VEC, (3,)), (NormKind.COL_NORM, (3, 2)), (NormKind.SPECTRAL, (4, 1))],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_coefficient_past_the_range_keeps_a_finite_lmo(self, kind, shape):
        # radius * c overflows for c > 1 at the largest radius, but every entry of
        # these lmos is -radius: c meets a unit factor of 1 / c.
        spec = make_spec(kind, shape[0], shape[-1], radius=np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(np.ones(shape), spec)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, -spec.radius, rtol=1e-15)

    def test_coefficient_past_the_range_is_inf_without_a_warning(self):
        spec = NormSpec.vector(NormKind.RMS_VEC, 3, radius=np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lmo_coefficient(spec) == np.inf
        in_range = NormSpec.vector(NormKind.RMS_VEC, 3, radius=1.7)
        assert lmo_coefficient(in_range) == 1.7 * np.sqrt(3)

    @pytest.mark.parametrize("kind", L2_KINDS, ids=lambda k: k.value)
    def test_rows_in_range_keep_their_bits(self, kind):
        spec = NormSpec.vector(kind, 9, radius=0.7)
        s = self.unit_stack(9)
        s[1] *= 1e300
        s[3] *= 1e-300
        coef = -lmo_coefficient(spec)
        out, dual = lmo(s, spec), dual_norm(s, spec)
        for i in (0, 4):
            plain = np.sqrt(np.einsum("d,d->", s[i], s[i]))
            assert np.array_equal(out[i], (coef / plain) * s[i])
            assert dual[i] == dual_norm(s[i], spec)
        for i, row in enumerate(s):
            assert np.array_equal(out[i], lmo(row, spec))
            assert dual[i] == dual_norm(row, spec)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_non_finite_entry_rejected(self, kind, value):
        # in range or not, as the l2 kinds take their finiteness check from the guard
        # and the spectral kind from linalg, past the power-of-two scaling before it
        spec = make_spec(kind, 6, 1 if kind in VECTOR_KINDS else 4)
        operands = [random_operand(spec, 29)]
        if kind in VECTOR_KINDS:
            operands += [self.unit_stack(6), 1e300 * self.unit_stack(6)]
        elif kind in self.L2_MATRIX_KINDS:
            operands += [self.unit_matrix((6, 4)), 1e300 * self.unit_matrix((6, 4))]
        elif kind is NormKind.SPECTRAL:
            operands += [1e-300 * random_operand(spec, 29), 1e300 * random_operand(spec, 29)]
        model = ModelNormSpec((spec,))
        for s in operands:
            s.flat[1] = value
            for fn in (lmo, op_norm, dual_norm, sharp_op,
                       lambda s, spec: lmo(s, spec, ns_iters=5),
                       lambda s, spec: sharp_op(s, spec, ns_iters=5),
                       lambda s, spec: composite_norm([s], model)):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(s, spec)

    @pytest.mark.parametrize("kind", [NormKind.SIGN, NormKind.MAX_VEC], ids=lambda k: k.value)
    def test_inner_returns_a_non_finite_pairing(self, kind):
        # inner runs no oracle, so the harness checks can name a non-finite column
        spec = make_spec(kind, 6, 1 if kind in VECTOR_KINDS else 4)
        s = random_operand(spec, 29)
        s.flat[1] = np.inf
        assert not np.isfinite(inner([s], [s], ModelNormSpec((spec,))))
        with pytest.raises(ValueError, match="non-finite"):
            op_norm(s, spec)


class TestFwGap:
    def test_at_origin_is_scaled_dual(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2),)
        )
        g = np.array([3.0, 4.0])
        assert fw_gap([g], [np.zeros(2)], spec) == pytest.approx(5.0)

    def test_zero_grad(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2),)
        )
        assert fw_gap([np.zeros(2)], [np.ones(2)], spec) == 0.0

    def test_at_lmo_point_vanishes(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3, radius=2.0),)
        )
        g = np.array([1.0, -2.0, 2.0])
        x = lmo(g, spec.atoms[0])
        assert fw_gap([g], [x], spec) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_feasible_points(self):
        spec = ModelNormSpec(
            (
                NormSpec(NormKind.SPECTRAL, 1.5, 4, 3),
                NormSpec.vector(NormKind.RMS_VEC, 4),
            )
        )
        for trial in range(20):
            g = [rng_gaussian(4, 3, trial), rng_gaussian(4, 1, trial + 100)[:, 0]]
            x = model_lmo([rng_gaussian(4, 3, trial + 200),
                           rng_gaussian(4, 1, trial + 300)[:, 0]], spec)
            assert composite_norm(x, spec) <= 1.0 + 1e-9
            assert fw_gap(g, x, spec) >= -1e-10

    @pytest.mark.parametrize(
        "kind, shape", [(NormKind.SPECTRAL, (3, 2)), (NormKind.SIGN, (2, 3))],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_transposed_x_rejected(self, kind, shape):
        # flattened, a transposed x would pair the wrong entries
        spec = ModelNormSpec((NormSpec(kind, 1.0, *shape),))
        expected = re.escape(f"expected shape {shape}")
        with pytest.raises(ValueError, match=expected):
            fw_gap([np.ones(shape)], [np.zeros(shape[::-1])], spec)


class TestSpecValidation:
    def test_radius_positive(self):
        with pytest.raises(ValueError):
            NormSpec(NormKind.SIGN, 0.0, 2, 2)

    def test_vector_kind_needs_din_one(self):
        with pytest.raises(ValueError):
            NormSpec(NormKind.RMS_VEC, 1.0, 4, 2)

    def test_lmo_coefficient_matches_lmo_magnitude(self):
        for kind in ALL_KINDS:
            spec = make_spec(kind, 6, 3, radius=1.7)
            s = random_operand(spec, derive_seed(31, KIND_ID[kind]))
            out = lmo(s, spec)
            coeff = lmo_coefficient(spec)
            if kind in (NormKind.SIGN, NormKind.MAX_VEC):
                assert np.max(np.abs(out)) == pytest.approx(coeff)
            elif kind is NormKind.COL_NORM:
                assert np.linalg.norm(out[:, 0]) == pytest.approx(coeff)
            elif kind is NormKind.ROW_NORM:
                assert np.linalg.norm(out[0]) == pytest.approx(coeff)
            elif kind is NormKind.SPECTRAL:
                assert np.linalg.norm(out, 2) == pytest.approx(coeff)
            else:
                assert np.linalg.norm(out) == pytest.approx(coeff)


def random_low_rank(d_out, d_in, width, seed):
    return LowRank(rng_gaussian(d_out, width, seed), rng_gaussian(d_in, width, seed + 1))


def forbid_dense_svd(monkeypatch):
    """Make the dense spectral factorizations fail, so only the factored route works."""
    def refuse(*_):
        raise AssertionError("dense SVD on the factored route")

    monkeypatch.setattr(norms, "svd_reduced", refuse)
    monkeypatch.setattr(norms, "singular_values", refuse)


class TestLowRankOperand:
    # the last three have b >= min(m, n) / 2, and (5, 9) more factor columns than rows
    CASES = [((24, 24), 1), ((24, 24), 2), ((24, 24), 5), ((40, 12), 1), ((40, 12), 2),
             ((40, 12), 5), ((12, 40), 1), ((12, 40), 2), ((12, 40), 5), ((6, 30), 5),
             ((12, 12), 12), ((5, 9), 7)]

    @pytest.mark.parametrize("shape, width", CASES)
    def test_factored_lmo_matches_dense(self, monkeypatch, shape, width):
        spec = NormSpec(NormKind.SPECTRAL, 1.3, *shape)
        s = random_low_rank(*shape, width, seed=shape[0] + 10 * width)
        dense = s.dense()
        want, dual = lmo(dense, spec), dual_norm(dense, spec)
        forbid_dense_svd(monkeypatch)
        got = lmo(s, spec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert float(np.vdot(dense, got)) == pytest.approx(-spec.radius * dual, rel=1e-12)

    @pytest.mark.parametrize(
        "kind", [NormKind.SIGN, NormKind.COL_NORM, NormKind.ROW_NORM, NormKind.SPECTRAL]
    )
    def test_other_functions_take_the_product(self, kind):
        spec = NormSpec(kind, 0.5, 16, 12)
        s = random_low_rank(16, 12, 2, seed=7)
        for fn in (dual_norm, op_norm):
            assert fn(s, spec) == fn(s.dense(), spec)
        np.testing.assert_array_equal(sharp_op(s, spec), sharp_op(s.dense(), spec))
        if kind is not NormKind.SPECTRAL:
            np.testing.assert_array_equal(lmo(s, spec), lmo(s.dense(), spec))
        model, x = ModelNormSpec((spec,)), [rng_gaussian(16, 12, 8)]
        for fn in (fw_gap, inner):
            assert fn([s], x, model) == fn([s.dense()], x, model)

    def test_newton_schulz_takes_the_product(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 16, 12)
        s = random_low_rank(16, 12, 1, seed=7)
        for fn in (lmo, sharp_op):
            np.testing.assert_array_equal(fn(s, spec, ns_iters=5), fn(s.dense(), spec, ns_iters=5))

    def test_zero_and_cancelling_factors_map_to_zero(self, monkeypatch):
        forbid_dense_svd(monkeypatch)
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 10, 8)
        x, y = rng_gaussian(10, 1, 1), rng_gaussian(8, 1, 2)
        for s in (LowRank(np.zeros((10, 1)), y), LowRank(x, np.zeros((8, 1))),
                  LowRank(np.hstack([x, x]), np.hstack([y, -y]))):
            np.testing.assert_array_equal(lmo(s, spec), np.zeros((10, 8)))

    def test_bad_factors_rejected(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 10, 8)
        x, y = rng_gaussian(10, 1, 1), rng_gaussian(8, 1, 2)
        # the last two are refused when the LowRank is built, before any route runs
        bad = [
            (np.where(x > 0, np.nan, x), y),  # non-finite left factor
            (x, np.full((8, 1), np.inf)),  # non-finite right factor
            (x[:9], y),  # product (9, 8)
            (x, rng_gaussian(8, 2, 3)),  # column counts differ
            (x[:, 0], y),  # a 1-D factor
        ]
        for left, right in bad:
            for fn in (lmo, dual_norm, op_norm, sharp_op):
                with np.errstate(over="ignore"), pytest.raises(ValueError):
                    fn(LowRank(left, right), spec)
        # Finite factors with an overflowing product: the functions that form the
        # product reject it, while the lmo still takes its direction (TestSpectralRange).
        huge = LowRank(1e200 * x, 1e200 * y)
        for fn in (dual_norm, op_norm, sharp_op):
            with np.errstate(over="ignore"), pytest.raises(ValueError):
                fn(huge, spec)
        np.testing.assert_allclose(lmo(huge, spec), lmo(LowRank(x, y), spec), rtol=1e-14)
        with pytest.raises(ValueError, match="matrix kind"):
            lmo(LowRank(x, np.ones((1, 1))), NormSpec.vector(NormKind.EUCLIDEAN_VEC, 10))

    def test_factored_lmo_checks_each_factor_once(self, monkeypatch):
        # linalg alone checks a factored operand's factors: lowrank_svd takes each
        # through as_matrix once, and _operand only coerces them
        names = []
        as_matrix = linalg.as_matrix

        def counting(a, name="matrix"):
            names.append(name)
            return as_matrix(a, name)

        monkeypatch.setattr(linalg, "as_matrix", counting)
        forbid_dense_svd(monkeypatch)
        lmo(random_low_rank(10, 8, 2, seed=5), NormSpec(NormKind.SPECTRAL, 1.0, 10, 8))
        assert sorted(names) == ["left factor", "right factor"]

    @pytest.mark.parametrize(
        "kind", [NormKind.SIGN, NormKind.COL_NORM, NormKind.ROW_NORM, NormKind.SPECTRAL]
    )
    def test_factors_that_are_not_matrices_rejected_on_both_routes(self, kind):
        # a 1-D left factor whose product is a (5,) vector, and a 0-d left factor;
        # the LowRank refuses them when it is built, before any route runs
        spec = NormSpec(kind, 1.0, 3, 5)
        for left, right in ((np.ones(3), np.ones((5, 3))), (np.float64(1.0), np.ones((5, 1)))):
            for fn in (lmo, dual_norm, op_norm, sharp_op):
                with pytest.raises(ValueError, match="2-D"):
                    fn(LowRank(left, right), spec)
            with pytest.raises(ValueError, match="2-D"):  # the Newton-Schulz route
                lmo(LowRank(left, right), spec, ns_iters=5)

    EMPTY_FACTOR_ROUTES = {
        "lmo": lmo,
        "lmo_newton_schulz": lambda s, spec: lmo(s, spec, ns_iters=5),
        "op_norm": op_norm,
        "dual_norm": dual_norm,
        "sharp_op": sharp_op,
    }

    @pytest.mark.parametrize("route", sorted(EMPTY_FACTOR_ROUTES))
    def test_factors_without_columns_rejected_on_every_route(self, route):
        # their product would be the zero matrix; the LowRank refuses them by name
        # when it is built, before any route runs
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 3, 5)
        with pytest.raises(ValueError, match="left factor must be nonempty"):
            self.EMPTY_FACTOR_ROUTES[route](LowRank(np.zeros((3, 0)), np.zeros((5, 0))), spec)

    @pytest.mark.parametrize(
        "kind", [NormKind.SIGN, NormKind.COL_NORM, NormKind.ROW_NORM, NormKind.SPECTRAL]
    )
    def test_nested_list_factors_accepted_on_both_routes(self, kind):
        spec = NormSpec(kind, 0.5, 10, 8)
        s = random_low_rank(10, 8, 2, seed=6)
        nested = LowRank(s.left.tolist(), s.right.tolist())
        for fn in (lmo, sharp_op):
            np.testing.assert_array_equal(fn(nested, spec), fn(s, spec))
            if kind is NormKind.SPECTRAL:  # the dense route
                np.testing.assert_array_equal(fn(nested, spec, ns_iters=5),
                                              fn(s, spec, ns_iters=5))
        for fn in (dual_norm, op_norm):
            assert fn(nested, spec) == fn(s, spec)


class TestSpectralRange:
    """The exact spectral lmo scales a matrix, or each factor of a LowRank, by a power
    of two when its largest |entry| lies outside [2**-256, 2**256], so no SVD or QR
    overflows or underflows; the spectral op_norm and dual_norm scale the same
    matrices; every other operand keeps its bits."""

    SPEC = NormSpec(NormKind.SPECTRAL, 1.3, 4, 3)

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 1e300, 1e308, np.finfo(np.float64).max])
    def test_dense_constant_at_the_edge(self, value):
        # sigma = sqrt(12) * value overflows from 1e308 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(np.full((4, 3), value), self.SPEC)
        np.testing.assert_allclose(out, lmo(np.ones((4, 3)), self.SPEC), rtol=1e-14)

    @pytest.mark.parametrize("value", [1e-170, 1e-160, 1e154, 1e300])
    def test_factors_at_the_edge(self, monkeypatch, value):
        # the product overflows from 1e154 on and underflows from 1e-160 down
        forbid_dense_svd(monkeypatch)
        s = LowRank(np.full((4, 1), value), np.full((3, 1), value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lmo(s, self.SPEC)
        np.testing.assert_allclose(out, lmo(LowRank(np.ones((4, 1)), np.ones((3, 1))),
                                            self.SPEC), rtol=1e-14)

    @pytest.mark.parametrize("exponent", [-1000, -600, -257, 257, 600, 1020])
    def test_scaled_matrix_keeps_its_lmo(self, exponent):
        a = rng_gaussian(4, 3, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lmo(np.ldexp(a, exponent), self.SPEC)
        np.testing.assert_allclose(got, lmo(a, self.SPEC), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("exponent", [-1100, -600, -257, 257, 600, 1100, 2000])
    def test_scaled_factors_keep_their_lmo(self, monkeypatch, exponent):
        # the factors share the exponent, so the product is 2**exponent times f's
        f = random_low_rank(4, 3, 2, seed=32)
        want = lmo(f, self.SPEC)
        half = exponent // 2
        forbid_dense_svd(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lmo(LowRank(np.ldexp(f.left, half), np.ldexp(f.right, exponent - half)),
                      self.SPEC)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("exponent", [-255, 0, 255])
    def test_in_range_keeps_its_bits(self, exponent):
        coef = -lmo_coefficient(self.SPEC)
        a = np.ldexp(rng_gaussian(4, 3, 33), exponent)
        f = random_low_rank(4, 3, 2, seed=34)
        f = LowRank(np.ldexp(f.left, exponent), f.right)
        assert np.array_equal(lmo(a, self.SPEC), coef * svd_reduced(a).orthogonal_factor())
        assert np.array_equal(lmo(f, self.SPEC), coef * lowrank_svd(f).orthogonal_factor())
        c = np.sqrt(4 / 3)
        assert op_norm(a, self.SPEC) == sigma_max(a) / c
        assert dual_norm(a, self.SPEC) == c * np.sum(singular_values(a))


class TestSpectralZero:
    """linalg owns the spectral kind's zero convention: a zero matrix has rank 0 and
    an empty spectrum, so norms keeps no zero branch of its own, on any route."""

    SPEC = NormSpec(NormKind.SPECTRAL, 1.3, 5, 3)

    @pytest.mark.parametrize("operand", ["dense", "low_rank"])
    def test_zero_operand_gives_zero_on_every_route(self, operand):
        spec = self.SPEC
        if operand == "dense":
            s = np.zeros((5, 3))
        else:
            s = LowRank(np.zeros((5, 2)), np.zeros((3, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [fn(s, spec, ns_iters=n) for fn in (lmo, sharp_op) for n in (None, 5)]
            values = [op_norm(s, spec), dual_norm(s, spec)]
        for out in outs:
            # by value, so either sign of zero passes
            assert out.shape == (5, 3) and np.all(out == 0.0)
        assert values == [0.0, 0.0]


_REJECTIONS = {
    "no_atoms": (lambda: ModelNormSpec(()), "ModelNormSpec needs at least one atom"),
    # a kind given by its value rather than as the enum member, and atoms not NormSpecs
    "kind": (lambda: NormSpec("spectral", 1.0, 3, 2), "kind must be a NormKind, got 'spectral'"),
    "atoms": (lambda: ModelNormSpec((1, 2)), r"atoms must be NormSpecs, got \(1, 2\)"),
    "x_layout": (
        lambda: fw_gap([np.ones(3)], [], ModelNormSpec((NormSpec.vector(NormKind.RMS_VEC, 3),))),
        "parameter list has 0 entries but the norm spec has 1"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_rejection_names_its_field(case):
    call, message = _REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()
