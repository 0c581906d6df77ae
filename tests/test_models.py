import json
import warnings

import numpy as np
import pytest

from lmopt.linalg import derive_seed, rng_gaussian, rng_rademacher, semi_orthogonal_init
from lmopt.models import (
    _ACTIVATIONS,
    Activation,
    Domain,
    LayerSpec,
    MlpModel,
    backward,
    backward_factors,
    build_config,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
)
from lmopt.norms import NormKind, NormSpec, composite_norm, lmo_coefficient, op_norm
from lmopt.linalg import LowRank, svd_reduced

HIDDEN_ACTS = [Activation.RELU, Activation.SCALED_RELU2, Activation.SCALED_GELU, Activation.TANH]
FAMILIES = ["recommended", "spectral", "colnorm", "rownorm", "sign"]


def simple_model(dims, activation=Activation.TANH, family="recommended", seed=0,
                 domain=Domain.IMAGE):
    specs = build_config(domain, dims, family=family, activation=activation)
    return init_model(specs, seed)


class TestActivations:
    def test_scaled_relu2_value(self):
        value = _ACTIVATIONS[Activation.SCALED_RELU2][0]
        np.testing.assert_allclose(value(np.array([2.0])), [8.0])
        np.testing.assert_allclose(value(np.array([-2.0])), [0.0])

    def test_relu(self):
        value = _ACTIVATIONS[Activation.RELU][0]
        np.testing.assert_allclose(value(np.array([-1.0, 3.0])), [0.0, 3.0])

    @pytest.mark.parametrize("act", HIDDEN_ACTS)
    def test_zero_fixed_point(self, act):
        assert _ACTIVATIONS[act][0](np.array([0.0]))[0] == 0.0

    def test_table_holds_every_activation(self):
        assert set(_ACTIVATIONS) == set(Activation)
        for value, grad in _ACTIVATIONS.values():
            assert callable(value) and callable(grad)

    @pytest.mark.parametrize("act", ["relu", "RELU", None, [1]])
    def test_non_member_rejected(self, act):
        # LayerSpec is the one membership check: forward and backward index the table
        with pytest.raises(ValueError, match="activation must be an Activation"):
            LayerSpec(act, NormSpec(NormKind.SPECTRAL, 1.0, 3, 2))

    @pytest.mark.parametrize("act", list(_ACTIVATIONS))
    def test_grad_matches_finite_difference(self, act):
        x = np.linspace(-2.0, 2.0, 41) + 0.013  # avoid the relu kink
        h = 1e-6
        value, grad = _ACTIVATIONS[act]
        fd = (value(x + h) - value(x - h)) / (2 * h)
        np.testing.assert_allclose(grad(x), fd, atol=1e-8)

    def test_scaled_gelu_keeps_the_combined_formula_bits(self):
        # The value and the derivative are computed apart; each keeps the operation
        # order of the one formula that computed both, so every bit matches it.
        c, k = np.sqrt(2.0 / np.pi), 0.044715

        def combined(x):
            x2 = x * x
            t = np.tanh(c * (x + k * (x2 * x)))
            val = 0.5 * x * (1.0 + t)
            grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * k * x2)
            return np.sqrt(2.0) * val, np.sqrt(2.0) * grad

        x = np.concatenate([
            rng_gaussian(64, 64, 5).ravel() * 3.0,
            np.linspace(-40.0, 40.0, 4001),
            [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e100, -1e100, 1e300, -1e300],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            want = combined(x)
            value, grad = _ACTIVATIONS[Activation.SCALED_GELU]
            got = (value(x), grad(x))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestBuildConfig:
    def test_image_first_layer_scale_guard(self):
        specs = build_config(Domain.IMAGE, (3072, 128, 10))
        w1 = specs[0].weight_norm
        assert w1.kind is NormKind.SPECTRAL
        # the lmo's directional coefficient is max(1, sqrt(d_out / d_in)) = 1 here
        from lmopt.norms import lmo_coefficient

        assert lmo_coefficient(w1) == pytest.approx(1.0)
        assert w1.radius == pytest.approx(np.sqrt(3072 / 128))

    def test_image_first_layer_no_guard_needed(self):
        specs = build_config(Domain.IMAGE, (32, 128, 10))
        from lmopt.norms import lmo_coefficient

        assert specs[0].weight_norm.radius == pytest.approx(1.0)
        assert lmo_coefficient(specs[0].weight_norm) == pytest.approx(np.sqrt(128 / 32))

    def test_one_hot_first_layer(self):
        specs = build_config(Domain.ONE_HOT, (64, 256, 64))
        w1 = specs[0].weight_norm
        assert w1.kind is NormKind.COL_NORM
        from lmopt.norms import lmo_coefficient

        assert lmo_coefficient(w1) == pytest.approx(16.0)

    def test_sign_last_layer_scale(self):
        specs = build_config(Domain.ONE_HOT, (64, 256, 64))
        assert specs[-1].weight_norm.kind is NormKind.SIGN
        assert specs[-1].weight_norm.radius == pytest.approx(1.0 / 256)

    def test_weight_shared_uses_sign_both_ends(self):
        specs = build_config(Domain.WEIGHT_SHARED, (64, 128, 64))
        assert specs[0].weight_norm.kind is NormKind.SIGN
        assert specs[-1].weight_norm.kind is NormKind.SIGN

    def test_last_layer_is_identity_no_bias(self):
        specs = build_config(Domain.IMAGE, (8, 16, 4), with_bias=True)
        assert specs[-1].activation is Activation.IDENTITY
        assert specs[-1].bias_norm is None
        assert specs[0].bias_norm is not None

    @pytest.mark.parametrize("family", ["spectral", "colnorm", "rownorm", "sign"])
    def test_same_norm_families_boundary(self, family):
        for domain in (Domain.IMAGE, Domain.ONE_HOT):
            specs = build_config(domain, (12, 24, 6), family=family)
            model = init_model(specs, seed=3)
            spec = model.norm_spec()
            assert composite_norm(model.parameters(), spec) == pytest.approx(1.0, abs=1e-8)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            build_config(Domain.IMAGE, (10,))
        with pytest.raises(ValueError):
            build_config(Domain.IMAGE, (10, 0, 4))


def _unit_draw(kind: NormKind, d_out: int, d_in: int, seed: int) -> np.ndarray:
    """The documented unit-boundary draw for each weight kind."""
    if kind is NormKind.SPECTRAL:
        return semi_orthogonal_init(d_out, d_in, seed)
    if kind is NormKind.COL_NORM:
        g = rng_gaussian(d_out, d_in, seed)
        return g / np.linalg.norm(g, axis=0)
    if kind is NormKind.ROW_NORM:
        g = rng_gaussian(d_out, d_in, seed)
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    assert kind is NormKind.SIGN
    return rng_rademacher(d_out, d_in, seed)


class TestInitModel:
    @pytest.mark.parametrize("with_bias", [False, True], ids=["nobias", "bias"])
    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_is_the_kinds_draw_scaled(self, family, domain, with_bias):
        specs = build_config(domain, (12, 24, 16, 6), family=family, with_bias=with_bias)
        model = init_model(specs, 9)
        for idx, (ls, w, b) in enumerate(zip(specs, model.weights, model.biases)):
            spec = ls.weight_norm
            want = lmo_coefficient(spec) * _unit_draw(
                spec.kind, spec.d_out, spec.d_in, derive_seed(9, idx)
            )
            assert np.array_equal(w, want)
            if ls.bias_norm is None:
                assert b is None
            else:
                assert np.array_equal(b, np.zeros(spec.d_out))

    def test_coefficient_past_the_range_keeps_a_finite_init(self):
        # radius * c = 2**1024 passes float64's range, as the lmo's coefficient does,
        # but every entry of the init (a unit entry below 1/2, times 2**1024) does not.
        spec = NormSpec(NormKind.SPECTRAL, 2.0**1023, 64, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = init_model([LayerSpec(Activation.IDENTITY, spec)], 3).weights[0]
        unit = semi_orthogonal_init(64, 16, derive_seed(3, 0))
        assert np.max(np.abs(unit)) < 0.5
        assert np.array_equal(w, np.ldexp(unit, 1024))
        assert op_norm(w, spec) == pytest.approx(spec.radius, rel=1e-12)

    def test_semi_orthogonal_square_boundary(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 128, 128)
        ls = LayerSpec(Activation.IDENTITY, spec)
        model = init_model([ls], 0)
        assert op_norm(model.weights[0], spec) == pytest.approx(1.0, abs=1e-8)

    def test_random_sign_scaled_exactly(self):
        d_in = 32
        spec = NormSpec(NormKind.SIGN, 1.0 / d_in, 4, d_in)
        ls = LayerSpec(Activation.IDENTITY, spec)
        model = init_model([ls], 1)
        assert np.max(np.abs(model.weights[0])) == 1.0 / d_in
        assert np.min(np.abs(model.weights[0])) == 1.0 / d_in

    def test_col_normalized_column_norms(self):
        spec = NormSpec(NormKind.COL_NORM, 1.0, 64, 5)
        ls = LayerSpec(Activation.IDENTITY, spec)
        model = init_model([ls], 2)
        norms = np.linalg.norm(model.weights[0], axis=0)
        np.testing.assert_allclose(norms, 8.0, atol=1e-10)

    def test_boundary_init_composite_one(self):
        for seed in range(3):
            model = simple_model((20, 40, 40, 5), seed=seed)
            assert composite_norm(model.parameters(), model.norm_spec()) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_deterministic(self):
        a = simple_model((8, 12, 3), seed=5)
        b = simple_model((8, 12, 3), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestForward:
    def test_identity_single_layer(self):
        spec = NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)
        ls = LayerSpec(Activation.IDENTITY, spec)
        model = init_model([ls], 0)
        model.weights[0] = np.eye(2)
        logits, _ = forward(model, np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(logits[:, 0], [1.0, -1.0])

    def test_two_layer_relu(self):
        specs = [
            LayerSpec(Activation.RELU, NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)),
            LayerSpec(Activation.IDENTITY, NormSpec(NormKind.SPECTRAL, 1.0, 2, 2)),
        ]
        model = init_model(specs, 0)
        model.weights[0] = np.eye(2)
        model.weights[1] = np.eye(2)
        logits, cache = forward(model, np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(logits[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(cache.posts[0][:, 0], [1.0, 0.0])

    def test_batch_shape(self):
        model = simple_model((6, 10, 3))
        logits, cache = forward(model, rng_gaussian(6, 7, 0))
        assert logits.shape == (3, 7)
        assert cache.preacts[0].shape == (10, 7)

    def test_length_mismatch(self):
        model = simple_model((6, 10, 3))
        with pytest.raises(ValueError):
            forward(model, np.zeros((5, 1)))

    def test_inputs_must_be_a_batch(self):
        # A single sample is a batch of one column; a 1-D input is rejected.
        model = simple_model((6, 10, 3))
        with pytest.raises(ValueError, match=r"\(6, batch\) array, got shape \(6,\)"):
            forward(model, np.zeros(6))
        with pytest.raises(ValueError, match=r"\(6, batch\) array"):
            loss_and_grad(model, np.zeros(6), np.array([0]))
        _, cache = forward(model, np.zeros((6, 1)))
        with pytest.raises(ValueError, match="does not match logits"):
            backward_factors(model, cache, np.zeros(3))

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.RELU],
                             ids=lambda a: a.value)
    def test_hidden_state_rms_bounded(self, act):
        # feasible spectral chain + 1-Lipschitz activations with act(0)=0 keeps
        # every hidden RMS norm below the input's
        for trial in range(100):
            dims = (8, 16, 16, 4)
            model = simple_model(dims, activation=act, family="spectral", seed=trial)
            assert composite_norm(model.parameters(), model.norm_spec()) <= 1.0 + 1e-9
            z = rng_gaussian(8, 1, derive_seed(1000, trial))
            z *= np.sqrt(8) / np.linalg.norm(z)  # rms exactly 1
            _, cache = forward(model, z)
            for f in cache.preacts:
                rms = np.linalg.norm(f[:, 0]) / np.sqrt(f.shape[0])
                assert rms <= 1.0 + 1e-8


class TestBackward:
    def test_single_sample_gradients_are_rank_one(self):
        model = simple_model((8, 12, 12, 3), activation=Activation.TANH, seed=1)
        z = rng_gaussian(8, 1, 4)
        _, grads = loss_and_grad(model, z, np.array([2]))
        for g in grads:
            res = svd_reduced(g)
            assert res.sigma.size == 1 or res.sigma[1] / res.sigma[0] <= 1e-10

    def test_backward_is_the_dense_product_of_its_factors(self):
        specs = build_config(Domain.IMAGE, (6, 8, 8, 3), activation=Activation.TANH,
                             with_bias=True)
        model = init_model(specs, 3)
        z = rng_gaussian(6, 4, 7)
        _, cache = forward(model, z)
        dlogits = rng_gaussian(3, 4, 8)
        factored = backward_factors(model, cache, dlogits)
        dense = backward(model, cache, dlogits)
        assert len(factored) == len(dense) == len(model.parameters())
        for f, g, p in zip(factored, dense, model.parameters()):
            if p.ndim == 2:
                assert isinstance(f, LowRank) and f.left.shape[1] == f.right.shape[1] == 4
                f = f.dense()
            np.testing.assert_array_equal(f, g)

    @staticmethod
    def reference_loss_and_grad(model, z, labels):
        """loss_and_grad with a fresh array for every product: it takes
        np.exp(shifted) twice, and each layer's delta is formed out of place."""
        logits, cache = forward(model, z)
        batch = z.shape[1]
        shifted = logits - logits.max(axis=0, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=0))
        value = float(np.mean(logz - shifted[labels, np.arange(batch)]))
        soft = np.exp(shifted) / np.exp(logz)
        soft[labels, np.arange(batch)] -= 1.0
        delta = soft / batch
        grads_rev = []
        for idx in range(model.depth - 1, -1, -1):
            h_prev = cache.inputs if idx == 0 else cache.posts[idx - 1]
            if model.layers[idx].bias_norm is not None:
                grads_rev.append(delta.sum(axis=1))
            grads_rev.append(delta @ h_prev.T)
            if idx > 0:
                grad = _ACTIVATIONS[model.layers[idx - 1].activation][1]
                delta = (model.weights[idx].T @ delta) * grad(cache.preacts[idx - 1])
        return value, grads_rev[::-1]

    @pytest.mark.parametrize("act", list(Activation), ids=lambda a: a.value)
    def test_bit_identical_to_out_of_place_reference(self, act):
        specs = build_config(Domain.IMAGE, (6, 9, 7, 3), activation=act, with_bias=True)
        model = init_model(specs, 5)
        for b in model.biases[:-1]:
            b += 0.1 * rng_gaussian(b.size, 1, 6)[:, 0]
        z = rng_gaussian(6, 11, 7)
        labels = np.arange(11) % 3
        value, grads = loss_and_grad(model, z, labels)
        want_value, want = self.reference_loss_and_grad(model, z, labels)
        assert value == want_value
        assert len(grads) == len(want)
        for g, w in zip(grads, want):
            assert np.array_equal(g, w)

    def test_zero_loss_gradient_gives_zero_grads(self):
        model = simple_model((4, 6, 2), seed=2)
        z = rng_gaussian(4, 3, 6)
        _, cache = forward(model, z)
        grads = backward(model, cache, np.zeros((2, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference_with_biases(self):
        # bias support is a config flag: RMS-ball bias atoms join the parameter list
        specs = build_config(Domain.IMAGE, (6, 8, 3), activation=Activation.TANH,
                             with_bias=True)
        model = init_model(specs, 11)
        for b in model.biases[:-1]:
            b += 0.05 * rng_gaussian(b.size, 1, 12)[:, 0]  # move off the zero init
        z = 0.5 * rng_gaussian(6, 3, 13)
        y = np.array([2, 0, 1])
        _, grads = loss_and_grad(model, z, y)
        assert len(grads) == 3  # W1, b1, W2
        params = model.parameters()
        for p_idx, p in enumerate(params):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                h = 1e-6 * max(1.0, abs(orig))
                p[idx] = orig + h
                up, _ = loss_and_grad(model, z, y)
                p[idx] = orig - h
                dn, _ = loss_and_grad(model, z, y)
                p[idx] = orig
                fd[idx] = (up - dn) / (2 * h)
                it.iternext()
            scale = max(1.0, float(np.max(np.abs(grads[p_idx]))))
            assert float(np.max(np.abs(grads[p_idx] - fd))) / scale <= 1e-5

    def test_biased_model_trains_with_rms_ball_atoms(self):
        from lmopt.experiments import train_classifier
        from lmopt.optim import Algo, ScheduleSpec
        from lmopt.problems import SyntheticClassification, gen_synthetic

        prob = SyntheticClassification(dim=6, classes=3, train_size=48, test_size=0,
                                       seed=5)
        tx, ty, _, _ = gen_synthetic(prob)
        specs = build_config(Domain.IMAGE, (6, 8, 3), with_bias=True)
        model = init_model(specs, 1)
        sch = ScheduleSpec(horizon=20, gamma0=0.1, alpha0=0.3)
        model, diags = train_classifier(model, tx, ty, Algo.SCG, sch, batch_size=24)
        assert all(diags.feasible)
        assert np.any(model.biases[0] != 0.0)  # bias actually moved

    @pytest.mark.parametrize("act", HIDDEN_ACTS, ids=lambda a: a.value)
    def test_finite_difference_oracle(self, act):
        model = simple_model((8, 8, 4, 2), activation=act, seed=7)
        z = 0.5 * rng_gaussian(8, 3, 8)
        targets = np.array([0, 1, 0])
        _, grads = loss_and_grad(model, z, targets)
        params = model.parameters()
        max_rel = 0.0
        for p_idx, p in enumerate(params):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                h = 1e-6 * max(1.0, abs(orig))
                p[idx] = orig + h
                up, _ = loss_and_grad(model, z, targets)
                p[idx] = orig - h
                dn, _ = loss_and_grad(model, z, targets)
                p[idx] = orig
                fd[idx] = (up - dn) / (2 * h)
                it.iternext()
            scale = max(1.0, float(np.max(np.abs(grads[p_idx]))))
            max_rel = max(max_rel, float(np.max(np.abs(grads[p_idx] - fd))) / scale)
        assert max_rel <= 1e-5


class TestLosses:
    def test_logistic_uniform_logits(self):
        model = simple_model((4, 6, 2), seed=4)
        model.weights[-1] = np.zeros_like(model.weights[-1])  # logits all zero
        z = rng_gaussian(4, 6, 11)
        value, _ = loss_and_grad(model, z, np.zeros(6, dtype=int))
        assert value == pytest.approx(np.log(2.0))

    def test_batch_duplication_invariance(self):
        model = simple_model((5, 8, 3), seed=5)
        z = rng_gaussian(5, 4, 12)
        y = np.array([0, 2, 1, 1])
        v1, g1 = loss_and_grad(model, z, y)
        z2 = np.concatenate([z, z], axis=1)
        y2 = np.concatenate([y, y])
        v2, g2 = loss_and_grad(model, z2, y2)
        assert v1 == pytest.approx(v2)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_label_out_of_range(self):
        model = simple_model((5, 8, 3), seed=5)
        z = rng_gaussian(5, 2, 13)
        with pytest.raises(ValueError):
            loss_and_grad(model, z, np.array([0, 3]))


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        model = simple_model((6, 12, 4), activation=Activation.SCALED_GELU, seed=6,
                             domain=Domain.ONE_HOT)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layers == model.layers
        for a, b in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(a, b)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_model(str(path))


    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "not a model checkpoint: a JSON list"),
        ('"lmopt-checkpoint"', "not a model checkpoint: a JSON str"),
    ])
    def test_non_object_document_rejected(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("key", ["layers", "weights", "biases"])
    @pytest.mark.parametrize("value", [None, 5, "abc", {}],
                             ids=["missing", "int", "str", "object"])
    def test_missing_or_bad_top_level_key_named(self, tmp_path, key, value):
        _, path, doc = self.saved_doc(tmp_path)
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"checkpoint has no '{key}' list"):
            load_model(str(path))

    def saved_doc(self, tmp_path):
        model = simple_model((4, 6, 3), seed=2)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        return model, path, json.loads(path.read_text())

    def test_version_2_layer_is_activation_and_norms(self, tmp_path):
        _, _, doc = self.saved_doc(tmp_path)
        assert doc["version"] == 2
        for layer in doc["layers"]:
            assert set(layer) == {"activation", "weight_norm", "bias_norm"}

    def test_hand_written_version_1_doc_loads(self, tmp_path):
        # Version 1 also stored each layer's dimensions and init scheme; only the
        # activation and the norm docs are read.
        doc = {
            "format": "lmopt-checkpoint",
            "version": 1,
            "layers": [
                {"d_in": 2, "d_out": 3, "activation": "relu", "init": "semi_orthogonal",
                 "weight_norm": {"kind": "spectral", "radius": 1.0, "d_out": 3, "d_in": 2},
                 "bias_norm": {"kind": "rms_vec", "radius": 1.0, "d_out": 3, "d_in": 1}},
                {"d_in": 3, "d_out": 1, "activation": "identity", "init": "random_sign",
                 "weight_norm": {"kind": "sign", "radius": 0.5, "d_out": 1, "d_in": 3},
                 "bias_norm": None},
            ],
            "weights": [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [[0.5, -0.5, 0.5]]],
            "biases": [[0.1, 0.2, 0.3], None],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        model = load_model(str(path))
        assert model.layers == (
            LayerSpec(Activation.RELU, NormSpec(NormKind.SPECTRAL, 1.0, 3, 2),
                      NormSpec.vector(NormKind.RMS_VEC, 3)),
            LayerSpec(Activation.IDENTITY, NormSpec(NormKind.SIGN, 0.5, 1, 3)),
        )
        logits, _ = forward(model, np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(logits[:, 0], [0.5 * 1.1 + 0.5 * 0.3])  # relu zeroes -0.8

    def test_wrong_weight_shape_names_layer_and_field(self, tmp_path):
        _, path, doc = self.saved_doc(tmp_path)
        doc["weights"][0] = [[1.0, 2.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"layer 0: weights has shape \(1, 2\)"):
            load_model(str(path))

    def test_wrong_bias_shape_names_layer_and_field(self, tmp_path):
        _, path, doc = self.saved_doc(tmp_path)
        doc["biases"][0] = [0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"layer 0: biases has shape \(2,\)"):
            load_model(str(path))

    @pytest.mark.parametrize("field", ["weights", "biases"])
    @pytest.mark.parametrize("entry", [{}, "abc"], ids=["object", "string"])
    def test_malformed_entry_named(self, tmp_path, field, entry):
        _, path, doc = self.saved_doc(tmp_path)
        doc[field][1] = entry
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"checkpoint {field}\[1\] is not an array"):
            load_model(str(path))

    @pytest.mark.parametrize("field", ["activation", "weight_norm", "bias_norm"])
    def test_missing_layer_field_named(self, tmp_path, field):
        _, path, doc = self.saved_doc(tmp_path)
        del doc["layers"][1][field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"checkpoint layer 1 has no '{field}' field"):
            load_model(str(path))

    def test_bad_layer_value_names_layer(self, tmp_path):
        _, path, doc = self.saved_doc(tmp_path)
        doc["layers"][0]["weight_norm"]["kind"] = "euclidean_vec"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint layer 0: .*requires d_in = 1"):
            load_model(str(path))


class TestModelValidation:
    def test_dims_must_chain(self):
        specs = [
            LayerSpec(Activation.RELU, NormSpec(NormKind.SPECTRAL, 1.0, 6, 4)),
            LayerSpec(Activation.IDENTITY, NormSpec(NormKind.SPECTRAL, 1.0, 2, 5)),
        ]
        with pytest.raises(ValueError, match="chain"):
            init_model(specs, 0)

    def test_last_layer_must_be_identity(self):
        specs = [
            LayerSpec(Activation.RELU, NormSpec(NormKind.SPECTRAL, 1.0, 2, 4)),
        ]
        with pytest.raises(ValueError, match="identity"):
            init_model(specs, 0)

    @pytest.mark.parametrize(
        "index, bad, message",
        [
            (0, np.zeros((1, 2)), r"layer 0: weights has shape \(1, 2\), expected \(6, 4\)"),
            (1, np.zeros(5), r"layer 0: biases has shape \(5,\), expected \(6,\)"),
            (2, np.zeros((6, 3)), r"layer 1: weights has shape \(6, 3\), expected \(3, 6\)"),
        ],
        ids=["first_weight", "first_bias", "last_weight"],
    )
    def test_set_parameters_checks_every_shape(self, index, bad, message):
        specs = build_config(Domain.IMAGE, (4, 6, 3), with_bias=True)
        model = init_model(specs, 0)
        before = [p.copy() for p in model.parameters()]
        params = list(model.parameters())
        params[index] = bad
        with pytest.raises(ValueError, match=message):
            model.set_parameters(params)
        for got, want in zip(model.parameters(), before, strict=True):
            np.testing.assert_array_equal(got, want)


def _layer(d_out, d_in, activation=Activation.IDENTITY, bias=False):
    return LayerSpec(activation, NormSpec(NormKind.SPECTRAL, 1.0, d_out, d_in),
                     NormSpec.vector(NormKind.RMS_VEC, d_out) if bias else None)


def _write_checkpoint(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


_REJECTIONS = {
    # an activation given by its value rather than as the enum member
    "activation": (
        lambda _: LayerSpec("relu", NormSpec(NormKind.SPECTRAL, 1.0, 3, 2)),
        "activation must be an Activation, got 'relu'"),
    "vector_weight_norm": (
        lambda _: LayerSpec(Activation.RELU, NormSpec.vector(NormKind.RMS_VEC, 3)),
        "weight_norm must be a matrix norm"),
    "bias_norm_length": (
        lambda _: LayerSpec(Activation.RELU, NormSpec(NormKind.SPECTRAL, 1.0, 3, 2),
                            NormSpec.vector(NormKind.RMS_VEC, 4)),
        "bias_norm must be a vector norm of length d_out"),
    "no_layers": (lambda _: MlpModel((), [], []), "model needs at least one layer"),
    "weights_misaligned": (
        lambda _: MlpModel((_layer(2, 3),), [], [None]), "weights/biases must align with layers"),
    "last_layer_bias": (
        lambda _: MlpModel((_layer(2, 3, bias=True),), [np.zeros((2, 3))], [np.zeros(2)]),
        "last layer carries no bias"),
    "parameter_count": (
        lambda _: simple_model((4, 3, 2)).set_parameters([np.zeros((3, 4))]),
        "expected 2 parameter arrays, got 1"),
    "config_family": (
        lambda _: build_config(Domain.IMAGE, (4, 3, 2), family="dense"),
        "unknown config family 'dense'"),
    "empty_batch": (
        lambda _: loss_and_grad(simple_model((4, 3, 2)), np.zeros((4, 0)), np.zeros(0, int)),
        "batch must be nonempty"),
    "label_count": (
        lambda _: loss_and_grad(simple_model((4, 3, 2)), np.zeros((4, 2)), [0, 1, 0]),
        r"labels must be one integer per sample, got shape \(3,\)"),
    "checkpoint_version": (
        lambda tmp_path: load_model(_write_checkpoint(tmp_path, {
            "format": "lmopt-checkpoint", "version": 3, "layers": [], "weights": [],
            "biases": []})),
        "unsupported checkpoint version 3"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_rejection_names_its_field(tmp_path, case):
    call, message = _REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
