import tracemalloc
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
import pytest

from lmopt import experiments
from lmopt.experiments import (
    FEASIBLE_TOL,
    NumericalFailure,
    RunDiagnostics,
    apply_step,
    coordinate_check,
    coordinate_check_ratios,
    error_decay_probe,
    lr_transfer_sweep,
    quadratic_norm_spec,
    rate_harness,
    train_classifier,
    train_quadratic,
)
from lmopt.linalg import derive_seed, rng_gaussian
from lmopt.models import (
    Activation,
    Domain,
    LayerSpec,
    MlpModel,
    backward,
    build_config,
    init_model,
    loss_and_grad,
)
from lmopt.norms import NormKind, NormSpec, composite_norm, dual_norm, fw_gap
from lmopt.optim import (
    Algo,
    AlphaKind,
    GammaKind,
    OptimizerState,
    ScheduleSpec,
    alpha_at,
    gamma_at,
    rule_for,
    theory_gamma,
)
from lmopt.problems import (
    StochasticQuadratic,
    SyntheticClassification,
    gen_synthetic,
    load_idx,
    load_idx_dataset,
)


def small_quadratic(noise=0.5, seed=0, dim=8):
    return StochasticQuadratic(dim=dim, noise=noise, conditioning=5.0, seed=seed)


class TestProblems:
    def test_quadratic_curvature(self):
        prob = small_quadratic()
        ev = prob.eigenvalues()
        assert ev.max() == pytest.approx(1.0)
        assert ev.min() == pytest.approx(1.0 / 5.0)
        x = np.ones(8)
        np.testing.assert_allclose(prob.grad(x), ev)
        assert prob.loss(x) == pytest.approx(0.5 * ev.sum())

    def test_noise_level_calibrated(self):
        prob = small_quadratic(noise=0.7, dim=16)
        x = np.zeros(16)
        sqs = [
            float(np.sum(prob.noisy_grad(x, 0, k) ** 2)) for k in range(1, 4001)
        ]
        assert np.mean(sqs) == pytest.approx(0.49, rel=0.1)

    def test_noise_stream_deterministic(self):
        prob = small_quadratic(noise=1.0)
        x = np.ones(8)
        a = prob.noisy_grad(x, trial=3, step=7)
        b = prob.noisy_grad(x, trial=3, step=7)
        np.testing.assert_array_equal(a, b)
        c = prob.noisy_grad(x, trial=4, step=7)
        assert np.any(a != c)

    def test_eigenvalues_computed_once_and_read_only(self):
        prob = small_quadratic()
        ev = prob.eigenvalues()
        assert ev is prob.eigenvalues()
        np.testing.assert_array_equal(ev, np.logspace(-np.log10(5.0), 0.0, 8))
        with pytest.raises(ValueError):
            ev[0] = 2.0
        assert prob == small_quadratic() and hash(prob) == hash(small_quadratic())
        with pytest.raises(AttributeError):
            prob.dim = 9

    @pytest.mark.parametrize(
        "cls, kw, field",
        [
            (StochasticQuadratic, dict(dim=0), "dim"),
            (StochasticQuadratic, dict(dim=4, noise=-1.0), "noise"),
            (StochasticQuadratic, dict(dim=4, noise=np.nan), "noise"),
            (StochasticQuadratic, dict(dim=4, noise=np.inf), "noise"),
            (StochasticQuadratic, dict(dim=4, conditioning=0.5), "conditioning"),
            (StochasticQuadratic, dict(dim=4, conditioning=np.inf), "conditioning"),
            (StochasticQuadratic, dict(dim=4, conditioning=np.nan), "conditioning"),
            (SyntheticClassification, dict(dim=4, noise=-1.0), "noise"),
            (SyntheticClassification, dict(dim=4, noise=np.nan), "noise"),
            (SyntheticClassification, dict(dim=4, noise=np.inf), "noise"),
        ],
    )
    def test_constructor_rejects_bad_settings(self, cls, kw, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=field):
                cls(**kw)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_stacked_noise_and_starts_match_per_trial_draws(self, seed):
        prob = StochasticQuadratic(dim=32, noise=0.7, conditioning=10.0, seed=seed)
        trials = [0, 3, 1, 17]
        starts = prob.start_point(trials, scale=1.5)
        noise = prob.noisy_grad(np.zeros((4, 32)), trials, 9)
        assert starts.shape == noise.shape == (4, 32)
        for i, t in enumerate(trials):
            assert np.array_equal(starts[i], prob.start_point(t, scale=1.5))
            v = rng_gaussian(32, 1, derive_seed(seed, t, 0))[:, 0]
            length = np.linalg.norm(v, axis=-1, keepdims=True)
            assert np.array_equal(starts[i], 1.5 * v / length)
            eps = rng_gaussian(32, 1, derive_seed(seed, t, 9))[:, 0]
            assert np.array_equal(noise[i], (0.7 / np.sqrt(32)) * eps)
            assert np.array_equal(noise[i], prob.noisy_grad(np.zeros(32), t, 9))

    def test_start_near_the_largest_radius_fits(self):
        # At scale 1e308, scale * v overflows on some rows of the stack, though every
        # start fits in float64; the other rows keep the bits of (scale * v) / ||v||.
        prob = StochasticQuadratic(dim=4, noise=0.7, conditioning=10.0, seed=0)
        trials = list(range(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            starts = prob.start_point(trials, scale=1e308)
        np.testing.assert_allclose(np.linalg.norm(starts / 1e308, axis=1), 1.0, rtol=1e-15)
        overflowed = 0
        for i, t in enumerate(trials):
            assert np.array_equal(starts[i], prob.start_point(t, scale=1e308))
            v = rng_gaussian(4, 1, derive_seed(0, t, 0))[:, 0]
            with np.errstate(over="ignore"):
                scaled = 1e308 * v
            if np.isfinite(scaled).all():
                assert np.array_equal(starts[i], scaled / np.linalg.norm(v))
            else:
                overflowed += 1
        assert 0 < overflowed < len(trials)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_step_noise_rows_equal_per_step_noisy_grad(self, seed):
        prob = StochasticQuadratic(dim=32, noise=0.7, conditioning=10.0, seed=seed)
        trials = [0, 3, 1, 17]
        x = prob.start_point(trials)
        block = prob.step_noise(trials, 5, 70)
        single = prob.step_noise(3, 5, 70)
        assert block.shape == (65, 4, 32) and single.shape == (65, 32)
        for k in range(5, 70):
            g = prob.grad(x)
            assert np.array_equal(g + block[k - 5], prob.noisy_grad(x, trials, k))
            assert np.array_equal(single[k - 5], block[k - 5, 1])
            assert np.array_equal(g[1] + single[k - 5], prob.noisy_grad(x[1], 3, k))

    def test_stacked_loss_and_grad_match_rows(self):
        prob = small_quadratic(noise=1.0)
        x = prob.start_point(range(3))
        losses = prob.loss(x)
        for i in range(3):
            assert losses[i] == prob.loss(x[i])
            assert np.array_equal(prob.grad(x)[i], prob.grad(x[i]))

    def test_stack_needs_one_trial_per_row(self):
        prob = small_quadratic(noise=1.0)
        with pytest.raises(ValueError, match="one trial index per row"):
            prob.noisy_grad(np.zeros((3, 8)), [0, 1], 1)

    def test_gen_synthetic_deterministic(self):
        spec = SyntheticClassification(dim=32, classes=4, seed=7)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_gen_synthetic_rms_bounded(self):
        spec = SyntheticClassification(dim=16, classes=3, noise=2.0, seed=1)
        train_x, train_y, test_x, _ = gen_synthetic(spec)
        for x in (train_x, test_x):
            rms = np.linalg.norm(x, axis=0) / np.sqrt(16)
            assert np.all(rms <= 1.0 + 1e-12)
        assert train_x.shape == (16, 512)
        assert set(train_y) <= set(range(3))

    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.0, 2.0, 1e100])
    def test_gen_synthetic_equals_unscaled_build(self, noise):
        # x is built at a power-of-two scale that the rescale cancels exactly, so the
        # features equal the plain build's wherever that one stays finite
        spec = SyntheticClassification(dim=16, classes=3, noise=noise, seed=1)
        k = np.arange(spec.train_size + spec.test_size)
        centers = rng_gaussian(16, 3 * spec.clusters, derive_seed(1, 0))
        x = centers[:, (k % 3) * spec.clusters + (k // 3) % spec.clusters]
        x = x + noise * rng_gaussian(16, len(k), derive_seed(1, 1))
        x = x / max(float((np.linalg.norm(x, axis=0) / 4.0).max()), 1e-12)
        train_x, _, test_x, _ = gen_synthetic(spec)
        assert np.array_equal(np.concatenate([train_x, test_x], axis=1), x)

    @pytest.mark.parametrize("noise", [1e160, 1e300, np.finfo(float).max])
    def test_gen_synthetic_huge_noise_stays_finite(self, noise):
        spec = SyntheticClassification(dim=16, classes=3, noise=noise, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_x, _, test_x, _ = gen_synthetic(spec)
        rms = np.linalg.norm(np.concatenate([train_x, test_x], axis=1), axis=0) / 4.0
        assert np.all(rms > 0) and np.all(rms <= 1.0 + 1e-12)
        assert rms.max() == pytest.approx(1.0, abs=1e-12)


class TestIdxLoader:
    def _write_images(self, path, arr):
        import struct

        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, *arr.shape))
            fh.write(arr.astype(np.uint8).tobytes())

    def _write_labels(self, path, labels):
        import struct

        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, len(labels)))
            fh.write(bytes(labels))

    def test_roundtrip(self, tmp_path):
        arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        img_path = str(tmp_path / "img.idx")
        lab_path = str(tmp_path / "lab.idx")
        self._write_images(img_path, arr)
        self._write_labels(lab_path, [1, 0])
        np.testing.assert_array_equal(load_idx(img_path), arr)
        x, y = load_idx_dataset(img_path, lab_path)
        assert x.shape == (12, 2)
        assert np.all(np.abs(x) <= 1.0)
        np.testing.assert_array_equal(y, [1, 0])

    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x0b\x01" + b"\x00" * 8)
        with pytest.raises(ValueError, match="bad IDX magic 0x00000B01"):
            load_idx(str(path))

    def test_truncated_file_offset(self, tmp_path):
        import struct

        path = tmp_path / "trunc.idx"
        # promises 2x3x4 = 24 bytes of pixels but holds only 10
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 4) + b"\x00" * 10)
        with pytest.raises(ValueError, match="unexpected end of file at offset 26"):
            load_idx(str(path))

    def test_header_product_past_int64_is_truncation(self, tmp_path):
        import struct

        path = tmp_path / "huge.idx"
        # promises 2**31 * 2**31 * 4 = 2**64 bytes, a product that wraps to 0 in int64
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4) + b"\x00" * 10)
        with pytest.raises(ValueError, match="unexpected end of file at offset 26"):
            load_idx(str(path))

    def test_label_image_count_mismatch(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path = str(tmp_path / "img.idx")
        lab_path = str(tmp_path / "lab.idx")
        self._write_images(img_path, arr)
        self._write_labels(lab_path, [1, 0, 1])
        with pytest.raises(ValueError, match="does not match"):
            load_idx_dataset(img_path, lab_path)


class TestTrainQuadratic:
    def test_deterministic(self):
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=50, gamma0=0.05, alpha0=0.2)
        xa, da = train_quadratic(prob, Algo.USCG, sch, [0])
        xb, db = train_quadratic(prob, Algo.USCG, sch, [0])
        np.testing.assert_array_equal(xa, xb)
        assert np.array_equal(da.loss, db.loss)

    def test_records_dense_in_k(self):
        prob = small_quadratic()
        sch = ScheduleSpec(horizon=30, gamma0=0.05)
        diags = train_quadratic(prob, Algo.USCG, sch)[1].trial(0)
        assert np.array_equal(diags.step, np.arange(1, 31))
        assert [len(c) for c in diags.columns()] == [30] * len(RunDiagnostics.COLUMNS)

    def test_scg_stays_feasible(self):
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=100, gamma0=0.1, alpha0=0.3)
        _, diags = train_quadratic(prob, Algo.SCG, sch, rho=2.0)
        assert diags.feasible.all()

    def test_common_random_numbers_across_algos(self):
        # muon(beta) and the unconstrained method with alpha = 1 - beta see the same
        # noise stream, so their iterates agree exactly
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=80, gamma0=0.05, alpha0=0.1)
        xa, _ = train_quadratic(prob, Algo.USCG, sch, [2])
        xb, _ = train_quadratic(prob, Algo.MUON_PLAIN, sch, [2], beta=0.9)
        np.testing.assert_allclose(xa, xb, atol=1e-10)

    def test_light_mode_matches(self):
        # under a constant alpha light mode's keep factor is exactly 1 - alpha; the
        # match is exact up to rounding, so it holds at 1e-12 for iterates and the
        # est_error column
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=60, gamma0=0.05, alpha0=0.1)
        xa, da = train_quadratic(prob, Algo.USCG, sch, [1])
        xb, db = train_quadratic(prob, Algo.USCG_LIGHT, sch, [1])
        np.testing.assert_allclose(xa, xb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(db.est_error, da.est_error, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "harness, tol", [("quadratic", 1e-12), ("classifier", 1e-10)],
        ids=["quadratic", "classifier"],
    )
    def test_light_mode_matches_under_vanishing_alpha(self, harness, tol):
        # the keep factor (1 - alpha_k) * (alpha_{k-1} / alpha_k) tracks the averaged
        # buffer under alpha_k = 1 / sqrt(k) too; the classifier stays at 40 steps,
        # since rounding grows chaotically over longer training runs
        sch = ScheduleSpec(horizon=40, gamma0=0.05, alpha_kind=AlphaKind.VANISHING)
        xa, da = _run_light(harness, sch, Algo.USCG)
        xb, db = _run_light(harness, sch, Algo.USCG_LIGHT)
        for a, b in zip(xa, xb):
            np.testing.assert_allclose(b, a, rtol=0, atol=tol)
        np.testing.assert_allclose(db.est_error, da.est_error, rtol=0, atol=tol)


class TestTrialStack:
    """A sequence of trials runs on a leading axis; row i is the run of trial i alone."""

    COLUMNS = ("loss", "grad_dual_norm", "fw_gap", "param_norm", "est_error")

    # (Algo.USCG, True) is uSCG in light mode, Algo.USCG_LIGHT
    @pytest.mark.parametrize(
        "algo, light",
        [*((a, False) for a in Algo if a is not Algo.USCG_LIGHT), (Algo.USCG, True)],
    )
    def test_rows_equal_single_trial_runs(self, algo, light):
        algo = Algo.USCG_LIGHT if light else algo
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=40, gamma0=0.05, alpha0=0.2)
        trials = [4, 0, 2]
        kw = dict(rho=2.0 if algo is Algo.SCG else 1.0)
        xs, stack = train_quadratic(prob, algo, sch, trials, **kw)
        assert xs.shape == (3, 8) and stack.loss.shape == (3, 40)
        for i, t in enumerate(trials):
            x, alone = train_quadratic(prob, algo, sch, [t], **kw)
            row, d = stack.trial(i), alone.trial(0)
            np.testing.assert_allclose(xs[i], x[0], rtol=1e-12, atol=0)
            assert np.array_equal(row.step, d.step)
            assert np.array_equal(row.feasible, d.feasible)
            assert np.array_equal(row.gamma, d.gamma)
            assert np.array_equal(row.alpha, d.alpha)
            for col in self.COLUMNS:
                np.testing.assert_allclose(
                    getattr(row, col), getattr(d, col), rtol=1e-12, atol=0
                )

    @pytest.mark.parametrize("noise", [0.0, 0.8])
    @pytest.mark.parametrize("alpha_kind", [AlphaKind.VANISHING, AlphaKind.CONSTANT])
    @pytest.mark.parametrize("algo", [Algo.USCG, Algo.SCG])
    @pytest.mark.parametrize("horizon", [1, 63, 64, 65, 129])
    def test_block_noise_equals_per_step_noisy_grad(self, horizon, algo, alpha_kind, noise):
        # The noise is drawn and the columns are recorded a block of steps at a time;
        # the reference loop asks noisy_grad and the norms for every step, and the
        # runs must agree bit for bit.
        prob = small_quadratic(noise=noise)
        sch = ScheduleSpec(horizon=horizon, gamma0=0.05, alpha_kind=alpha_kind, alpha0=0.2)
        trials = [4, 0, 2]
        rho = 2.0 if algo is Algo.SCG else 1.0
        x, columns = _per_step_run(prob, algo, sch, trials, rho)
        xs, stack = train_quadratic(prob, algo, sch, trials, rho=rho)
        assert np.array_equal(xs, x)
        for i in range(len(trials)):
            d = stack.trial(i)
            assert np.array_equal(d.step, np.arange(1, horizon + 1))
            assert d.feasible.dtype == bool
            for name, values in columns.items():
                want = values if name in ("gamma", "alpha") else values[:, i]
                assert np.array_equal(getattr(d, name), want), name

    @pytest.mark.parametrize(
        "algo, rho, poison",
        [
            # the param_norm of every iterate overflows, so step 1 fails, at the block's end
            (Algo.USCG, 5e-324, {}),
            # ... and still before a gradient that turns NaN later in the block
            (Algo.USCG, 5e-324, {(3, 9): np.nan}),
            # an est_error that overflows at step 3 comes before a NaN gradient at step 5
            (Algo.USCG, 1.0, {(3, 7): 1e306, (5, 9): np.nan}),
            # the same across a block boundary
            (Algo.USCG, 1.0, {(65, 7): 1e306, (67, 9): np.nan}),
            (Algo.USCG, 1.0, {(64, 7): 1e306, (65, 9): np.nan}),
            # a gradient that fails at a block's first step has no recorded steps before it
            (Algo.USCG, 1.0, {(65, 9): np.nan}),
            # a 1e306 gradient overflows trial 7's est_error at step 3, while the scale-safe
            # sharp operator keeps its SSD step finite
            (Algo.SSD, 1.0, {(3, 7): 1e306, (3, 9): 1e308}),
            # a 1e308 gradient overflows trial 9's Nesterov look-ahead g + beta * d at
            # step 3, before trial 7's est_error there (the buffer itself stays finite)
            (Algo.MUON_NESTEROV, 1.0, {(3, 7): 1e306, (3, 9): 1e308}),
            # ... and mid-block, after a block boundary
            (Algo.MUON_NESTEROV, 1.0, {(66, 7): 1e306, (66, 1): 1e308}),
            # but its fw_gap and param_norm at that step come before it
            (Algo.MUON_NESTEROV, 5e-324, {(1, 9): 1e308}),
            # at rho = 1e-3 its dual_norm / rho overflows, so trial 7's parameters turn
            # non-finite: within a step, non-finite parameters come before the est_error
            (Algo.SSD, 1e-3, {(3, 7): 1e306, (3, 9): 1e308}),
        ],
    )
    def test_failure_order_is_per_step(self, algo, rho, poison):
        # A failure is reported at its earliest step, and within a step in the order
        # gradient, fw_gap, param_norm, buffer, parameters, est_error, even where a
        # block's recorded columns are only checked once a later step has failed.
        prob = PoisonedNoise(dim=8, noise=1.0, conditioning=5.0, seed=0, poison=poison)
        sch = ScheduleSpec(horizon=70, gamma0=1.0)
        trials = [4, 7, 9, 1]
        with pytest.raises(NumericalFailure) as want, np.errstate(all="ignore"):
            _per_step_run(prob, algo, sch, trials, rho)
        with pytest.raises(NumericalFailure) as got, np.errstate(all="ignore"):
            train_quadratic(prob, algo, sch, trials, rho=rho)
        assert (got.value.step, got.value.trial) == (want.value.step, want.value.trial)
        assert str(got.value) == str(want.value)

    def test_default_is_the_stack_of_trial_zero(self):
        sch = ScheduleSpec(horizon=3)
        x, diags = train_quadratic(small_quadratic(), Algo.USCG, sch)
        assert x.shape == (1, 8) and diags.loss.shape == (1, 3) and len(diags) == 3
        want, stack = train_quadratic(small_quadratic(), Algo.USCG, sch, [0])
        assert np.array_equal(x, want)
        for got, ref in zip(diags.columns(), stack.columns()):
            assert np.array_equal(got, ref)

    def test_empty_trial_list_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            train_quadratic(small_quadratic(), Algo.USCG, ScheduleSpec(horizon=3), [])

    @pytest.mark.parametrize(
        "algo, value, what",
        [
            (Algo.USCG, np.nan, "non-finite gradient"),
            (Algo.SSD, 1e308, "non-finite parameters"),
        ],
    )
    def test_numerical_failure_names_the_trial(self, algo, value, what):
        class PoisonedTrial(StochasticQuadratic):
            """Trial 9's gradient noise, and so its gradient, turns to `value` at step 3."""

            def step_noise(self, trial, start, stop):
                noise = super().step_noise(trial, start, stop)
                if start <= 3 < stop:
                    noise[3 - start, list(trial).index(9)] = value
                return noise

        prob = PoisonedTrial(dim=8, noise=1.0, conditioning=5.0, seed=0)
        sch = ScheduleSpec(horizon=6, gamma0=1.0)
        with pytest.raises(NumericalFailure, match=what) as info, np.errstate(all="ignore"):
            train_quadratic(prob, algo, sch, [4, 7, 9, 1])
        assert info.value.step == 3 and info.value.trial == 9
        assert "step 3 of trial 9" in str(info.value)

    @pytest.mark.parametrize("algo", [Algo.USCG, Algo.MUON_PLAIN, Algo.ALMOND, Algo.SSD])
    @pytest.mark.parametrize(
        "poisoned, value",
        [
            (40, np.nan),  # a NaN gradient mid-block
            (64, 1e306),  # an overflow at the last step of a block
            (100, 1e306),  # an overflow at the horizon
        ],
    )
    def test_failure_attribution(self, poisoned, value, algo):
        # A NaN gradient fails as the gradient. A finite 1e306 entry overflows its
        # step's est_error; under SSD, whose move is the gradient itself scaled by
        # dual_norm / rho (rho = 1e-3 overflows that factor), it also overflows the
        # new iterate, which is reported first.
        prob = PoisonedNoise(
            dim=8, noise=1.0, conditioning=5.0, seed=0, poison={(poisoned, 9): value}
        )
        sch = ScheduleSpec(horizon=100, gamma0=0.1)
        if np.isnan(value):
            want = "gradient"
        elif algo is Algo.SSD:
            want = "parameters"
        else:
            want = "est_error"
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailure, match=f"non-finite {want}$") as info:
                train_quadratic(prob, algo, sch, [4, 7, 9, 1], rho=1e-3)
        assert (info.value.step, info.value.trial) == (poisoned, 9)


@dataclass(frozen=True)
class PoisonedNoise(StochasticQuadratic):
    """Each (step, trial) key of `poison` sets the first entry of that step's noise
    for that trial to its value."""

    poison: dict = field(default_factory=dict, compare=False)

    def step_noise(self, trial, start, stop):
        noise = super().step_noise(trial, start, stop)
        for (k, t), value in self.poison.items():
            if start <= k < stop and t in trial:
                noise[k - start, list(trial).index(t), 0] = value
        return noise


def _per_step_run(prob, algo, sch, trials, rho):
    """train_quadratic's recorded stacked run, one step at a time: each step takes
    its gradient from noisy_grad and its columns from the norms, and checks its
    values in the documented order. Returns the final stack and the gamma and
    alpha columns (n,) and the per-trial ones (n, T)."""
    spec = quadratic_norm_spec(prob.dim, rho)
    x = [prob.start_point(trials, scale=rho if algo is Algo.SCG else 2.0)]
    state = OptimizerState.init(x)

    def check(values, k, what):
        bad = ~np.isfinite(values).reshape(len(trials), -1).all(axis=1)
        if bad.any():
            raise NumericalFailure(k, f"non-finite {what}", trial=trials[int(np.argmax(bad))])

    rows = []
    for k in range(1, sch.horizon + 1):
        g = prob.noisy_grad(x[0], trials, k)
        check(g, k, "gradient")
        exact = prob.grad(x[0])
        with np.errstate(over="ignore", invalid="ignore"):
            dual = dual_norm(exact, spec.atoms[0])
            gap = fw_gap([exact], x, spec)
            pnorm = composite_norm(x, spec)
        check(gap, k, "fw_gap")
        check(pnorm, k, "param_norm")
        gamma, alpha = gamma_at(sch, k), alpha_at(sch, k)
        with np.errstate(over="ignore"):
            row = (gamma, alpha, prob.loss(x[0]), rho * dual, gap, pnorm)
        rule = rule_for(algo)
        try:
            x, d_k = apply_step(rule, x, state, [g], gamma, alpha, spec)
        except ValueError as exc:
            # the oracle rejected the operand it was given: the buffer, or its
            # Nesterov look-ahead
            check(exc.operand[0], k, "buffer")
            raise
        check(x[0], k, "parameters")
        e = d_k[0] - exact
        with np.errstate(over="ignore"):
            err = np.sqrt(np.einsum("td,td->t", e, e))
        check(err, k, "est_error")
        rows.append((*row, err, pnorm <= 1.0 + FEASIBLE_TOL))
    names = RunDiagnostics.COLUMNS[1:]
    return x[0], {name: np.array(column) for name, column in zip(names, zip(*rows))}


def _run_light(harness, schedule, algo):
    """(final parameter arrays, diagnostics) of a small run of one harness."""
    if harness == "quadratic":
        x, diags = train_quadratic(small_quadratic(noise=1.0), algo, schedule, [1])
        return [x[0]], diags.trial(0)
    prob = SyntheticClassification(dim=8, classes=3, train_size=32, test_size=0, seed=3)
    tx, ty, _, _ = gen_synthetic(prob)
    model = init_model(build_config(Domain.IMAGE, (8, 8, 3)), 0)
    model, diags = train_classifier(model, tx, ty, algo, schedule, batch_size=16)
    return model.parameters(), diags


class TestRecordedDiagnostics:
    """The grad_dual_norm and fw_gap columns equal sum_i radius_i * norms.dual_norm
    and norms.fw_gap recomputed at the iterate each row describes, so that fw_gap =
    <g_ref, x^k> + grad_dual_norm in both drivers. Constant schedules make a shorter
    run reach exactly the iterate x^k of the recorded one."""

    @staticmethod
    def assert_gap_identity(diags, k, ref, x):
        inner = sum(float(np.vdot(r, xi)) for r, xi in zip(ref, x))
        gap_less_inner = diags.fw_gap[k - 1] - inner
        assert gap_less_inner == pytest.approx(diags.grad_dual_norm[k - 1], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "train_size, batch_size, probe_n",
        [
            (64, 2, 32),  # 16 times the batch: sixteen whole chunks
            (32, 16, 32),  # capped at the dataset: two whole chunks
            (100, 16, 100),  # capped at the dataset: six chunks of 16, then 4
            (16, 16, 16),  # one chunk
            (24, 32, 24),  # one chunk: the batch is capped at the dataset
        ],
    )
    def test_spectral_mlp_probe_columns(self, monkeypatch, train_size, batch_size, probe_n):
        """The probe of 16 times the batch, capped at the dataset, is streamed in
        batch_size chunks; the columns match a one-shot loss_and_grad over the first
        probe_n samples, bit for bit in one chunk."""
        prob = SyntheticClassification(dim=8, classes=3, train_size=train_size,
                                       test_size=0, seed=3)
        tx, ty, _, _ = gen_synthetic(prob)
        # recommended family: spectral hidden layers, and a sign output layer whose
        # radius 1/16 makes a dropped radius show in both columns
        specs = build_config(Domain.IMAGE, (8, 16, 16, 3))
        sch = ScheduleSpec(horizon=4, gamma0=0.1, alpha0=0.2)
        kw = dict(batch_size=batch_size)
        directions = []
        record = RunDiagnostics.record

        def spy(diags, cut, spec, loss, x, ref, d):
            directions.append([di.copy() for di in d])
            return record(diags, cut, spec, loss, x, ref, d)

        monkeypatch.setattr(RunDiagnostics, "record", spy)
        _, diags = train_classifier(init_model(specs, 0), tx, ty, Algo.SCG, sch, **kw)
        want = RunDiagnostics.allocate(sch.horizon).trial(0)
        for k in diags.step:
            model = init_model(specs, 0)
            if k > 1:
                model, _ = train_classifier(
                    model, tx, ty, Algo.SCG, replace(sch, horizon=k - 1), record=False, **kw
                )
            _, probe_g = loss_and_grad(model, tx[:, :probe_n], ty[:probe_n])
            spec = model.norm_spec()
            dual = sum(a.radius * dual_norm(g, a) for g, a in zip(probe_g, spec.atoms))
            gap = fw_gap(probe_g, model.parameters(), spec)
            assert diags.grad_dual_norm[k - 1] == pytest.approx(dual, rel=1e-12, abs=0)
            assert diags.fw_gap[k - 1] == pytest.approx(gap, rel=1e-12, abs=0)
            self.assert_gap_identity(diags, k, probe_g, model.parameters())
            want.record(slice(k - 1, k), spec, 0.0, model.parameters(), probe_g,
                        directions[k - 1])
        for name in ("grad_dual_norm", "fw_gap", "est_error"):
            got, ref = getattr(diags, name), getattr(want, name)
            if probe_n <= min(batch_size, train_size):
                assert np.array_equal(got, ref), name
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=name)

    def test_quadratic_exact_gradient_columns(self):
        prob = small_quadratic(noise=1.0)
        sch = ScheduleSpec(horizon=6, gamma0=0.1, alpha0=0.3)
        rho = 2.0
        spec = quadratic_norm_spec(prob.dim, rho)
        diags = train_quadratic(prob, Algo.SCG, sch, rho=rho)[1].trial(0)
        for k in diags.step:
            if k == 1:
                x = prob.start_point(0, scale=rho)
            else:
                x = train_quadratic(prob, Algo.SCG, replace(sch, horizon=k - 1), rho=rho)[0][0]
            exact = prob.grad(x)
            # at rho = 2, a dual taken without the radius is half the recorded one
            dual = rho * dual_norm(exact, spec.atoms[0])
            assert diags.grad_dual_norm[k - 1] == pytest.approx(dual, rel=1e-12, abs=0)
            gap = fw_gap([exact], [x], spec)
            assert diags.fw_gap[k - 1] == pytest.approx(gap, rel=1e-12, abs=0)
            self.assert_gap_identity(diags, k, [exact], [x])


class TestTrainClassifier:
    def _setup(self, activation=Activation.RELU, hidden=(16, 16)):
        prob = SyntheticClassification(dim=8, classes=3, train_size=64, test_size=0, seed=3)
        tx, ty, _, _ = gen_synthetic(prob)
        specs = build_config(Domain.IMAGE, (8, *hidden, 3), activation=activation)
        return init_model(specs, 0), tx, ty

    def test_loss_decreases(self):
        model, tx, ty = self._setup()
        sch = ScheduleSpec(horizon=40, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.2,
                           alpha0=0.2)
        _, diags = train_classifier(model, tx, ty, Algo.USCG, sch, batch_size=32)
        assert diags.loss[-1] < diags.loss[0]

    def test_scg_feasible_column(self):
        model, tx, ty = self._setup()
        sch = ScheduleSpec(horizon=30, gamma0=0.1, alpha0=0.2)
        _, diags = train_classifier(model, tx, ty, Algo.SCG, sch, batch_size=32)
        assert all(diags.feasible)

    def test_nan_input_raises_numerical_failure_with_step(self):
        model, tx, ty = self._setup()
        tx = tx.copy()
        tx[0, 0] = np.nan
        sch = ScheduleSpec(horizon=10, gamma0=0.1)
        with pytest.raises(NumericalFailure, match="step"):
            train_classifier(model, tx, ty, Algo.USCG, sch, batch_size=64)

    @pytest.mark.parametrize("record", [True, False])
    def test_record_is_one_trial_of_a_stack(self, record):
        # The columns are named once, by the dataclass fields; the run records into a
        # one-trial stack and returns its row, so every column is (n,).
        assert RunDiagnostics.COLUMNS == tuple(f.name for f in fields(RunDiagnostics))
        model, tx, ty = self._setup()
        sch = ScheduleSpec(horizon=3, gamma0=0.1, alpha0=0.2)
        _, diags = train_classifier(model, tx, ty, Algo.SCG, sch, record=record)
        n = 3 if record else 0
        assert len(diags) == n
        assert [c.shape for c in diags.columns()] == [(n,)] * len(RunDiagnostics.COLUMNS)
        assert [c.dtype.kind for c in diags.columns()] == ["i"] + ["f"] * 7 + ["b"]

    def test_zero_gamma_keeps_params(self):
        model, tx, ty = self._setup()
        before = [w.copy() for w in model.weights]
        sch = ScheduleSpec(horizon=10, gamma_kind=GammaKind.CONSTANT, gamma0=0.0)
        model, _ = train_classifier(model, tx, ty, Algo.USCG, sch, batch_size=32)
        for a, b in zip(before, model.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("value", [0, -3])
    def test_bad_batch_size_rejected_by_name_before_any_step(self, value, record):
        model, tx, ty = self._setup()
        before = [p.copy() for p in model.parameters()]
        sch = ScheduleSpec(horizon=3, gamma0=0.1)
        with pytest.raises(ValueError, match="^batch_size must be >= 1"):
            train_classifier(model, tx, ty, Algo.USCG, sch, record=record, batch_size=value)
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("algo", [Algo.USCG, Algo.SCG, Algo.MUON_NESTEROV])
    def test_unrecorded_run_trains_the_same_parameters(self, algo):
        # Recording reads the iterates and directions but never moves them, so an
        # unrecorded run lands on the recorded run's parameters bit for bit.
        sch = ScheduleSpec(horizon=6, gamma0=0.1, alpha0=0.3)
        finals = []
        for record in (True, False):
            model, tx, ty = self._setup()
            model, diags = train_classifier(model, tx, ty, algo, sch, batch_size=16,
                                            record=record)
            assert len(diags) == (sch.horizon if record else 0)
            finals.append(model.parameters())
        for a, b in zip(*finals):
            np.testing.assert_array_equal(a, b)

    def test_probe_holds_one_minibatch_of_activations(self):
        # the 512-sample probe runs in chunks of the 64-sample batch, so the recorded
        # run holds no more activations than the unrecorded one
        prob = SyntheticClassification(dim=32, classes=4, train_size=1024, test_size=0,
                                       seed=0)
        tx, ty, _, _ = gen_synthetic(prob)
        specs = build_config(Domain.IMAGE, (32, 256, 256, 4))
        sch = ScheduleSpec(horizon=2, gamma0=0.1, alpha0=0.2)

        def traced_peak(record):
            model = init_model(specs, 0)
            tracemalloc.start()
            try:
                train_classifier(model, tx, ty, Algo.SCG, sch, batch_size=64, record=record)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recorded, unrecorded = traced_peak(True), traced_peak(False)
        assert recorded <= 1.5 * unrecorded, (
            f"tracemalloc peak {recorded / 1e6:.2f} MB recorded, "
            f"{unrecorded / 1e6:.2f} MB unrecorded"
        )


class TestCoordinateCheck:
    def test_zero_gamma_gives_zero_deltas(self):
        rows = coordinate_check([16, 32], depth=3, gamma=0.0, seed=0, samples=2,
                                input_dim=8, classes=4)
        assert all(r.rms_dpreact == 0.0 for r in rows)

    def test_small_width_invariance(self):
        rows = coordinate_check([32, 64], depth=3, gamma=0.02, seed=1, samples=8,
                                input_dim=16, classes=4)
        ratios = coordinate_check_ratios(rows)
        assert all(v <= 2.0 for v in ratios.values())
        for r in rows:
            assert 0.02 / 3 <= r.rms_dpreact <= 3 * 0.02

    @pytest.mark.parametrize("ns_iters", [None, 5])
    def test_factored_rows_match_dense_gradient_rows(self, monkeypatch, ns_iters):
        args = dict(widths=[8, 32, 48], depth=3, gamma=0.01, seed=2, samples=3,
                    input_dim=12, classes=4, ns_iters=ns_iters)
        rows = coordinate_check(**args)
        monkeypatch.setattr(experiments, "backward_factors", backward)
        dense = coordinate_check(**args)
        assert [(r.width, r.layer) for r in rows] == [(r.width, r.layer) for r in dense]
        np.testing.assert_allclose([r.rms_dpreact for r in rows],
                                   [r.rms_dpreact for r in dense], rtol=1e-12, atol=0)

    def test_row_layout(self):
        rows = coordinate_check([16], depth=3, gamma=0.01, seed=0, samples=1,
                                input_dim=8, classes=4)
        assert [(r.width, r.layer) for r in rows] == [(16, 1), (16, 2), (16, 3)]

    def test_ratios_are_plain_floats(self):
        rows = coordinate_check([8, 16], depth=2, gamma=0.01, seed=0, samples=1,
                                input_dim=4, classes=2)
        ratios = coordinate_check_ratios(rows)
        assert sorted(ratios) == [1, 2]
        assert all(type(v) is float for v in ratios.values())


class TestRateHarness:
    def test_vanishing_gammas_inside_theorem_interval(self):
        prob = small_quadratic(noise=1.0, dim=8)
        rep = rate_harness("uscg", "vanishing", [32, 64], prob, trials=2)
        for n, g in zip(rep.n_list, rep.gammas):
            assert 1.0 / (2 * n**0.75) < g < 1.0 / n**0.75
        assert rep.slope is not None

    def test_constant_mode_reports_plateaus(self):
        prob = small_quadratic(noise=1.0, dim=8)
        rep = rate_harness("uscg", "constant", [256], prob, trials=2, alpha=0.2)
        assert rep.slope is None and rep.plateau_ratio is not None
        assert len(rep.mean_criticality) == 2
        assert rep.mean_criticality[0] > 0 and rep.mean_criticality[1] > 0

    def test_noiseless_run_decreases_gradient(self):
        prob = StochasticQuadratic(dim=8, noise=0.0, conditioning=5.0, seed=2)
        sch = ScheduleSpec(horizon=400, gamma0=0.02, alpha_kind=AlphaKind.VANISHING)
        diags = train_quadratic(prob, Algo.USCG, sch)[1].trial(0)
        assert diags.grad_dual_norm[-1] <= 0.1 * diags.grad_dual_norm[0]

    def test_constants_documented(self):
        prob = small_quadratic(noise=1.0, dim=8)
        rep = rate_harness("scg", "constant", [64], prob, trials=1)
        for key in ("L", "sigma", "zeta", "rho2", "D2"):
            assert key in rep.constants

    @pytest.mark.parametrize("n_list", [[], [100], [100, 100]])
    def test_vanishing_needs_two_distinct_horizons(self, n_list):
        with pytest.raises(ValueError, match="horizon"):
            rate_harness("uscg", "vanishing", n_list, small_quadratic())

    def test_bad_arguments(self):
        prob = small_quadratic()
        with pytest.raises(ValueError):
            rate_harness("sgd", "vanishing", [10], prob)
        with pytest.raises(ValueError):
            rate_harness("uscg", "sometimes", [10], prob)
        with pytest.raises(ValueError, match="trials"):
            rate_harness("uscg", "vanishing", [10, 20], prob, trials=0)

    @pytest.mark.parametrize("optimizer", ["uscg", "scg"])
    @pytest.mark.parametrize("mode", ["vanishing", "constant"])
    def test_matches_per_trial_reference(self, optimizer, mode):
        prob = small_quadratic(noise=1.0, dim=8)
        n_list, trials, alpha, rho = [24, 64], 3, 0.2, (1.0 if optimizer == "uscg" else 2.0)
        algo = Algo.USCG if optimizer == "uscg" else Algo.SCG

        def reference(p, schedule, tail=0):
            means = []
            for t in range(trials):
                d = train_quadratic(p, algo, schedule, [t], rho=rho)[1].trial(0)
                series = d.grad_dual_norm if optimizer == "uscg" else d.fw_gap
                means.append(np.mean(series[tail:]))
            return np.mean(means)

        if mode == "vanishing":
            want = [
                reference(prob, ScheduleSpec(horizon=n, gamma0=theory_gamma(n),
                                             alpha_kind=AlphaKind.VANISHING))
                for n in n_list
            ]
        else:
            n = max(n_list)
            want = [
                reference(replace(prob, noise=prob.noise * f),
                          ScheduleSpec(horizon=n, gamma0=1.0 / np.sqrt(n), alpha0=alpha),
                          tail=3 * n // 4)
                for f in (1.0, 2.0)
            ]
        rep = rate_harness(optimizer, mode, n_list, prob, trials=trials, alpha=alpha)
        np.testing.assert_allclose(rep.mean_criticality, want, rtol=1e-12, atol=0)


class TestErrorDecayProbe:
    def test_matches_per_trial_reference(self):
        prob = small_quadratic(noise=1.0, dim=16)
        n, trials = 96, 4
        schedule = ScheduleSpec(horizon=n, gamma0=theory_gamma(n), alpha_kind=AlphaKind.VANISHING)
        total = np.zeros(n)
        for t in range(trials):
            d = train_quadratic(prob, Algo.USCG, schedule, [t])[1].trial(0)
            total += np.square(d.est_error)
        rep = error_decay_probe(prob, n=n, trials=trials)
        np.testing.assert_allclose(rep.mean_sq_error, total / trials, rtol=1e-12, atol=0)

    def test_fewer_than_two_positive_steps_have_no_slope(self):
        # Noiseless, step 1's direction is the exact gradient, so only step 2 of a
        # two-step run has a positive error: no slope to fit.
        prob = StochasticQuadratic(dim=8, noise=0.0, conditioning=5.0, seed=1)
        with pytest.raises(NumericalFailure, match="1 of 2 steps have a positive") as info:
            error_decay_probe(prob, n=2, trials=1)
        assert info.value.step == 2

    def test_first_step_error_is_the_noise_level(self):
        # alpha_1 = 1, so d^1 is the first noisy gradient and its squared error is the
        # noise draw's squared norm, whose mean is noise^2.
        prob = small_quadratic(noise=1.0, dim=16)
        rep = error_decay_probe(prob, n=64, trials=20)
        assert 0.5 <= rep.mean_sq_error[0] <= 2.0

    def test_noiseless_error_starts_at_zero(self):
        # Noiseless, d^1 is the exact gradient; later steps average gradients taken
        # at earlier iterates, so their error is positive.
        prob = StochasticQuadratic(dim=8, noise=0.0, conditioning=5.0, seed=1)
        rep = error_decay_probe(prob, n=64, trials=2)
        assert rep.mean_sq_error[0] == 0.0
        assert all(e > 0.0 for e in rep.mean_sq_error[1:])
        assert np.isfinite(rep.slope)

    @pytest.mark.parametrize(
        "kw, match", [({"trials": 0}, "trials"), ({"n": 1}, "n must"), ({"n": 0}, "n must")]
    )
    def test_degenerate_inputs_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            error_decay_probe(small_quadratic(noise=1.0), **{"n": 16, "trials": 2, **kw})

    def test_vanishing_slope_negative(self):
        prob = small_quadratic(noise=1.0, dim=16)
        rep = error_decay_probe(prob, n=512, trials=5)
        assert rep.slope <= -0.25

    def test_memory_peak_at_cli_defaults(self):
        # `lmopt rate --set probe=error_decay` at its defaults: the recorded columns
        # take 8 bytes per step and trial, and the per-step work one block's buffers.
        prob = StochasticQuadratic(dim=32, noise=1.0, conditioning=10.0, seed=0)
        tracemalloc.start()
        try:
            error_decay_probe(prob, n=4096, trials=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


class TestSweep:
    def test_single_width_and_degenerate_grid(self):
        prob = SyntheticClassification(dim=8, classes=3, train_size=64, test_size=32,
                                       seed=0)
        rep = lr_transfer_sweep([16], [0.05], prob, epochs=1, seed=0, batch_size=32)
        assert rep.best_gamma == {16: 0.05}
        rep2 = lr_transfer_sweep([8, 16], [0.05], prob, epochs=1, seed=0, batch_size=32)
        assert set(rep2.best_gamma.values()) == {0.05}
        assert rep2.max_log2_spread() == 0.0

    def test_deterministic(self):
        prob = SyntheticClassification(dim=8, classes=3, train_size=64, test_size=32,
                                       seed=1)
        grid = [0.02, 0.04]
        a = lr_transfer_sweep([8], grid, prob, epochs=1, seed=4, batch_size=32)
        b = lr_transfer_sweep([8], grid, prob, epochs=1, seed=4, batch_size=32)
        assert a == b

    def test_rejects_depth_below_two(self):
        # depth 1 is a width-free linear model: every width would pick the same gamma
        prob = SyntheticClassification(dim=8, classes=3, train_size=16, test_size=8, seed=0)
        with pytest.raises(ValueError, match="depth >= 2"):
            lr_transfer_sweep([8, 16], [0.05], prob, epochs=1, depth=1)


def _untouched(*args, **kwargs):
    raise AssertionError("a harness did work before checking its inputs")


_SWEEP_PROBLEM = SyntheticClassification(dim=4, classes=2, train_size=16, test_size=8, seed=0)

# Each harness refuses a count below 1, and the sweep a stepsize or alpha outside
# (0, 1], by name before any draw, gradient or step. A zero stepsize would leave the
# sweep's best-stepsize spread without a log2.
_ENTRY_REJECTIONS = {
    "coord_check_no_samples": (
        lambda: coordinate_check([8], depth=2, samples=0, input_dim=4, classes=2),
        "samples must be >= 1, got 0"),
    "coord_check_negative_samples": (
        lambda: coordinate_check([8], depth=2, samples=-1, input_dim=4, classes=2),
        "samples must be >= 1, got -1"),
    "sweep_zero_batch": (
        lambda: lr_transfer_sweep([8], [0.05], _SWEEP_PROBLEM, epochs=1, batch_size=0),
        "batch_size must be >= 1, got 0"),
    "sweep_zero_epochs": (
        lambda: lr_transfer_sweep([8], [0.05], _SWEEP_PROBLEM, epochs=0),
        "epochs must be >= 1, got 0"),
    "sweep_negative_epochs": (
        lambda: lr_transfer_sweep([8], [0.05], _SWEEP_PROBLEM, epochs=-3),
        "epochs must be >= 1, got -3"),
    "rate_constant_zero_horizon": (
        lambda: rate_harness("uscg", "constant", [0], small_quadratic(noise=1.0)),
        r"n_list horizons must be >= 1, got \(0,\)"),
    "rate_vanishing_zero_horizon": (
        lambda: rate_harness("scg", "vanishing", [0, 16], small_quadratic(noise=1.0)),
        r"n_list horizons must be >= 1, got \(0, 16\)"),
    "sweep_gamma_above_one": (
        lambda: lr_transfer_sweep([8], [0.05, 2.0], _SWEEP_PROBLEM, epochs=1),
        r"gamma_grid entries must be in \(0, 1\], got 2.0"),
    "sweep_zero_alpha": (
        lambda: lr_transfer_sweep([8], [0.05], _SWEEP_PROBLEM, epochs=1, alpha=0.0),
        r"alpha must be in \(0, 1\], got 0.0"),
    "sweep_zero_gamma_two_widths": (
        lambda: lr_transfer_sweep([8, 16], [0.0], _SWEEP_PROBLEM, epochs=1),
        r"gamma_grid entries must be in \(0, 1\], got 0.0"),
}


@pytest.mark.parametrize("case", sorted(_ENTRY_REJECTIONS))
def test_count_rejected_by_name_before_any_work(monkeypatch, case):
    call, message = _ENTRY_REJECTIONS[case]
    for name in ("rng_gaussian", "init_model", "train_quadratic", "train_classifier"):
        monkeypatch.setattr(experiments, name, _untouched)
    monkeypatch.setattr("lmopt.problems.gen_synthetic", _untouched)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestInputsBuiltOnce:
    """The width harnesses build each width's layer config once, not once per sample
    or per stepsize, and the sweep builds one schedule per grid point."""

    @staticmethod
    def _count(monkeypatch, name):
        built = []
        real = getattr(experiments, name)

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
        return built

    def test_coordinate_check_one_config_per_width(self, monkeypatch):
        configs = self._count(monkeypatch, "build_config")
        coordinate_check([4, 8], depth=2, samples=3, input_dim=4, classes=3)
        assert len(configs) == 2

    def test_sweep_one_config_per_width_one_schedule_per_grid_point(self, monkeypatch):
        configs = self._count(monkeypatch, "build_config")
        schedules = self._count(monkeypatch, "ScheduleSpec")
        lr_transfer_sweep([4, 8], [0.05, 0.1, 0.2], _SWEEP_PROBLEM, epochs=1, batch_size=8)
        assert len(configs) == 2
        assert len(schedules) == 3


class TestUnknownAlgo:
    @pytest.mark.parametrize("harness", ["quadratic", "classifier"])
    def test_rejected_before_any_gradient(self, monkeypatch, harness):
        # Each training loop builds its run's rule before it starts, so an unknown algo
        # fails before the first gradient is formed.
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "loss_and_grad", counted(loss_and_grad))
        monkeypatch.setattr(StochasticQuadratic, "grad", counted(StochasticQuadratic.grad))
        sch = ScheduleSpec(horizon=3, gamma0=0.1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            if harness == "quadratic":
                train_quadratic(small_quadratic(), "nope", sch)
            else:
                prob = SyntheticClassification(dim=8, classes=3, train_size=32, test_size=0)
                tx, ty, _, _ = gen_synthetic(prob)
                model = init_model(build_config(Domain.IMAGE, (8, 8, 3)), 0)
                train_classifier(model, tx, ty, "nope", sch, batch_size=16)
        assert calls == []


class TestRuleOncePerRun:
    @pytest.mark.parametrize(
        "harness",
        ["quadratic", "quadratic_stack", "classifier", "classifier_unrecorded",
         "coordinate_check"],
    )
    def test_one_rule_per_run(self, monkeypatch, harness):
        # Each harness builds its run's update rule once, before its loop: not once
        # per step, trial, width or sample.
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return rule_for(*args, **kwargs)

        monkeypatch.setattr(experiments, "rule_for", counted)
        sch = ScheduleSpec(horizon=5, gamma0=0.1)
        if harness.startswith("quadratic"):
            trials = [0, 1, 2] if harness == "quadratic_stack" else [0]
            train_quadratic(small_quadratic(), Algo.USCG_WD, sch, trials, mu=0.3)
            assert built == [(Algo.USCG_WD, 0.3, 0.9)]
        elif harness.startswith("classifier"):
            prob = SyntheticClassification(dim=8, classes=3, train_size=32, test_size=0)
            tx, ty, _, _ = gen_synthetic(prob)
            model = init_model(build_config(Domain.IMAGE, (8, 8, 3)), 0)
            train_classifier(model, tx, ty, Algo.MUON_NESTEROV, sch, batch_size=8,
                             beta=0.8, record=harness == "classifier")
            assert built == [(Algo.MUON_NESTEROV, 0.5, 0.8)]
        else:
            coordinate_check([4, 8], depth=2, samples=3, input_dim=4, classes=3)
            assert built == [(Algo.USCG,)]


def _overflowing_sharp_step():
    """SSD on a two-layer net whose hidden activations are near float64's largest:
    the loss and gradients are finite, but the output layer's gradient has an l1
    dual norm past float64's range, so its sharp move sends the weights to inf."""
    layers = (LayerSpec(Activation.RELU, NormSpec(NormKind.SIGN, 1.0, 8, 2)),
              LayerSpec(Activation.IDENTITY, NormSpec(NormKind.SIGN, 1.0, 2, 8)))
    weights = [np.ones((8, 2)), np.full((2, 8), 1e-308) * [[1.0], [-1.0]]]
    model = MlpModel(layers, weights, [None, None])
    train_classifier(model, np.full((2, 2), 4e307), np.array([0, 1]), Algo.SSD,
                     ScheduleSpec(horizon=2, gamma0=0.5), batch_size=2)


def _idx_file(tmp_path, name, magic, shape):
    import struct

    path = tmp_path / name
    path.write_bytes(struct.pack(f">I{len(shape)}I", magic, *shape) + bytes(int(np.prod(shape))))
    return str(path)


_IMAGES, _LABELS = 0x00000803, 0x00000801

_REJECTIONS = {
    "coord_check_widths": (
        lambda _: coordinate_check([], depth=2, samples=1, input_dim=2, classes=2),
        ValueError, "need at least one width and depth >= 2"),
    "coord_check_depth": (
        lambda _: coordinate_check([4], depth=1, samples=1, input_dim=2, classes=2),
        ValueError, "need at least one width and depth >= 2"),
    "classifier_parameters": (
        lambda _: _overflowing_sharp_step(), NumericalFailure,
        "at step 1: non-finite parameters"),
    # a subnormal radius rounds the boundary start outside the ball: the oracle's
    # rejection is neither the gradient's nor the buffer's, so it is raised as it is
    "quadratic_start_outside_the_ball": (
        lambda _: train_quadratic(StochasticQuadratic(8, noise=1.0), Algo.SCG,
                                  ScheduleSpec(horizon=3), rho=2e-323),
        ValueError, "the convex move needs a feasible iterate"),
    "problem_dim": (lambda _: SyntheticClassification(dim=0), ValueError, "need dim >= 1"),
    "problem_classes": (lambda _: SyntheticClassification(dim=2, classes=1), ValueError,
                        "classes >= 2"),
    "problem_clusters": (lambda _: SyntheticClassification(dim=2, clusters=0), ValueError,
                         "clusters >= 1"),
    "problem_train_size": (lambda _: SyntheticClassification(dim=2, train_size=0), ValueError,
                           "need train_size >= 1"),
    "problem_test_size": (lambda _: SyntheticClassification(dim=2, test_size=-1), ValueError,
                          "test_size >= 0"),
    "idx_zero_dimension": (
        lambda tmp: load_idx(_idx_file(tmp, "img.idx", _IMAGES, (2, 0, 3))), ValueError,
        "bad IDX dimension 1: zero length in .*img.idx"),
    "idx_images_hold_labels": (
        lambda tmp: load_idx_dataset(_idx_file(tmp, "lab.idx", _LABELS, (2,)),
                                     _idx_file(tmp, "lab2.idx", _LABELS, (2,))),
        ValueError, "lab.idx does not hold images"),
    "idx_labels_hold_images": (
        lambda tmp: load_idx_dataset(_idx_file(tmp, "img.idx", _IMAGES, (2, 2, 2)),
                                     _idx_file(tmp, "img2.idx", _IMAGES, (2, 2, 2))),
        ValueError, "img2.idx does not hold labels"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_rejection_names_its_field_or_step(tmp_path, case):
    call, kind, message = _REJECTIONS[case]
    with pytest.raises(kind, match=message):
        call(tmp_path)
