"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to stream the per-criterion lines.
Tolerances are fixed here, not tuned at runtime; the heavier harness criteria also
assert their wallclock budgets.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

from lmopt.experiments import (
    coordinate_check,
    coordinate_check_ratios,
    error_decay_probe,
    lr_transfer_sweep,
    rate_harness,
)
from lmopt.linalg import (
    derive_seed,
    newton_schulz_orthogonalize,
    rng_gaussian,
    semi_orthogonal_init,
    svd_reduced,
)
from lmopt.models import (
    Activation,
    Domain,
    build_config,
    init_model,
    loss_and_grad,
)
from lmopt.norms import (
    VECTOR_KINDS,
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    dual_norm,
    lmo,
    model_lmo,
    op_norm,
)
from lmopt.optim import (
    RULES,
    Algo,
    OptimizerState,
    rule_for,
    step,
)
from lmopt.problems import StochasticQuadratic, SyntheticClassification

ALL_KINDS = sorted(NormKind, key=lambda k: k.value)
KIND_ID = {kind: i for i, kind in enumerate(ALL_KINDS)}


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number:2d} FAIL: {title}")
                raise
            print(f"CRITERION {number:2d} PASS: {title}")

        return run

    return wrap


def make_spec(kind, d_out, d_in, radius=1.0):
    if kind in VECTOR_KINDS:
        return NormSpec.vector(kind, d_out, radius=radius)
    return NormSpec(kind=kind, radius=radius, d_out=d_out, d_in=d_in)


def random_operand(spec, seed):
    if spec.is_vector:
        return rng_gaussian(spec.d_out, 1, seed)[:, 0]
    return rng_gaussian(spec.d_out, spec.d_in, seed)


def mixed_model_spec():
    return ModelNormSpec(
        (
            NormSpec(NormKind.SPECTRAL, 1.0, 6, 4),
            NormSpec(NormKind.SIGN, 0.5, 3, 5),
            NormSpec(NormKind.COL_NORM, 2.0, 4, 3),
            NormSpec(NormKind.ROW_NORM, 1.5, 3, 4),
            NormSpec.vector(NormKind.RMS_VEC, 7, radius=1.0),
        )
    )


def random_params(spec, seed, scale=1.0):
    return [scale * random_operand(atom, derive_seed(seed, i))
            for i, atom in enumerate(spec.atoms)]


def gradient_stream(spec, seed, steps):
    return [random_params(spec, derive_seed(seed, 1000 + k)) for k in range(steps)]


@criterion(1, "lmo contract suite: boundary, dual pairing, scale invariance")
def test_criterion_01_lmo_contracts():
    start = time.monotonic()
    for kind in ALL_KINDS:
        for trial in range(100):
            seed = derive_seed(1, KIND_ID[kind], trial)
            d_out = 1 + derive_seed(seed, 0) % 64
            d_in = 1 if kind in VECTOR_KINDS else 1 + derive_seed(seed, 1) % 64
            radius = 0.25 + (derive_seed(seed, 2) % 8) / 2.0
            spec = make_spec(kind, d_out, d_in, radius=radius)
            s = random_operand(spec, derive_seed(seed, 3))
            out = lmo(s, spec)
            boundary_tol = 1e-8 if kind is NormKind.SPECTRAL else 1e-10
            assert abs(op_norm(out, spec) - radius) <= boundary_tol * max(1.0, radius)
            pairing = float(np.vdot(s, out)) + radius * dual_norm(s, spec)
            assert abs(pairing) <= 1e-8 * max(1.0, radius * dual_norm(s, spec))
            for a in (0.5, 2.0, 10.0):
                np.testing.assert_allclose(lmo(a * s, spec), out, atol=1e-10, rtol=0.0)
    assert time.monotonic() - start < 10.0


@criterion(2, "brute-force optimality on 2x2 sign-ball instances")
def test_criterion_02_brute_force_optimality():
    for kind in (NormKind.SIGN, NormKind.MAX_VEC):
        for trial in range(50):
            seed = derive_seed(2, KIND_ID[kind], trial)
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
            assert float(np.vdot(s, lmo(s, spec))) == pytest.approx(best, abs=1e-12)


@criterion(3, "constrained iterates stay feasible over 500 random-gradient steps")
def test_criterion_03_scg_feasibility():
    spec = mixed_model_spec()
    x = model_lmo(random_params(spec, 30), spec)  # boundary start
    state = OptimizerState.init(x)
    for k, g in enumerate(gradient_stream(spec, 31, 500), start=1):
        x = step(x, state, g, 0.05, 0.3, spec, RULES[Algo.SCG])[0]
        assert composite_norm(x, spec) <= 1.0 + 1e-8, f"infeasible at step {k}"


@criterion(4, "unconstrained displacement bounded by the stepsize sum")
def test_criterion_04_uscg_norm_growth():
    spec = mixed_model_spec()
    x0 = random_params(spec, 32)
    x = [p.copy() for p in x0]
    state = OptimizerState.init(x)
    total = 0.0
    for k, g in enumerate(gradient_stream(spec, 33, 500), start=1):
        gamma = 0.08 * (1.0 - k / 501.0)
        x = step(x, state, g, gamma, 0.2, spec, RULES[Algo.USCG])[0]
        total += gamma
    disp = [xi - x0i for xi, x0i in zip(x, x0)]
    assert composite_norm(disp, spec) <= total + 1e-8


@criterion(5, "exact equivalences: momentum-accumulator, weight-decay, two-buffer forms, "
              "the last under constant and vanishing alpha")
def test_criterion_05_equivalences():
    spec = mixed_model_spec()
    steps = 120
    stream = gradient_stream(spec, 34, steps)

    # plain momentum accumulator (beta) vs averaged direction (alpha = 1 - beta)
    beta = 0.9
    xa = random_params(spec, 35)
    xb = [p.copy() for p in xa]
    sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
    for g in stream:
        xa = step(xa, sa, g, 0.02, 1.0 - beta, spec, RULES[Algo.USCG])[0]
        xb, _ = step(xb, sb, g, 0.02, 1.0, spec, rule_for(Algo.MUON_PLAIN, beta=beta))
    for a, b in zip(xa, xb):
        np.testing.assert_allclose(a, b, atol=1e-10, rtol=0.0)

    # weight decay mu on radius rho == constrained method on radius rho/mu with
    # stepsize gamma * mu
    mu, gamma = 0.5, 0.01
    inflated = ModelNormSpec(
        tuple(NormSpec(a.kind, a.radius / mu, a.d_out, a.d_in) for a in spec.atoms)
    )
    xa = random_params(spec, 36, scale=0.05)
    xb = [p.copy() for p in xa]
    sa = OptimizerState.init(xa)
    sb = OptimizerState.init(xb)
    for g in stream:
        xa, _ = step(xa, sa, g, gamma, 0.15, spec, rule_for(Algo.USCG_WD, mu=mu))
        xb = step(xb, sb, g, gamma * mu, 0.15, inflated, RULES[Algo.SCG])[0]
    for a, b in zip(xa, xb):
        np.testing.assert_allclose(a, b, atol=1e-10, rtol=0.0)

    # two-buffer rearrangement == averaged-direction form
    alpha = 0.1
    xa = random_params(spec, 37)
    xb = [p.copy() for p in xa]
    sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
    for g in stream:
        xa = step(xa, sa, g, 0.03, alpha, spec, RULES[Algo.USCG])[0]
        xb, _ = step(xb, sb, g, 0.03, alpha, spec, rule_for(Algo.USCG_LIGHT))
    for a, b in zip(xa, xb):
        np.testing.assert_allclose(a, b, atol=1e-10, rtol=0.0)

    # the same under the vanishing alpha_k = 1 / sqrt(k) of the rate theory
    xa = random_params(spec, 38)
    xb = [p.copy() for p in xa]
    sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
    for k, g in enumerate(stream, start=1):
        alpha = 1.0 / np.sqrt(k)
        xa = step(xa, sa, g, 0.03, alpha, spec, RULES[Algo.USCG])[0]
        xb, _ = step(xb, sb, g, 0.03, alpha, spec, rule_for(Algo.USCG_LIGHT))
    for a, b in zip(xa, xb):
        np.testing.assert_allclose(a, b, atol=1e-10, rtol=0.0)


@criterion(6, "matrix-sign iteration against the exact-SVD oracle")
def test_criterion_06_newton_schulz_vs_svd():
    start = time.monotonic()
    for trial in range(40):
        seed = derive_seed(6, trial)
        rows = 2 + derive_seed(seed, 0) % 15
        cols = 2 + derive_seed(seed, 1) % 15
        r = min(rows, cols)
        u = semi_orthogonal_init(rows, r, derive_seed(seed, 2))
        v = semi_orthogonal_init(cols, r, derive_seed(seed, 3))
        # log-spaced spectrum with condition number <= 100
        cond = 1.0 + (derive_seed(seed, 4) % 100)
        sigma = np.logspace(-np.log10(cond), 0.0, r) if r > 1 else np.ones(1)
        a = (u * sigma) @ v.T
        m = newton_schulz_orthogonalize(a, iters=5)
        sv = svd_reduced(m).sigma
        assert np.all(sv >= 0.65) and np.all(sv <= 1.35)
        res = svd_reduced(a)
        target = res.orthogonal_factor()
        alignment = float(np.sum(m * target) / np.sum(target * target))
        assert alignment >= 0.95
    assert time.monotonic() - start < 5.0


@criterion(7, "backprop against central finite differences, all activations, two label sets")
def test_criterion_07_backprop_finite_differences():
    acts = [Activation.RELU, Activation.SCALED_RELU2, Activation.SCALED_GELU,
            Activation.TANH]
    for act in acts:
        for labels in (np.array([1, 1, 0]), np.array([0, 1, 0])):
            specs = build_config(Domain.IMAGE, (8, 8, 4, 2), activation=act)
            model = init_model(specs, derive_seed(7, KIND_ID.get(act, 0)))
            z = 0.5 * rng_gaussian(8, 3, derive_seed(7, 1))
            _, grads = loss_and_grad(model, z, labels)
            for p_idx, p in enumerate(model.parameters()):
                fd = np.zeros_like(p)
                it = np.nditer(p, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = p[idx]
                    h = 1e-6 * max(1.0, abs(orig))
                    p[idx] = orig + h
                    up, _ = loss_and_grad(model, z, labels)
                    p[idx] = orig - h
                    dn, _ = loss_and_grad(model, z, labels)
                    p[idx] = orig
                    fd[idx] = (up - dn) / (2 * h)
                    it.iternext()
                scale = max(1.0, float(np.max(np.abs(grads[p_idx]))))
                rel = float(np.max(np.abs(grads[p_idx] - fd))) / scale
                assert rel <= 1e-5, f"{act.value}/{labels.tolist()} rel err {rel}"


@criterion(8, "convergence-rate fits and noise-proportional plateaus")
def test_criterion_08_rate_checks():
    start = time.monotonic()
    problem = StochasticQuadratic(dim=32, noise=1.0, conditioning=10.0, seed=0)
    n_list = [100, 400, 1600, 6400]
    uscg = rate_harness("uscg", "vanishing", n_list, problem, trials=10)
    assert uscg.slope <= -0.15, f"uscg slope {uscg.slope}"
    scg = rate_harness("scg", "vanishing", n_list, problem, trials=10)
    assert scg.slope <= -0.15, f"scg gap slope {scg.slope}"
    plateau = rate_harness("uscg", "constant", [4096], problem, trials=10, alpha=0.1)
    assert 1.3 <= plateau.plateau_ratio <= 3.0, f"ratio {plateau.plateau_ratio}"
    assert time.monotonic() - start < 300.0


@criterion(9, "momentum estimator error decays along the vanishing schedule")
def test_criterion_09_error_decay():
    problem = StochasticQuadratic(dim=32, noise=1.0, conditioning=10.0, seed=0)
    report = error_decay_probe(problem, n=4096, trials=20)
    assert report.slope <= -0.25, f"slope {report.slope}"


@criterion(10, "coordinate check: per-layer update size is width invariant")
def test_criterion_10_coordinate_check():
    start = time.monotonic()
    gamma = 0.01
    rows = coordinate_check([64, 256, 1024], depth=3, gamma=gamma, seed=0, samples=32)
    ratios = coordinate_check_ratios(rows)
    for layer, ratio in ratios.items():
        assert ratio <= 2.0, f"layer {layer} max/min ratio {ratio}"
    for r in rows:
        assert gamma / 3 <= r.rms_dpreact <= 3 * gamma, (
            f"width {r.width} layer {r.layer} rms {r.rms_dpreact}"
        )
    assert time.monotonic() - start < 120.0


@criterion(11, "optimal stepsize transfers across width within one grid step")
def test_criterion_11_lr_transfer():
    problem = SyntheticClassification(
        dim=32, classes=8, clusters=2, noise=1.0, train_size=512, test_size=256, seed=0
    )
    grid = [0.005 * 2.0**i for i in range(8)]
    report = lr_transfer_sweep([128, 512], grid, problem, epochs=4, seed=0,
                               alpha=0.1, batch_size=128)
    assert report.max_log2_spread() <= 1.0, f"spread {report.max_log2_spread()}"


@criterion(12, "every command writes byte-identical CSVs for the same config and seed")
def test_criterion_12_determinism(tmp_path):
    from lmopt.cli import main

    cases = {
        "lmo-check": ["--set", "trials=10", "--set", "max_dim=12"],
        "train": ["--set", "optimizer.steps=10", "--set", "problem.train_size=48",
                  "--set", "optimizer.batch_size=24"],
        "coord-check": ["--set", "widths=8,16", "--set", "samples=2",
                        "--set", "input_dim=8", "--set", "classes=3"],
        "sweep": ["--set", "widths=8,16", "--set", "gamma.count=2",
                  "--set", "epochs=1", "--set", "problem.train_size=48",
                  "--set", "problem.test_size=24", "--set", "batch_size=24"],
        "rate": ["--set", "n_list=20,40", "--set", "trials=2"],
    }
    for command, args in cases.items():
        out1 = str(tmp_path / command / "a")
        out2 = str(tmp_path / command / "b")
        assert main([command, "--seed", "3", "--out", out1, *args]) == 0
        assert main([command, "--seed", "3", "--out", out2, *args]) == 0
        csvs = sorted(n for n in os.listdir(out1) if n.endswith(".csv"))
        assert csvs and csvs == sorted(n for n in os.listdir(out2) if n.endswith(".csv"))
        for name in csvs:
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, f"{command} CSV differs between identical runs"
