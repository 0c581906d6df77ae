import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lmopt import optim
from lmopt.linalg import LowRank, derive_seed, rng_gaussian
from lmopt.models import Domain, build_config, init_model
from lmopt.norms import (
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    lmo,
)
from lmopt.optim import (
    CERTIFICATE_ROUNDING,
    FEASIBILITY_SLACK,
    RULES,
    Algo,
    AlphaKind,
    Buffer,
    GammaKind,
    Move,
    OptimizerState,
    Rule,
    ScheduleSpec,
    alpha_at,
    gamma_at,
    rule_for,
    step,
    theory_gamma,
)


def mixed_spec():
    """One atom of every matrix kind plus a vector atom, various radii."""
    return ModelNormSpec(
        (
            NormSpec(NormKind.SPECTRAL, 1.0, 6, 4),
            NormSpec(NormKind.SIGN, 0.5, 3, 5),
            NormSpec(NormKind.COL_NORM, 2.0, 4, 3),
            NormSpec(NormKind.ROW_NORM, 1.5, 3, 4),
            NormSpec.vector(NormKind.EUCLIDEAN_VEC, 7, radius=1.0),
        )
    )


def random_params(spec, seed, scale=1.0):
    out = []
    for i, atom in enumerate(spec.atoms):
        if atom.is_vector:
            out.append(scale * rng_gaussian(atom.d_out, 1, derive_seed(seed, i))[:, 0])
        else:
            out.append(scale * rng_gaussian(atom.d_out, atom.d_in, derive_seed(seed, i)))
    return out


def gradient_stream(spec, seed, steps):
    return [random_params(spec, derive_seed(seed, 1000 + k)) for k in range(steps)]


def boundary_params(spec, seed):
    from lmopt.norms import model_lmo

    return model_lmo(random_params(spec, seed), spec)


def rule_step(algo, x, state, g, gamma, alpha, spec, **params):
    """optim.step under the algo's rule, returning only the new parameters."""
    return step(x, state, g, gamma, alpha, spec, rule_for(algo, **params))[0]


def assert_close_lists(a, b, tol=1e-10):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, atol=tol, rtol=0.0)


def averaged_buffer(d, g, alpha, spec, borrowed=False):
    """The gradient estimate d_k that optim.step forms from buffer d and gradient g
    under uSCG's AVERAGE row, from a zero iterate. SCG and uSCG-WD form d_k the same
    way and differ only in their move."""
    x = [np.zeros(np.shape(gi)) for gi in g]
    state = OptimizerState(d=d, borrowed=borrowed)
    return step(x, state, g, 0.1, alpha, spec, RULES[Algo.USCG])[1]


def vector_spec(dim):
    return ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, dim),))


class TestAveragedBuffer:
    def test_alpha_one_returns_gradient(self):
        d = [np.array([5.0, -2.0])]
        g = [np.array([1.0, 1.0])]
        assert_close_lists(averaged_buffer(d, g, 1.0, vector_spec(2)), g, tol=0.0)

    def test_alpha_one_returns_gradient_arrays_untouched(self):
        spec = ModelNormSpec(
            (NormSpec(NormKind.SPECTRAL, 1.0, 3, 2), NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2))
        )
        d = [np.full((3, 2), np.nan), np.array([5.0, -2.0])]
        g = [LowRank(np.ones((3, 1)), np.ones((2, 1))), np.array([-0.0, 1.0])]
        out = averaged_buffer(d, g, 1.0, spec)
        assert len(out) == 2 and all(o is gi for o, gi in zip(out, g))

    def test_convex_combination(self):
        d = [np.array([1.0, 1.0])]
        g = [np.array([0.0, 2.0])]
        out = averaged_buffer(d, g, 0.1, vector_spec(2))
        np.testing.assert_allclose(out[0], [0.9, 1.1])

    def test_fixed_point(self):
        g = [np.array([2.0, -1.0])]
        out = averaged_buffer([gi.copy() for gi in g], g, 0.5, vector_spec(2))
        assert_close_lists(out, g, tol=0.0)

    def test_written_into_owned_buffer(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2), NormSpec(NormKind.SIGN, 1.0, 1, 1))
        )
        d = [np.array([1.0, 1.0]), np.array([[4.0]])]
        g = [np.array([0.0, 2.0]), np.array([[-4.0]])]
        out = averaged_buffer(d, g, 0.25, spec)
        assert all(o is di for o, di in zip(out, d))
        np.testing.assert_array_equal(d[1], [[2.0]])

    def test_borrowed_buffer_left_alone(self):
        # Arrays the state does not own get one fresh buffer with the same bits.
        d = [np.array([1.0, 1.0])]
        g = [np.array([0.0, 2.0])]
        out = averaged_buffer(d, g, 0.1, vector_spec(2), borrowed=True)
        assert not np.shares_memory(out[0], d[0])
        np.testing.assert_array_equal(d[0], [1.0, 1.0])
        np.testing.assert_array_equal(out[0], (1.0 - 0.1) * d[0] + 0.1 * g[0])

    def test_shape_mismatch(self):
        x, rule = [np.zeros(2)], RULES[Algo.USCG]
        with pytest.raises(ValueError, match="shapes"):
            step(x, OptimizerState.init(x), [np.zeros(3)], 0.1, 0.5, vector_spec(2), rule)

    def test_buffer_shape_mismatch(self):
        # A (2,) buffer would take a (1,) gradient by broadcasting; the step rejects it.
        with pytest.raises(ValueError, match="shapes"):
            averaged_buffer([np.zeros(2)], [np.ones(1)], 0.5, vector_spec(1))

    def test_alpha_range(self):
        x, rule = [np.zeros(2)], RULES[Algo.USCG]
        with pytest.raises(ValueError, match="alpha must be in"):
            step(x, OptimizerState.init(x), [np.zeros(2)], 0.1, 0.0, vector_spec(2), rule)


class TestUscg:
    def test_single_sign_layer(self):
        spec = ModelNormSpec((NormSpec(NormKind.SIGN, 1.0, 1, 2),))
        x = [np.zeros((1, 2))]
        state = OptimizerState.init(x)
        g = [np.array([[2.0, -3.0]])]
        x = step(x, state, g, gamma=0.5, alpha=1.0, spec=spec, rule=RULES[Algo.USCG])[0]
        np.testing.assert_allclose(x[0], [[-0.5, 0.5]])

    def test_zero_gradient_freezes(self):
        spec = mixed_spec()
        x = random_params(spec, 1)
        state = OptimizerState.init(x)
        zeros = [np.zeros_like(p) for p in x]
        x2 = step(x, state, zeros, gamma=0.3, alpha=0.5, spec=spec, rule=RULES[Algo.USCG])[0]
        assert_close_lists(x2, x, tol=0.0)

    def test_displacement_bound_500_steps(self):
        spec = mixed_spec()
        x0 = random_params(spec, 3)
        x = [p.copy() for p in x0]
        state = OptimizerState.init(x)
        schedule = ScheduleSpec(
            horizon=500, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.05, alpha0=0.2
        )
        total = 0.0
        for k, g in enumerate(gradient_stream(spec, 17, 500), start=1):
            gamma = gamma_at(schedule, k)
            x = step(x, state, g, gamma, alpha_at(schedule, k), spec, RULES[Algo.USCG])[0]
            total += gamma
        disp = [xi - x0i for xi, x0i in zip(x, x0)]
        assert composite_norm(disp, spec) <= total + 1e-8

    def test_gradient_scale_invariance_of_trajectory(self):
        spec = mixed_spec()
        stream = gradient_stream(spec, 23, 60)
        results = []
        for c in (1.0, 7.3):
            x = random_params(spec, 5)
            state = OptimizerState.init(x)
            for k, g in enumerate(stream, start=1):
                scaled = [c * gi for gi in g]
                x = step(x, state, scaled, 0.02, 0.1, spec, RULES[Algo.USCG])[0]
            results.append(x)
        assert_close_lists(results[0], results[1], tol=1e-10)

    def test_scg_trajectory_also_scale_invariant(self):
        spec = mixed_spec()
        stream = gradient_stream(spec, 24, 60)
        results = []
        for c in (1.0, 7.3):
            x = boundary_params(spec, 5)
            state = OptimizerState.init(x)
            for g in stream:
                scaled = [c * gi for gi in g]
                x = step(x, state, scaled, 0.05, 0.2, spec, RULES[Algo.SCG])[0]
            results.append(x)
        assert_close_lists(results[0], results[1], tol=1e-10)


class TestScg:
    def test_convex_combination_example(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2),)
        )
        x = [np.array([1.0, 0.0])]
        state = OptimizerState.init(x)
        # gradient pointing along +x so lmo(d) = [-1, 0]
        g = [np.array([1.0, 0.0])]
        x = step(x, state, g, gamma=0.5, alpha=1.0, spec=spec, rule=RULES[Algo.SCG])[0]
        np.testing.assert_allclose(x[0], [0.0, 0.0], atol=1e-15)

    def test_gamma_one_lands_on_boundary(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3, radius=2.0),)
        )
        x = [np.zeros(3)]
        state = OptimizerState.init(x)
        g = [np.array([1.0, 2.0, -2.0])]
        x = step(x, state, g, gamma=1.0, alpha=1.0, spec=spec, rule=RULES[Algo.SCG])[0]
        assert composite_norm(x, spec) == pytest.approx(1.0)
        np.testing.assert_allclose(x[0], lmo(g[0], spec.atoms[0]))

    def test_feasibility_500_steps(self):
        spec = mixed_spec()
        x = boundary_params(spec, 11)
        assert composite_norm(x, spec) == pytest.approx(1.0, abs=1e-9)
        state = OptimizerState.init(x)
        for k, g in enumerate(gradient_stream(spec, 29, 500), start=1):
            x = step(x, state, g, 0.05, 0.3, spec, RULES[Algo.SCG])[0]
            assert composite_norm(x, spec) <= 1.0 + 1e-8

    def test_infeasible_start_rejected(self):
        spec = mixed_spec()
        x = [3.0 * p for p in boundary_params(spec, 13)]
        state = OptimizerState.init(x)
        g = random_params(spec, 14)
        with pytest.raises(ValueError, match="feasible"):
            step(x, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])


    def test_one_infeasible_trial_in_a_stack_rejected(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 6, radius=2.0),)
        )
        rows = rng_gaussian(6, 1, [derive_seed(15, t) for t in range(4)])[..., 0]
        x = [2.0 * rows / np.linalg.norm(rows, axis=1, keepdims=True)]
        g = [rng_gaussian(6, 1, [derive_seed(16, t) for t in range(4)])[..., 0]]
        step(x, OptimizerState.init(x), g, 0.1, 0.5, spec, RULES[Algo.SCG])
        x[0][2] *= 1.5
        with pytest.raises(ValueError, match="feasible"):
            step(x, OptimizerState.init(x), g, 0.1, 0.5, spec, RULES[Algo.SCG])


@pytest.fixture
def norm_calls(monkeypatch):
    """Counts the kernel's exact composite-norm measurements."""
    calls = []

    def counting(params, spec):
        calls.append(len(params))
        return composite_norm(params, spec)

    monkeypatch.setattr(optim, "composite_norm", counting)
    return calls


class TestScgCertificate:
    def test_fresh_state_measures_then_vouches(self, norm_calls):
        spec = mixed_spec()
        x = boundary_params(spec, 70)
        state = OptimizerState.init(x)
        assert state.certificate is None
        for k, g in enumerate(gradient_stream(spec, 71, 20), start=1):
            x = step(x, state, g, 0.05, 0.3, spec, RULES[Algo.SCG])[0]
            assert len(norm_calls) == 1, k
            assert all(c is p for c, p in zip(state.certificate.x, x, strict=True))
            assert composite_norm(x, spec) <= state.certificate.bound <= 1.0 + 1e-10

    def test_other_infeasible_arrays_still_rejected(self, norm_calls):
        spec = mixed_spec()
        x = boundary_params(spec, 72)
        state = OptimizerState.init(x)
        g = random_params(spec, 73)
        vouched = step(x, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        infeasible = [3.0 * p for p in vouched]
        for p in infeasible:
            p.flags.writeable = False
        with pytest.raises(ValueError, match="feasible"):
            step(infeasible, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])
        assert len(norm_calls) == 2
        # The rejected step left the certificate standing for the arrays it names.
        step(list(vouched), state, g, 0.1, 0.5, spec, RULES[Algo.SCG])
        assert len(norm_calls) == 2

    def test_newton_schulz_measures_every_step(self, norm_calls):
        spec = ModelNormSpec((NormSpec(NormKind.SPECTRAL, 1.0, 6, 4),))
        x = [0.5 * p for p in boundary_params(spec, 74)]
        state = OptimizerState.init(x)
        for k, g in enumerate(gradient_stream(spec, 75, 5), start=1):
            x = step(x, state, g, 0.1, 0.3, spec, RULES[Algo.SCG], ns_iters=5)[0]
            assert len(norm_calls) == k
            assert state.certificate is None

    def test_outputs_are_read_only(self):
        spec = mixed_spec()
        x = boundary_params(spec, 76)
        g = random_params(spec, 77)
        out = step(x, OptimizerState.init(x), g, 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        for p in out:
            assert not p.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p[...] = 10.0

    def test_writeable_again_is_measured(self, norm_calls):
        spec = mixed_spec()
        x = boundary_params(spec, 78)
        state = OptimizerState.init(x)
        g = random_params(spec, 79)
        x = step(x, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        x[0].flags.writeable = True
        x[0] *= 3.0
        with pytest.raises(ValueError, match="feasible"):
            step(x, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])
        assert len(norm_calls) == 2

    def test_other_spec_is_measured(self, norm_calls):
        spec = mixed_spec()
        x = boundary_params(spec, 80)
        state = OptimizerState.init(x)
        g = random_params(spec, 81)
        x = step(x, state, g, 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        shrunk = ModelNormSpec(tuple(
            replace(atom, radius=atom.radius / 4) for atom in spec.atoms
        ))
        with pytest.raises(ValueError, match="feasible"):
            step(x, state, g, 0.1, 0.5, shrunk, RULES[Algo.SCG])
        assert len(norm_calls) == 2

    def test_bound_past_slack_measures_once_and_resets(self, norm_calls):
        spec = mixed_spec()
        x = boundary_params(spec, 82)
        state = OptimizerState.init(x)
        stream = gradient_stream(spec, 83, 3)
        x = step(x, state, stream[0], 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        state.certificate = replace(state.certificate, bound=1.0 + 2 * FEASIBILITY_SLACK)
        measured = float(np.max(composite_norm(x, spec)))
        x = step(x, state, stream[1], 0.1, 0.5, spec, RULES[Algo.SCG])[0]
        assert len(norm_calls) == 2
        assert state.certificate.bound == 0.9 * measured + 0.1 + CERTIFICATE_ROUNDING
        step(x, state, stream[2], 0.1, 0.5, spec, RULES[Algo.SCG])
        assert len(norm_calls) == 2

    def test_stacked_rows_vouched(self, norm_calls):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 6, radius=2.0),)
        )
        rows = rng_gaussian(6, 1, [derive_seed(84, t) for t in range(4)])[..., 0]
        x = [2.0 * rows / np.linalg.norm(rows, axis=1, keepdims=True)]
        state = OptimizerState.init(x)
        for k in range(5):
            g = [rng_gaussian(6, 1, [derive_seed(85, k, t) for t in range(4)])[..., 0]]
            x = step(x, state, g, 0.2, 0.5, spec, RULES[Algo.SCG])[0]
            assert np.max(composite_norm(x, spec)) <= state.certificate.bound
        assert len(norm_calls) == 1

    @pytest.mark.parametrize("algo", [a for a in Algo if a is not Algo.SCG])
    def test_other_moves_return_writeable_arrays(self, algo):
        spec = mixed_spec()
        x = random_params(spec, 86)
        state = OptimizerState.init(x)
        for g in gradient_stream(spec, 87, 2):
            x = rule_step(algo, x, state, g, 0.1, 0.5, spec)
            assert all(p.flags.writeable for p in x)
        assert state.certificate is None


def _memory(arrays):
    """The arrays, with each LowRank as its two factors."""
    for a in arrays:
        yield from ((a.left, a.right) if isinstance(a, LowRank) else (a,))


def _raw_bytes(arrays):
    """The raw bytes of every array and factor, to compare bit for bit."""
    return [np.asarray(p).tobytes() for p in _memory(arrays)]


class TestStepOwnership:
    """The moves are written into the oracle's fresh outputs, and the buffer is the
    state's own: a step writes none of the caller's parameters or gradients, leaves
    no buffer array sharing memory with them (but for the gradient an AVERAGE step
    at alpha = 1 hands through), and returns parameters that share no memory with
    any of them."""

    def assert_owned(self, x, g, state, gamma, alpha, spec, rule, ns_iters=None):
        before = _raw_bytes(x), _raw_bytes(g)
        new, _ = step(x, state, g, gamma, alpha, spec, rule, ns_iters)
        assert (_raw_bytes(x), _raw_bytes(g)) == before
        for p in new:
            for other in _memory([*x, *g, *state.d]):
                assert not np.shares_memory(p, other)
        handed_through = rule.buffer is Buffer.AVERAGE and alpha == 1.0
        for d in _memory(state.d):
            for other in _memory([*x] if handed_through else [*x, *g]):
                assert not np.shares_memory(d, other)
        return new

    @pytest.mark.parametrize("ns_iters", [None, 5])
    @pytest.mark.parametrize("algo", list(RULES))
    def test_every_rule_writes_nothing_it_does_not_own(self, algo, ns_iters):
        spec = mixed_spec()
        x = [0.5 * p for p in boundary_params(spec, 88)]  # feasible for SCG
        state = OptimizerState.init(x)
        for g in gradient_stream(spec, 89, 3):
            x = self.assert_owned(x, g, state, 0.3, 0.5, spec, RULES[algo], ns_iters)

    @pytest.mark.parametrize("algo", list(RULES))
    def test_stacked_rows_write_nothing_they_do_not_own(self, algo):
        spec = ModelNormSpec((NormSpec.vector(NormKind.RMS_VEC, 5, radius=2.0),))
        x = [np.zeros((3, 5))]
        state = OptimizerState.init(x)
        for k in range(3):
            g = [rng_gaussian(5, 1, [derive_seed(90, k, t) for t in range(3)])[..., 0]]
            x = self.assert_owned(x, g, state, 0.3, 0.5, spec, RULES[algo])

    @pytest.mark.parametrize(
        "algo", [a for a in Algo if RULES[a].buffer is Buffer.AVERAGE]
    )
    def test_factored_gradient_at_alpha_one(self, algo):
        # coordinate_check's route: one step from a fresh state at alpha = 1, which
        # hands each LowRank weight gradient to the oracle as its factors.
        spec = ModelNormSpec(
            (NormSpec(NormKind.SPECTRAL, 1.0, 6, 4), NormSpec.vector(NormKind.RMS_VEC, 6))
        )
        x = [0.5 * p for p in boundary_params(spec, 91)]
        left, right = rng_gaussian(6, 2, 92), rng_gaussian(4, 2, 93)
        g = [LowRank(left, right), rng_gaussian(6, 1, 94)[:, 0]]
        self.assert_owned(x, g, OptimizerState.init(x), 0.3, 1.0, spec, RULES[algo])

    @pytest.mark.parametrize(
        "algo", [a for a in Algo if RULES[a].buffer in (Buffer.AVERAGE, Buffer.ORIENTED)]
    )
    def test_step_after_alpha_one_writes_no_gradient(self, algo):
        # An AVERAGE step at alpha = 1 leaves the gradient's own arrays in the buffer;
        # the next update forms a fresh buffer rather than write into them.
        spec = mixed_spec()
        x = [0.5 * p for p in boundary_params(spec, 95)]
        state = OptimizerState.init(x)
        g1, g2 = gradient_stream(spec, 96, 2)
        g1_bytes = _raw_bytes(g1)
        x = self.assert_owned(x, g1, state, 0.3, 1.0, spec, RULES[algo])
        self.assert_owned(x, g2, state, 0.3, 0.5, spec, RULES[algo])
        assert _raw_bytes(g1) == g1_bytes
        for d in state.d:
            for gi in g1:
                assert not np.shares_memory(d, gi)


class TestFactoredGradient:
    """A LowRank weight gradient reaches the oracle where the rule does no arithmetic
    on it: the AVERAGE buffer at alpha = 1, the ORIENTED buffer and SSD. A step that
    would scale one, in g or in the buffer an averaged alpha = 1 step left it (the
    AVERAGE buffer at alpha < 1, every ACCUMULATE step), raises ValueError naming its
    atom and the buffer before it writes anything, so the state is unchanged."""

    AVERAGE_ROWS = {Algo.USCG, Algo.SCG, Algo.USCG_WD}
    ACCUMULATE_ROWS = {Algo.MUON_PLAIN, Algo.MUON_NESTEROV, Algo.USCG_LIGHT}
    # the LowRank on the second atom, so a late rejection would show in the first's buffer
    SPEC = ModelNormSpec(
        (NormSpec.vector(NormKind.RMS_VEC, 6), NormSpec(NormKind.SPECTRAL, 1.0, 6, 4))
    )

    def gradient(self, seed, factored):
        g = LowRank(rng_gaussian(6, 2, seed), rng_gaussian(4, 2, seed + 1))
        return [rng_gaussian(6, 1, seed + 2)[:, 0], g if factored else g.dense()]

    def snapshot(self, state):
        return ([id(d) for d in state.d], _raw_bytes(state.d), state.alpha,
                state.borrowed, state.certificate)

    def rejects(self, algo, alpha, factored, after):
        if algo in self.ACCUMULATE_ROWS:
            return factored
        return algo in self.AVERAGE_ROWS and alpha < 1.0 and (factored or after)

    def run(self, algo, alpha, factored, after, lowrank):
        """The step under test, with every LowRank gradient dense unless `lowrank`:
        (new x, d_k, state) or the ValueError and the state's snapshot before it."""
        rule = rule_for(algo)
        x = [0.5 * p for p in boundary_params(self.SPEC, 98)]  # feasible for SCG
        state = OptimizerState.init(x)
        if after:  # a factored step at alpha = 1 first; an accumulated buffer rejects it
            g1 = self.gradient(99, lowrank)
            if algo not in self.ACCUMULATE_ROWS:
                x, _ = step(x, state, g1, 0.3, 1.0, self.SPEC, rule)
            elif lowrank:
                with pytest.raises(ValueError, match="LowRank at atom 1"):
                    step(x, state, g1, 0.3, 1.0, self.SPEC, rule)
        g = self.gradient(101, factored and lowrank)
        before = self.snapshot(state)
        try:
            new, d_k = step(x, state, g, 0.3, alpha, self.SPEC, rule)
        except ValueError as exc:
            return exc, before, state
        return new, d_k, state

    @pytest.mark.parametrize("after", [False, True], ids=["fresh", "after_factored_step"])
    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "dense"])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("algo", list(Algo))
    def test_every_row(self, algo, alpha, factored, after):
        got = self.run(algo, alpha, factored, after, lowrank=True)
        if self.rejects(algo, alpha, factored, after):
            exc, before, state = got
            assert isinstance(exc, ValueError)
            assert f"the {RULES[algo].buffer.value} buffer" in str(exc)
            assert "LowRank at atom 1" in str(exc)
            assert self.snapshot(state) == before
            return
        # the same matrices held dense take the dense SVD, so agree to rounding
        want = self.run(algo, alpha, factored, after, lowrank=False)
        for a, b in zip(got[:2], want[:2]):  # the new parameters, then d_k
            a = [ai.dense() if isinstance(ai, LowRank) else ai for ai in a]
            assert_close_lists(a, b, tol=1e-12)


class TestStepMemory:
    """tracemalloc over one step (the third, exact lmo) on a 16-256-256-4 IMAGE
    model, whose 256 x 256 spectral atom holds 93 % of the parameters, in units of
    one parameter set. The buffer is updated in place and the exact lmo keeps no
    transient copy of its SVD factors, so the peak is the new parameters and the
    factors of the largest atom, plus one look-ahead for Nesterov."""

    @pytest.mark.parametrize("algo", list(Algo))
    def test_peak_and_retained_per_rule(self, algo):
        model = init_model(build_config(Domain.IMAGE, (16, 256, 256, 4)), 0)
        x, spec = model.parameters(), model.norm_spec()
        pset = sum(p.nbytes for p in x)
        stream = [
            [rng_gaussian(*np.shape(p), derive_seed(97, k, i)) for i, p in enumerate(x)]
            for k in range(3)
        ]
        state = OptimizerState.init(x)
        for g in stream[:2]:
            x, _ = step(x, state, g, 0.1, 0.5, spec, RULES[algo])
        buffer = list(state.d)
        tracemalloc.start()
        try:
            new, d_k = step(x, state, stream[2], 0.1, 0.5, spec, RULES[algo])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / pset <= (4.0 if RULES[algo].nesterov else 3.0)
        # Besides the new parameters and a rescaled d_k, the step keeps nothing: the
        # state retains the one buffer it had.
        fresh = [di for di in d_k if not any(di is a for a in [*state.d, *stream[2]])]
        kept = current - sum(p.nbytes for p in [*new, *fresh])
        assert kept / pset < 0.05
        assert all(a is b for a, b in zip(state.d, buffer))


class TestWeightDecay:
    def test_mu_zero_equals_uscg(self):
        spec = mixed_spec()
        stream = gradient_stream(spec, 31, 40)
        xa = random_params(spec, 6)
        xb = [p.copy() for p in xa]
        sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
        for g in stream:
            xa = step(xa, sa, g, 0.03, 0.2, spec, RULES[Algo.USCG])[0]
            xb = rule_step(Algo.USCG_WD, xb, sb, g, 0.03, 0.2, spec, mu=0.0)
        assert_close_lists(xa, xb, tol=0.0)

    def test_mu_one_equals_scg(self):
        spec = mixed_spec()
        stream = gradient_stream(spec, 37, 40)
        xa = boundary_params(spec, 7)
        xb = [p.copy() for p in xa]
        sa = OptimizerState.init(xa)
        sb = OptimizerState.init(xb)
        for g in stream:
            xa = step(xa, sa, g, 0.05, 0.2, spec, RULES[Algo.SCG])[0]
            xb = rule_step(Algo.USCG_WD, xb, sb, g, 0.05, 0.2, spec, mu=1.0)
        assert_close_lists(xa, xb, tol=1e-12)

    def test_interpolation_matches_rescaled_constrained_run(self):
        # decay mu on the unit ball == constrained method on the ball of radius 1/mu
        # with stepsize gamma * mu, over 100 steps from the same start
        mu, gamma = 0.5, 0.01
        base = mixed_spec()
        inflated = ModelNormSpec(
            tuple(
                NormSpec(
                    kind=atom.kind,
                    radius=atom.radius / mu,
                    d_out=atom.d_out,
                    d_in=atom.d_in,
                )
                for atom in base.atoms
            )
        )
        stream = gradient_stream(base, 41, 100)
        xa = random_params(base, 8, scale=0.05)
        xb = [p.copy() for p in xa]
        sa = OptimizerState.init(xa)
        sb = OptimizerState.init(xb)
        for g in stream:
            xa = rule_step(Algo.USCG_WD, xa, sa, g, gamma, 0.15, base, mu=mu)
            xb = step(xb, sb, g, gamma * mu, 0.15, inflated, RULES[Algo.SCG])[0]
        assert_close_lists(xa, xb, tol=1e-10)


class TestAlmond:
    def test_first_step(self):
        spec = ModelNormSpec((NormSpec(NormKind.SIGN, 1.0, 1, 2),))
        x = [np.zeros((1, 2))]
        state = OptimizerState.init(x)
        g = [np.array([[2.0, -3.0]])]
        x = rule_step(Algo.ALMOND, x, state, g, 0.1, 0.5, spec)
        np.testing.assert_allclose(state.d[0], [[-0.5, 0.5]])
        np.testing.assert_allclose(x[0], 0.1 * state.d[0])

    def test_direction_stays_in_ball(self):
        spec = mixed_spec()
        x = random_params(spec, 9)
        state = OptimizerState.init(x)
        for g in gradient_stream(spec, 43, 120):
            x = rule_step(Algo.ALMOND, x, state, g, 0.05, 0.3, spec)
            assert composite_norm(state.d, spec) <= 1.0 + 1e-9

    def test_direction_decays_geometrically_without_gradient(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3),)
        )
        x = [np.zeros(3)]
        state = OptimizerState.init(x)
        g = [np.array([1.0, 2.0, 2.0])]
        x = rule_step(Algo.ALMOND, x, state, g, 0.1, 0.25, spec)
        d0 = np.linalg.norm(state.d[0])
        zeros = [np.zeros(3)]
        for k in range(1, 6):
            x = rule_step(Algo.ALMOND, x, state, zeros, 0.1, 0.25, spec)
            assert np.linalg.norm(state.d[0]) == pytest.approx(d0 * 0.75**k)


def muon(x, state, g, gamma, beta, nesterov, spec):
    """A Muon step; its rows keep beta of the buffer and ignore alpha."""
    algo = Algo.MUON_NESTEROV if nesterov else Algo.MUON_PLAIN
    return rule_step(algo, x, state, g, gamma, 1.0, spec, beta=beta)


class TestMuon:
    def test_plain_equals_uscg_with_matching_alpha(self):
        spec = mixed_spec()
        beta = 0.9
        stream = gradient_stream(spec, 47, 120)
        xa = random_params(spec, 10)
        xb = [p.copy() for p in xa]
        sa = OptimizerState.init(xa)
        sb = OptimizerState.init(xb)
        for g in stream:
            xa = step(xa, sa, g, 0.02, 1.0 - beta, spec, RULES[Algo.USCG])[0]
            xb = muon(xb, sb, g, 0.02, beta, False, spec)
        assert_close_lists(xa, xb, tol=1e-10)

    def test_beta_zero_is_lmo_of_fresh_gradient(self):
        spec = mixed_spec()
        stream = gradient_stream(spec, 53, 10)
        for nesterov in (False, True):
            x = random_params(spec, 11)
            state = OptimizerState.init(x)
            xref = [p.copy() for p in x]
            for g in stream:
                x = muon(x, state, g, 0.05, 0.0, nesterov, spec)
                from lmopt.norms import model_lmo

                xref = [xi + 0.05 * li for xi, li in zip(xref, model_lmo(g, spec))]
            assert_close_lists(x, xref, tol=1e-12)

    def test_nesterov_differs_from_plain_on_scripted_gradients(self):
        # hand-rolled recursions on two fixed gradients
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 2),)
        )
        g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        beta = 0.9

        def norm1(v):
            return v / np.linalg.norm(v)

        # plain: steps along G1 = g1, G2 = g2 + beta g1
        plain = -0.1 * (norm1(g1) + norm1(g2 + beta * g1))
        # nesterov: steps along g1 + beta*G1, then g2 + beta*G2
        nest = -0.1 * (norm1(g1 + beta * g1) + norm1(g2 + beta * (g2 + beta * g1)))
        for nesterov, expected in ((False, plain), (True, nest)):
            x = [np.zeros(2)]
            state = OptimizerState.init(x)
            x = muon(x, state, [g1], 0.1, beta, nesterov, spec)
            x = muon(x, state, [g2], 0.1, beta, nesterov, spec)
            np.testing.assert_allclose(x[0], expected, atol=1e-14)
        assert np.linalg.norm(plain - nest) > 1e-3


def ssd(x, g, gamma, spec):
    """A steepest-descent step; the rule keeps no buffer and ignores alpha."""
    return rule_step(Algo.SSD, x, OptimizerState.init(x), g, gamma, 1.0, spec)


class TestSsd:
    def test_euclidean_reduces_to_gradient_descent(self):
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3, radius=2.5),)
        )
        x = [np.array([1.0, -1.0, 2.0])]
        g = [np.array([0.5, 0.25, -1.0])]
        out = ssd(x, g, 0.1, spec)
        np.testing.assert_allclose(out[0], x[0] - 0.1 * g[0], atol=1e-14)

    def test_maxvec_reduces_to_scaled_sign(self):
        spec = ModelNormSpec((NormSpec.vector(NormKind.MAX_VEC, 2),))
        x = [np.array([1.0, 1.0])]
        g = [np.array([2.0, -1.0])]
        out = ssd(x, g, 0.1, spec)
        np.testing.assert_allclose(out[0], x[0] - 0.1 * 3.0 * np.sign(g[0]))

    def test_zero_gradient(self):
        spec = mixed_spec()
        x = random_params(spec, 12)
        out = ssd(x, [np.zeros_like(p) for p in x], 0.1, spec)
        assert_close_lists(out, x, tol=0.0)

    def test_trajectory_scales_with_gradients(self):
        # the contrast with the lmo methods: scaling the stream scales the motion
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 4),)
        )
        stream = gradient_stream(spec, 59, 20)
        base = [np.zeros(4)]
        scaled = [np.zeros(4)]
        for g in stream:
            base = ssd(base, g, 0.05, spec)
            scaled = ssd(scaled, [3.0 * gi for gi in g], 0.05, spec)
        np.testing.assert_allclose(scaled[0], 3.0 * base[0], atol=1e-12)
        assert np.linalg.norm(base[0]) > 0


class TestScionLight:
    def test_matches_uscg_over_50_steps(self):
        spec = mixed_spec()
        alpha = 0.1
        stream = gradient_stream(spec, 61, 50)
        xa = random_params(spec, 13)
        xb = [p.copy() for p in xa]
        state = OptimizerState.init(xa)
        sb = OptimizerState.init(xb)
        for g in stream:
            xa = step(xa, state, g, 0.03, alpha, spec, RULES[Algo.USCG])[0]
            xb = rule_step(Algo.USCG_LIGHT, xb, sb, g, 0.03, alpha, spec)
        assert_close_lists(xa, xb, tol=1e-10)

    def test_alpha_one_zeroes_buffer(self):
        # alpha = 1 keeps none of the accumulated buffer: it holds the latest gradient
        spec = ModelNormSpec(
            (NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3),)
        )
        x = [np.zeros(3)]
        state = OptimizerState.init(x)
        g1, g2 = [np.array([1.0, 2.0, -1.0])], [np.array([0.5, -1.0, 3.0])]
        x = rule_step(Algo.USCG_LIGHT, x, state, g1, 0.1, 1.0, spec)
        x = rule_step(Algo.USCG_LIGHT, x, state, g2, 0.1, 1.0, spec)
        np.testing.assert_array_equal(state.d[0], g2[0])


class TestRuleTable:
    def test_every_algo_has_a_row(self):
        assert set(RULES) == set(Algo)
        assert all(isinstance(rule, Rule) for rule in RULES.values())

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            rule_for("nope")

    def test_parameters_set_only_where_used(self):
        assert rule_for(Algo.USCG_WD, mu=0.25).mu == 0.25
        assert rule_for(Algo.MUON_NESTEROV, beta=0.5).beta == 0.5
        assert rule_for(Algo.USCG, mu=0.25, beta=0.5) == RULES[Algo.USCG]
        assert rule_for(Algo.USCG_LIGHT, beta=0.5).beta is None

    @pytest.mark.parametrize(
        "algo, params, what",
        [
            (Algo.USCG_WD, dict(mu=1.5), "mu"),
            (Algo.USCG_WD, dict(mu=-0.1), "mu"),
            (Algo.MUON_PLAIN, dict(beta=1.0), "beta"),
            (Algo.MUON_NESTEROV, dict(beta=-0.5), "beta"),
        ],
    )
    def test_parameter_ranges_checked_when_built(self, algo, params, what):
        with pytest.raises(ValueError, match=what):
            rule_for(algo, **params)

    def test_nesterov_needs_accumulated_buffer(self):
        with pytest.raises(ValueError, match="Nesterov"):
            Rule(Buffer.AVERAGE, Move.ADD, nesterov=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("ns_iters", [None, 5])
    @pytest.mark.parametrize("algo", list(Algo))
    def test_every_rule_rejects_a_non_finite_gradient(self, algo, ns_iters, value):
        # Every rule hands the gradient, or a buffer built from it, to the oracle,
        # which rejects a non-finite operand: the quadratic harness relies on this in
        # place of a finiteness check of its own on every step.
        spec = mixed_spec()
        x = [np.zeros_like(p) for p in random_params(spec, 19)]  # feasible for SCG
        for atom in range(len(x)):
            g = random_params(spec, 20)
            g[atom].flat[1] = value
            with pytest.raises(ValueError, match="non-finite"):
                step(x, OptimizerState.init(x), g, 0.1, 0.5, spec, rule_for(algo), ns_iters)

    @pytest.mark.parametrize(
        "algo", [a for a in Algo if RULES[a].move in (Move.ADD, Move.CONVEX, Move.DECAY)]
    )
    def test_oracle_rejection_carries_its_operand(self, algo):
        # The kernel calls the oracle once, on the operand it formed: the buffer it
        # left in the state, or a Nesterov look-ahead built from it. A rejection
        # hands that operand on, so a caller names the failure without forming it again.
        spec = ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3),))
        x = [np.zeros(3)]  # feasible for SCG
        state = OptimizerState.init(x)
        with pytest.raises(ValueError, match="non-finite") as info:
            step(x, state, [np.array([1.0, np.nan, 2.0])], 0.1, 0.5, spec, rule_for(algo))
        operand = info.value.operand
        assert (operand is not state.d) if RULES[algo].nesterov else (operand is state.d)
        assert np.isnan(operand[0][1]) and np.isfinite(operand[0][[0, 2]]).all()

    def test_nesterov_rejection_carries_the_look_ahead(self):
        # From a zero buffer, d = g = 1e308 stays finite, while the look-ahead
        # g + 0.9 d overflows: the operand the oracle rejected is the look-ahead.
        spec = ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3),))
        x = [np.zeros(3)]
        state = OptimizerState.init(x)
        g = [np.full(3, 1e308)]
        with pytest.raises(ValueError, match="non-finite") as info:
            step(x, state, g, 0.1, 0.5, spec, rule_for(Algo.MUON_NESTEROV, beta=0.9))
        assert np.array_equal(state.d[0], g[0])
        assert np.isposinf(info.value.operand[0]).all()

    @pytest.mark.parametrize("gamma, alpha", [(1.5, 0.5), (-0.1, 0.5), (0.1, 0.0)])
    def test_step_ranges_checked(self, gamma, alpha):
        spec = mixed_spec()
        x = random_params(spec, 17)
        with pytest.raises(ValueError):
            step(x, OptimizerState.init(x), x, gamma, alpha, spec, RULES[Algo.SSD])

    @pytest.mark.parametrize("algo", list(Algo))
    def test_parameter_count_must_match_the_spec(self, algo):
        # Three arrays against two atoms: the kernel's zips would drop the third.
        spec = ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, 3),) * 2)
        x = g = [np.ones(3)] * 3
        state = OptimizerState.init(x)
        with pytest.raises(ValueError, match="3 parameter arrays for 2 norm atoms"):
            step(x, state, g, 0.1, 0.5, spec, rule_for(algo))
        assert state.alpha is None and state.certificate is None
        assert all(not d.any() for d in state.d)

    @pytest.mark.parametrize("buffer, param", [((2,), (1,)), ((3, 2), (1, 2))],
                             ids=["vector", "stack"])
    @pytest.mark.parametrize("algo", list(Algo))
    def test_buffer_shape_must_match_on_every_row(self, algo, buffer, param):
        """step checks the buffer's shape against x and g under every rule, before it
        writes: an accumulated buffer would otherwise broadcast a (3, 2) buffer against
        a (1, 2) stack, or be rewritten before the oracle refused it. SSD keeps no
        buffer, yet under the one check a state whose buffer does not match x is
        refused by every row, SSD's too."""
        spec = ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, param[-1]),))
        x, g = [np.zeros(param)], [np.ones(param)]  # x is feasible for SCG
        state = OptimizerState(d=[np.full(buffer, 7.0)], alpha=0.5)
        before = _raw_bytes(state.d), state.alpha, state.certificate
        with pytest.raises(ValueError, match="shapes"):
            step(x, state, g, 0.1, 0.3, spec, rule_for(algo))
        assert (_raw_bytes(state.d), state.alpha, state.certificate) == before

    def test_gradient_estimate_per_buffer(self):
        # d_k is the averaged direction each rule's buffer stands for
        spec = mixed_spec()
        stream = gradient_stream(spec, 71, 3)
        alpha, beta = 0.25, 0.6
        for algo, expected_scale in (
            (Algo.USCG, 1.0),
            (Algo.USCG_LIGHT, alpha),
            (Algo.MUON_PLAIN, 1.0 - beta),
        ):
            x = random_params(spec, 18)
            state = OptimizerState.init(x)
            ref = OptimizerState.init(x).d
            rule = rule_for(algo, beta=beta)
            for g in stream:
                a = alpha if algo is not Algo.MUON_PLAIN else 1.0 - beta
                ref = [(1 - a) * r + a * gi for r, gi in zip(ref, g)]
                x, d_k = step(x, state, g, 0.1, alpha, spec, rule)
                assert_close_lists(d_k, ref, tol=1e-12)
                if algo is not Algo.USCG:
                    assert_close_lists(state.d, [r / expected_scale for r in ref], tol=1e-12)
        for algo in (Algo.ALMOND, Algo.SSD):
            x = random_params(spec, 18)
            _, d_k = step(x, OptimizerState.init(x), stream[0], 0.1, alpha, spec, RULES[algo])
            assert_close_lists(d_k, stream[0], tol=0.0)


class TestSchedules:
    def test_linear_decay_example(self):
        s = ScheduleSpec(horizon=10, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.1)
        assert gamma_at(s, 5) == pytest.approx(0.05)
        assert gamma_at(s, 10) == 0.0

    def test_constant_then_linear(self):
        s = ScheduleSpec(
            horizon=100, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, gamma0=0.2, warmdown=20
        )
        assert gamma_at(s, 50) == 0.2
        assert gamma_at(s, 79) == 0.2
        assert gamma_at(s, 90) == pytest.approx(0.2 * 10 / 20)
        assert gamma_at(s, 100) == 0.0

    def test_vanishing_alpha(self):
        s = ScheduleSpec(horizon=10, alpha_kind=AlphaKind.VANISHING)
        assert alpha_at(s, 1) == 1.0
        assert alpha_at(s, 4) == pytest.approx(0.5)

    def test_out_of_range_step(self):
        s = ScheduleSpec(horizon=10)
        with pytest.raises(ValueError):
            gamma_at(s, 0)
        with pytest.raises(ValueError):
            alpha_at(s, 11)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(horizon=7),
            dict(horizon=7, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.3),
            dict(horizon=7, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, gamma0=0.3, warmdown=1),
            dict(horizon=7, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, gamma0=0.3, warmdown=3),
            dict(horizon=7, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, gamma0=0.3, warmdown=7),
            dict(horizon=1, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, gamma0=1, warmdown=1),
            dict(horizon=7, alpha_kind=AlphaKind.VANISHING),
            dict(horizon=7, alpha_kind=AlphaKind.CONSTANT, alpha0=0.35),
        ],
    )
    def test_array_of_steps_equals_scalar_calls(self, kw):
        s = ScheduleSpec(**kw)
        steps = np.arange(1, s.horizon + 1)
        for fn in (gamma_at, alpha_at):
            values = fn(s, steps)
            assert values.dtype == np.float64 and values.shape == steps.shape
            assert values.tolist() == [fn(s, k) for k in range(1, s.horizon + 1)]
            assert fn(s, steps[::-1]).tolist() == values[::-1].tolist()
            for bad in ([0, 1], [s.horizon, s.horizon + 1]):
                with pytest.raises(ValueError, match="outside schedule horizon"):
                    fn(s, np.array(bad))

    def test_theory_gamma_interval(self):
        g = theory_gamma(256)
        assert g == pytest.approx(0.75 / 64)
        assert 1.0 / (2 * 64) < g < 1.0 / 64
        for n in (100, 400, 1600, 6400):
            assert 1.0 / (2 * n**0.75) < theory_gamma(n) < 1.0 / n**0.75

    def test_theory_gamma_inside_the_rate_interval_up_to_1e6(self):
        # 0.75 n^(-3/4) is 1.5 times the interval's lower end and 0.75 times its upper
        # end, so it lies strictly inside for every horizon.
        for n in np.unique(np.logspace(0, 6, 400).astype(int)).tolist():
            lo, hi = 1.0 / (2.0 * n**0.75), 1.0 / n**0.75
            gamma = theory_gamma(n)
            assert lo < gamma < hi, n
            assert gamma == pytest.approx(1.5 * lo, rel=1e-15)
            assert gamma == pytest.approx(0.75 * hi, rel=1e-15)

    def test_values_clamped_to_range(self):
        s = ScheduleSpec(
            horizon=50, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.3, alpha_kind=AlphaKind.VANISHING
        )
        for k in range(1, 51):
            assert 0.0 <= gamma_at(s, k) <= 0.3
            assert 0.0 < alpha_at(s, k) <= 1.0


class TestStateBookkeeping:
    def test_state_holds_last_alpha(self):
        spec = mixed_spec()
        x = random_params(spec, 14)
        state = OptimizerState.init(x)
        assert state.alpha is None
        for k, g in enumerate(gradient_stream(spec, 67, 5), start=1):
            x = step(x, state, g, 0.1, 1.0 / np.sqrt(k), spec, RULES[Algo.USCG])[0]
            assert state.alpha == 1.0 / np.sqrt(k)

    def test_direction_shapes_mirror_params(self):
        spec = mixed_spec()
        x = random_params(spec, 15)
        state = OptimizerState.init(x)
        step(x, state, random_params(spec, 16), 0.1, 0.5, spec, RULES[Algo.USCG])
        for di, xi in zip(state.d, x):
            assert di.shape == xi.shape


_REJECTIONS = {
    "list_lengths": (
        lambda: step([np.zeros(3)], OptimizerState.init([np.zeros(3)]),
                     [np.zeros(3), np.zeros(3)], 0.1, 0.5,
                     ModelNormSpec((NormSpec.vector(NormKind.RMS_VEC, 3),)), RULES[Algo.USCG]),
        "step: got 1 and 2 entries"),
    "horizon": (lambda: ScheduleSpec(horizon=0), "horizon must be >= 1, got 0"),
    "gamma0": (lambda: ScheduleSpec(horizon=4, gamma0=1.5), r"gamma0 must be in \[0, 1\], got 1.5"),
    "alpha0": (lambda: ScheduleSpec(horizon=4, alpha0=0.0), r"alpha0 must be in \(0, 1\], got 0.0"),
    "warmdown": (
        lambda: ScheduleSpec(horizon=4, gamma_kind=GammaKind.CONSTANT_THEN_LINEAR, warmdown=5),
        "constant-then-linear decay needs 0 < warmdown <= horizon"),
    # a kind given by its value rather than as the enum member
    "gamma_kind": (lambda: ScheduleSpec(horizon=4, gamma_kind="linear"),
                   "gamma_kind must be a GammaKind, got 'linear'"),
    "alpha_kind": (lambda: ScheduleSpec(horizon=4, alpha_kind="vanishing"),
                   "alpha_kind must be an AlphaKind, got 'vanishing'"),
    "theory_horizon": (lambda: theory_gamma(0), "horizon must be >= 1, got 0"),
    "rule_kind": (lambda: Rule("average", Move.CONVEX), "buffer must be a Buffer, got 'average'"),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_rejection_names_its_field(case):
    call, message = _REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()
