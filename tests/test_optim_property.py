"""The rule table by property: on specs of 1-4 atoms of every kind, whose vector
atoms may hold (T, d) stacks of one T, with the exact or the Newton-Schulz backend,
under every stepsize schedule, a constant or vanishing alpha, any beta and mu, and
Gaussian gradient streams at power-of-two scales across float64's range:

- the paper's three equivalences hold at criterion 5's 1e-10: Muon plain is uSCG
  with alpha = 1 - beta, weight decay mu is SCG on the ball of radius / mu with
  stepsize gamma * mu, and Scion-light is uSCG;
- an exact ADD move changes x by at most gamma in the composite norm;
- a CONVEX run stays within 1 + FEASIBILITY_SLACK of the ball, and its certificate
  is never below the measured norm;
- after every step, no writeable array of the buffer shares memory with x or g;
- where an equivalence cannot hold, it fails by name: near float64's largest,
  Muon's accumulated buffer overflows while uSCG's averaged one does not, and the
  Muon step's ValueError carries the overflowed buffer as its operand.

The draw is derandomized with no example database, so the suite stays deterministic.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmopt.linalg import derive_seed, rng_gaussian
from lmopt.norms import (
    VECTOR_KINDS,
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    model_lmo,
)
from lmopt.optim import (
    FEASIBILITY_SLACK,
    Algo,
    AlphaKind,
    GammaKind,
    Move,
    OptimizerState,
    Rule,
    ScheduleSpec,
    alpha_at,
    gamma_at,
    rule_for,
    step,
)

MAX_ATOMS = 4
MAX_DIM = 6
MAX_STACK = 4
MAX_EXPONENT = 900
RADII = (0.25, 1.0, 1.7, 3.0)
EQUIVALENCE_ATOL = 1e-10
MOVE_ATOL = 1e-10

_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@dataclass(frozen=True)
class Run:
    spec: ModelNormSpec
    stack: int | None  # T, when every vector atom holds a (T, d) stack
    ns_iters: int | None
    schedule: ScheduleSpec
    beta: float
    mu: float
    exponent: int  # the gradients' power-of-two scale
    seed: int

    def gradients(self):
        """The stream, one Gaussian draw per step and atom, times 2**exponent."""
        return [
            [np.ldexp(self._draw(atom, derive_seed(self.seed, k, i)), self.exponent)
             for i, atom in enumerate(self.spec.atoms)]
            for k in range(self.schedule.horizon)
        ]

    def start(self):
        """A point halfway to the ball's boundary, so feasible for SCG."""
        draw = [self._draw(atom, derive_seed(self.seed, self.schedule.horizon, i))
                for i, atom in enumerate(self.spec.atoms)]
        return [0.5 * s for s in model_lmo(draw, self.spec)]

    def _draw(self, atom, seed):
        if atom.is_vector and self.stack is not None:
            seeds = [derive_seed(seed, t) for t in range(self.stack)]
            return rng_gaussian(atom.d_out, 1, seeds)[..., 0]
        if atom.is_vector:
            return rng_gaussian(atom.d_out, 1, seed)[:, 0]
        return rng_gaussian(atom.d_out, atom.d_in, seed)


@st.composite
def runs(draw) -> Run:
    stack = draw(st.one_of(st.none(), st.integers(1, MAX_STACK)))
    kinds = sorted(NormKind, key=lambda k: k.value)
    atoms = []
    for _ in range(draw(st.integers(1, MAX_ATOMS))):
        kind = draw(st.sampled_from(kinds))
        d_out = draw(st.integers(1, MAX_DIM))
        d_in = 1 if kind in VECTOR_KINDS else draw(st.integers(1, MAX_DIM))
        atoms.append(NormSpec(kind, draw(st.sampled_from(RADII)), d_out, d_in))
    horizon = draw(st.integers(20, 60))
    schedule = ScheduleSpec(
        horizon=horizon,
        gamma_kind=draw(st.sampled_from(list(GammaKind))),
        gamma0=draw(st.floats(0.0, 1.0)),
        warmdown=draw(st.integers(1, horizon)),
        alpha_kind=draw(st.sampled_from(list(AlphaKind))),
        alpha0=draw(st.floats(2.0**-20, 1.0)),
    )
    return Run(
        spec=ModelNormSpec(tuple(atoms)),
        stack=stack,
        ns_iters=draw(st.sampled_from([None, 5])),
        schedule=schedule,
        beta=draw(st.floats(0.0, 1.0 - 2.0**-20)),
        mu=draw(st.floats(2.0**-20, 1.0)),
        exponent=draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_buffer_owned(state, x, new, g):
    """No writeable array of the buffer shares memory with the step's x, its new x or g."""
    for d in state.d:
        if d.flags.writeable:
            assert not any(np.shares_memory(d, other) for other in (*x, *new, *g))


def _trajectory(run: Run, rule: Rule, spec, gammas, alphas, stream):
    """The iterates of one run from run.start(), each step checked against the
    claims that hold for its move."""
    x = run.start()
    state = OptimizerState.init(x)
    exact = run.ns_iters is None
    for gamma, alpha, g in zip(gammas, alphas, stream):
        new, _ = step(x, state, g, gamma, alpha, spec, rule, run.ns_iters)
        _assert_buffer_owned(state, x, new, g)
        if rule.move is Move.ADD and exact:
            moved = np.max(composite_norm([a - b for a, b in zip(new, x)], spec))
            assert moved <= gamma + MOVE_ATOL
        if rule.move is Move.CONVEX:
            measured = np.max(composite_norm(new, spec))
            assert measured <= 1.0 + FEASIBILITY_SLACK
            if exact:
                assert state.certificate.bound >= measured
        x = new
    return x


def _schedules(run: Run):
    k = np.arange(1, run.schedule.horizon + 1)
    return gamma_at(run.schedule, k).tolist(), alpha_at(run.schedule, k).tolist()


def _assert_same(a, b):
    for p, q in zip(a, b, strict=True):
        np.testing.assert_allclose(p, q, atol=EQUIVALENCE_ATOL, rtol=0.0)


@_SETTINGS
@given(runs())
def test_equivalences(run):
    stream = run.gradients()
    gammas, alphas = _schedules(run)
    spec, n = run.spec, run.schedule.horizon

    # Muon plain at beta is uSCG at alpha = 1 - beta; Muon ignores alpha.
    uscg = _trajectory(run, rule_for(Algo.USCG), spec, gammas, [1.0 - run.beta] * n, stream)
    muon = _trajectory(run, rule_for(Algo.MUON_PLAIN, beta=run.beta), spec, gammas,
                       alphas, stream)
    _assert_same(uscg, muon)

    # Weight decay mu is SCG on the ball of radius / mu, at stepsize gamma * mu.
    inflated = ModelNormSpec(
        tuple(NormSpec(a.kind, a.radius / run.mu, a.d_out, a.d_in) for a in spec.atoms)
    )
    decay = _trajectory(run, rule_for(Algo.USCG_WD, mu=run.mu), spec, gammas, alphas, stream)
    scg = _trajectory(run, rule_for(Algo.SCG), inflated, [g * run.mu for g in gammas],
                      alphas, stream)
    _assert_same(decay, scg)

    # Scion-light is uSCG under any alpha schedule.
    uscg = _trajectory(run, rule_for(Algo.USCG), spec, gammas, alphas, stream)
    light = _trajectory(run, rule_for(Algo.USCG_LIGHT), spec, gammas, alphas, stream)
    _assert_same(uscg, light)


@_SETTINGS
@given(runs())
def test_every_row_keeps_its_claims(run):
    stream = run.gradients()
    gammas, alphas = _schedules(run)
    for algo in Algo:
        rule = rule_for(algo, mu=run.mu, beta=run.beta)
        _trajectory(run, rule, run.spec, gammas, alphas, stream)


@_SETTINGS
@given(runs(), st.floats(0.75, 1.0 - 2.0**-20))
def test_accumulated_overflow_fails_by_name(run, beta):
    # One gradient repeated, scaled so its largest entry lies in [2^1023, 2^1024):
    # the averaged buffer stays within its entries, while the accumulated one heads
    # for g / (1 - beta), at least 4 g once beta >= 0.75 and 20 steps have run.
    g = run.gradients()[0]
    top = max(float(np.max(np.abs(gi))) for gi in g)
    stream = [[np.ldexp(gi, 1024 - np.frexp(top)[1]) for gi in g]] * run.schedule.horizon
    gammas, _ = _schedules(run)
    n = run.schedule.horizon
    _trajectory(run, rule_for(Algo.USCG), run.spec, gammas, [1.0 - beta] * n, stream)
    with pytest.raises(ValueError, match="non-finite") as info:
        _trajectory(run, rule_for(Algo.MUON_PLAIN, beta=beta), run.spec, gammas, [1.0] * n,
                    stream)
    assert any(np.isinf(d).any() for d in info.value.operand)
