"""Momentum buffers, the lmo-based update rules, and their schedules.

Every update rule is a row of one rule table (`RULES`) run by one kernel (`step`).
A row (`Rule`) says how the momentum buffer is updated, whether a Nesterov
look-ahead feeds the oracle, and how the parameters move. The paper's equivalences
are choices of row and parameter, which the tests assert at 1e-10 over long runs:

- Muon with plain momentum accumulates d <- beta * d + g. That buffer is the
  averaged direction divided by 1 - beta, and the lmo cannot see the scale, so it is
  uSCG with alpha = 1 - beta.
- Decoupled weight decay mu is the constrained method on the ball inflated to
  radius / mu with stepsize gamma * mu.
- Scion-light (`Algo.USCG_LIGHT`) accumulates D_k = (1 - alpha_k) *
  (alpha_{k-1} / alpha_k) * D_{k-1} + g_k, the uSCG direction divided by alpha_k
  under any alpha schedule, so it is uSCG again while storing one gradient-shaped
  buffer (and the last step's alpha).

Buffers start at zero. Because the lmo ignores magnitude, the very first update
already moves along lmo(g1) exactly as if alpha were 1 on that step.

`step` mutates the passed-in OptimizerState (single-writer contract) and returns
the new parameter list with the gradient estimate it formed; parameter arrays
themselves are never written in place. A parameter on a vector-kind atom may be a
(T, d) stack of independent runs, which every rule updates row by row. A weight
gradient may be a `linalg.LowRank` where the rule does no arithmetic on it: the
AVERAGE buffer at alpha = 1 hands it to the lmo as is, so a single step from a
fresh buffer takes the factored spectral route.

SCG iterates are read-only. The CONVEX move needs a feasible iterate, and an exact
lmo output sits on the ball boundary, so the move certifies its own output by
convexity: the state keeps a `Certificate` with an upper bound on the composite
norm of the arrays it returned, and the next step takes those arrays without
measuring them. Any other iterate (a fresh one, a copy, one made writeable again,
one from a Newton-Schulz step, or one whose bound has crept past the slack) is
measured exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .norms import ModelNormSpec, composite_norm, lmo, sharp_op

FEASIBILITY_SLACK = 1e-6
# Allowance added to the convexity certificate on every CONVEX step, for the rounding
# in the lmo's boundary (an exact lmo output has composite norm 1 to a few ulps) and
# in the convex combination. It lets the certificate vouch for about 1e6 steps before
# it passes 1 + FEASIBILITY_SLACK and the kernel measures again.
CERTIFICATE_ROUNDING = 1e-12


class Algo(Enum):
    USCG = "uscg"
    SCG = "scg"
    USCG_WD = "uscg_wd"
    ALMOND = "almond"
    MUON_PLAIN = "muon_plain"
    MUON_NESTEROV = "muon_nesterov"
    SSD = "ssd"
    USCG_LIGHT = "uscg_light"


class Buffer(Enum):
    """How a step updates the momentum buffer d from the fresh gradient g."""

    AVERAGE = "average"  # d <- (1 - alpha) d + alpha g
    ACCUMULATE = "accumulate"  # d <- keep d + g, keep = beta, or (1 - alpha) * prev / alpha
    ORIENTED = "oriented"  # d <- (1 - alpha) d + alpha lmo(g)
    NONE = "none"  # no buffer


class Move(Enum):
    """How a step moves the parameters x; v is the buffer or its Nesterov look-ahead."""

    ADD = "add"  # x + gamma lmo(v)
    CONVEX = "convex"  # (1 - gamma) x + gamma lmo(v), from a feasible x
    DECAY = "decay"  # x + gamma lmo(v) - gamma mu x
    BUFFER = "buffer"  # x + gamma d
    SHARP = "sharp"  # x - gamma sharp(g)


@dataclass(frozen=True)
class Rule:
    """One update rule: the buffer update, an optional Nesterov look-ahead
    v = g + keep * d on an accumulated buffer, and the parameter move.

    `mu` is the DECAY move's decay, in [0, 1]. `beta` is the ACCUMULATE buffer's keep
    factor, in [0, 1); without one the buffer keeps (1 - alpha_k) * (alpha_{k-1} /
    alpha_k), which tracks the averaged buffer under any alpha schedule (Scion-light).
    Both are range-checked here, when the rule is built, not on every step.
    """

    buffer: Buffer
    move: Move
    nesterov: bool = False
    mu: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.nesterov and self.buffer is not Buffer.ACCUMULATE:
            raise ValueError("a Nesterov look-ahead needs an accumulated buffer")


RULES: dict[Algo, Rule] = {
    Algo.USCG: Rule(Buffer.AVERAGE, Move.ADD),
    Algo.SCG: Rule(Buffer.AVERAGE, Move.CONVEX),
    Algo.USCG_WD: Rule(Buffer.AVERAGE, Move.DECAY, mu=0.5),
    Algo.ALMOND: Rule(Buffer.ORIENTED, Move.BUFFER),
    Algo.MUON_PLAIN: Rule(Buffer.ACCUMULATE, Move.ADD, beta=0.9),
    Algo.MUON_NESTEROV: Rule(Buffer.ACCUMULATE, Move.ADD, nesterov=True, beta=0.9),
    Algo.SSD: Rule(Buffer.NONE, Move.SHARP),
    Algo.USCG_LIGHT: Rule(Buffer.ACCUMULATE, Move.ADD),
}


def rule_for(algo: Algo, mu: float = 0.5, beta: float = 0.9) -> Rule:
    """The algo's row of RULES with `mu` and `beta` set on the rows that use them,
    range-checked. A harness builds its run's rule once, before its loop. An
    unknown algo raises ValueError."""
    row = RULES.get(algo)
    if row is None:
        raise ValueError(f"unknown algorithm {algo}")
    if row.move is Move.DECAY:
        row = replace(row, mu=mu)
    if row.beta is not None:
        row = replace(row, beta=beta)
    return row


@dataclass(frozen=True)
class Certificate:
    """The read-only arrays a CONVEX move returned and an upper bound on their
    composite norm under `spec`.

    The bound is the convexity certificate ||(1 - gamma) x + gamma s|| <=
    (1 - gamma) ||x|| + gamma, which holds for an exact lmo output s (composite norm
    at most 1), plus CERTIFICATE_ROUNDING per step.
    """

    x: tuple[np.ndarray, ...]
    spec: ModelNormSpec
    bound: float

    def vouches_for(self, x: Sequence[np.ndarray], spec: ModelNormSpec) -> bool:
        """Whether x is these same arrays, still read-only, under an equal spec, with
        the bound within FEASIBILITY_SLACK of the ball."""
        return (
            self.bound <= 1.0 + FEASIBILITY_SLACK
            and len(x) == len(self.x)
            and all(xi is vi and not vi.flags.writeable for xi, vi in zip(x, self.x))
            and (spec is self.spec or spec == self.spec)
        )


@dataclass
class OptimizerState:
    """The rule's momentum buffer d (zero until the first step), the last step's
    alpha (None until the first step; Scion-light's keep factor reads it), and the
    certificate of the last CONVEX move's output (None until one vouches)."""

    d: list[np.ndarray]
    alpha: float | None = None
    certificate: Certificate | None = None

    @classmethod
    def init(cls, params: Sequence[np.ndarray]) -> "OptimizerState":
        return cls(d=[np.zeros_like(p) for p in params])


def _check_like(a: Sequence[np.ndarray], b: Sequence[np.ndarray], what: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{what}: got {len(a)} and {len(b)} entries")
    for x, y in zip(a, b):
        if np.shape(x) != np.shape(y):
            raise ValueError(f"{what}: shapes {np.shape(x)} vs {np.shape(y)}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")


def momentum_update(
    d: Sequence[np.ndarray], g: Sequence[np.ndarray], alpha: float
) -> list[np.ndarray]:
    """Exponential averaging (1 - alpha) * d + alpha * g, elementwise per array.

    alpha = 1 discards the history and returns g's own arrays, untouched by any
    arithmetic, the conventional first-iteration choice when the caller manages the
    buffer itself.
    """
    _check_alpha(alpha)
    _check_like(d, g, "momentum_update")
    if alpha == 1.0:
        return list(g)
    return [(1.0 - alpha) * di + alpha * gi for di, gi in zip(d, g)]


def _feasible_bound(x: Sequence[np.ndarray], state: OptimizerState, spec: ModelNormSpec) -> float:
    """An upper bound on x's composite norm (the max over a stack's rows) for the
    CONVEX move: the state's certificate when it vouches for x, else the exact norm,
    which raises when x is infeasible."""
    if state.certificate is not None and state.certificate.vouches_for(x, spec):
        return state.certificate.bound
    measured = float(np.max(composite_norm(x, spec)))
    if measured > 1.0 + FEASIBILITY_SLACK:
        raise ValueError(
            "the convex move needs a feasible iterate (composite norm <= 1); "
            "initialize on or inside the ball boundary"
        )
    return measured


def step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    rule: Rule,
    ns_iters: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One update of x under `rule`; returns (new parameters, d_k).

    d_k is the gradient estimate the step formed: the averaged buffer, an
    accumulated buffer rescaled to an average (by 1 - beta, or by alpha), or g
    itself for the rules that keep no gradient buffer (ALMOND averages oracle
    outputs, SSD keeps none). The CONVEX move needs a feasible iterate (composite
    norm <= 1, on every row of a stack) and then keeps every iterate feasible, no
    matter the gradient stream. It returns read-only arrays and records in `state` a
    bound on their norm, so the next step takes them without measuring them again
    (see Certificate). The ADD move changes x by at most gamma in the composite
    norm (radii included).
    """
    _check_gamma(gamma)
    _check_alpha(alpha)
    _check_like(x, g, "step")
    atoms = spec.atoms
    if len(x) != len(atoms):
        raise ValueError(f"step: {len(x)} parameter arrays for {len(atoms)} norm atoms")
    if rule.move is Move.CONVEX:
        bound = _feasible_bound(x, state, spec)

    def oracle(vs):
        return [lmo(v, a, ns_iters=ns_iters) for v, a in zip(vs, atoms)]

    d_k = v = list(g)
    if rule.buffer is Buffer.AVERAGE:
        state.d = d_k = v = momentum_update(state.d, g, alpha)
    elif rule.buffer is Buffer.ORIENTED:
        state.d = momentum_update(state.d, oracle(g), alpha)
    elif rule.buffer is Buffer.ACCUMULATE:
        if rule.beta is None:
            # The ratio first: under a constant alpha it is exactly 1, bit for bit.
            prev = alpha if state.alpha is None else state.alpha
            keep, scale = (1.0 - alpha) * (prev / alpha), alpha
        else:
            keep, scale = rule.beta, 1.0 - rule.beta
        state.d = v = [keep * di + gi for di, gi in zip(state.d, g)]
        d_k = [scale * di for di in state.d]
        if rule.nesterov:
            v = [gi + keep * di for gi, di in zip(g, state.d)]
    state.alpha = alpha
    if rule.move is Move.SHARP:
        new = [xi - gamma * sharp_op(gi, a, ns_iters=ns_iters) for xi, gi, a in zip(x, g, atoms)]
    elif rule.move is Move.BUFFER:
        new = [xi + gamma * di for xi, di in zip(x, state.d)]
    elif rule.move is Move.CONVEX:
        new = [(1.0 - gamma) * xi + gamma * si for xi, si in zip(x, oracle(v))]
        for xi in new:
            xi.flags.writeable = False
        # A Newton-Schulz lmo output can leave the ball, so only an exact one vouches.
        state.certificate = None if ns_iters is not None else Certificate(
            tuple(new), spec, (1.0 - gamma) * bound + gamma + CERTIFICATE_ROUNDING
        )
    elif rule.move is Move.DECAY:
        new = [xi + gamma * si - (gamma * rule.mu) * xi for xi, si in zip(x, oracle(v))]
    else:
        new = [xi + gamma * si for xi, si in zip(x, oracle(v))]
    return new, d_k


def uscg_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Unconstrained conditional-gradient step x <- x + gamma * lmo(d), layer by
    layer: `step` under the Algo.USCG rule, returning the new parameters."""
    return step(x, state, g, gamma, alpha, spec, RULES[Algo.USCG], ns_iters)[0]


def scg_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Constrained conditional-gradient step x <- (1 - gamma) * x + gamma * lmo(d):
    `step` under the Algo.SCG rule, returning the new parameters. Needs a feasible
    iterate."""
    return step(x, state, g, gamma, alpha, spec, RULES[Algo.SCG], ns_iters)[0]


class GammaKind(Enum):
    CONSTANT = "constant"
    LINEAR_DECAY = "linear"
    CONSTANT_THEN_LINEAR = "constant_then_linear"


class AlphaKind(Enum):
    CONSTANT = "constant"
    VANISHING = "vanishing"


@dataclass(frozen=True)
class ScheduleSpec:
    """Stepsize and averaging schedules over a fixed horizon of n steps (k = 1..n)."""

    horizon: int
    gamma_kind: GammaKind = GammaKind.CONSTANT
    gamma0: float = 0.1
    warmdown: int = 0
    alpha_kind: AlphaKind = AlphaKind.CONSTANT
    alpha0: float = 0.1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.gamma0 <= 1.0:
            raise ValueError(f"gamma0 must be in [0, 1], got {self.gamma0}")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if self.gamma_kind is GammaKind.CONSTANT_THEN_LINEAR and not (
            0 < self.warmdown <= self.horizon
        ):
            raise ValueError("constant-then-linear decay needs 0 < warmdown <= horizon")


def _check_step(schedule: ScheduleSpec, k) -> None:
    for step in (k,) if np.ndim(k) == 0 else (np.min(k), np.max(k)):
        if not 1 <= step <= schedule.horizon:
            raise ValueError(f"step {step} outside schedule horizon 1..{schedule.horizon}")


def _constant(value: float, k):
    """`value` at every step of k: itself for one step, an array for an array of them."""
    return value if np.ndim(k) == 0 else np.full(np.shape(k), value, dtype=np.float64)


def gamma_at(schedule: ScheduleSpec, k):
    """Scheduled stepsize at step k. Linear decay is gamma0 * (1 - k / n); the
    constant-then-linear form holds gamma0 until the final `warmdown` steps and then
    decays as gamma0 * (n - k) / warmdown. The k = n value may be 0 (a no-op step).

    k may also be an integer array of steps: the result is then the array of their
    stepsizes, each equal to the scalar call's value."""
    _check_step(schedule, k)
    n = schedule.horizon
    if schedule.gamma_kind is GammaKind.CONSTANT:
        return _constant(schedule.gamma0, k)
    if schedule.gamma_kind is GammaKind.LINEAR_DECAY:
        return schedule.gamma0 * (1.0 - k / n)
    if schedule.gamma_kind is GammaKind.CONSTANT_THEN_LINEAR:
        m = schedule.warmdown
        if np.ndim(k) == 0:
            return schedule.gamma0 if k < n - m else schedule.gamma0 * (n - k) / m
        return np.where(k < n - m, schedule.gamma0, schedule.gamma0 * (n - k) / m)
    raise ValueError(f"unknown gamma kind {schedule.gamma_kind}")


def alpha_at(schedule: ScheduleSpec, k):
    """Scheduled averaging weight at step k; the vanishing schedule is 1 / sqrt(k).
    k may also be an integer array of steps, as for gamma_at."""
    _check_step(schedule, k)
    if schedule.alpha_kind is AlphaKind.CONSTANT:
        return _constant(schedule.alpha0, k)
    if schedule.alpha_kind is AlphaKind.VANISHING:
        return 1.0 / np.sqrt(k)
    raise ValueError(f"unknown alpha kind {schedule.alpha_kind}")


def theory_gamma(n: int) -> float:
    """Constant stepsize 0.75 * n**(-3/4), inside the open interval
    (1 / (2 n^(3/4)), 1 / n^(3/4)) required by the vanishing-momentum rate guarantees."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    return 0.75 * float(n) ** -0.75
