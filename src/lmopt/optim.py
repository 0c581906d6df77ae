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
the new parameter list with the gradient estimate it formed. One rule says where a
buffer update goes: into each writeable buffer array, in place, in the out-of-place
formula's operation order (so with its bits), and into one fresh array in place of
a read-only one. The ADD, CONVEX and DECAY moves are written into the oracle's
fresh outputs (see `norms.lmo`); the caller's parameter and gradient arrays are
never written in place, and no writeable buffer array shares memory with them. A
parameter on a vector-kind atom may be a (T, d) stack of independent runs, which
every rule updates row by row. A weight gradient may be a `linalg.LowRank` where
the rule does no arithmetic on it: the AVERAGE buffer at alpha = 1 hands g through
(each array as a read-only view, a LowRank as itself), so a single step from a
fresh buffer takes the factored spectral route; the ORIENTED buffer and SSD hand it
to the oracle alone. A step that would scale a LowRank, in g or in the buffer,
raises ValueError naming its atom before it writes any buffer.

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

from .linalg import LowRank
from .norms import ModelNormSpec, composite_norm, model_lmo, sharp_op

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
    Both are range-checked here, when the rule is built, not on every step, as are
    the buffer and move kinds.
    """

    buffer: Buffer
    move: Move
    nesterov: bool = False
    mu: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        if not isinstance(self.buffer, Buffer):
            raise ValueError(f"buffer must be a Buffer, got {self.buffer!r}")
        if not isinstance(self.move, Move):
            raise ValueError(f"move must be a Move, got {self.move!r}")
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
    certificate of the last CONVEX move's output (None until one vouches).

    The state writes each update into d's writeable arrays and forms a fresh array
    for a read-only one, such as the views of g that an AVERAGE step at alpha = 1
    leaves in d."""

    d: list[np.ndarray]
    alpha: float | None = None
    certificate: Certificate | None = None

    @classmethod
    def init(cls, params: Sequence[np.ndarray]) -> "OptimizerState":
        return cls(d=[np.zeros(np.shape(p)) for p in params])


def _scaled_add(
    d: Sequence[np.ndarray], keep: float, g: Sequence[np.ndarray], weight: float = 1.0
) -> list[np.ndarray]:
    """keep * d + weight * g per array, run as d *= keep; d += weight * g in each
    writeable array of d, else in one fresh array; the bits are the out-of-place
    formula's either way (a weight of 1 adds g itself)."""
    out = []
    for di, gi in zip(d, g):
        if di.flags.writeable:
            di *= keep
        else:
            di = di * keep
        di += gi if weight == 1.0 else weight * gi
        out.append(di)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def momentum_update(
    d: Sequence[np.ndarray], g: Sequence[np.ndarray], alpha: float
) -> list[np.ndarray]:
    """Exponential averaging (1 - alpha) * d + alpha * g, elementwise per array, run
    as d *= 1 - alpha; d += alpha * g in each writeable array of d, else in one fresh
    array, and returned.

    alpha = 1 discards the history and hands g through untouched: each array as a
    read-only view, which no later update writes into, and a LowRank as itself.

    `step` alone calls it, for its AVERAGE and ORIENTED buffers, and checks its
    operands first, so it checks nothing itself. It is a function of its own only so
    that the benchmark tracer's `TRACED` (lmopt_bench/tracer.py) can time it, and goes
    once the tracer traces `step`.
    """
    if alpha == 1.0:
        return [gi if isinstance(gi, LowRank) else _read_only(gi) for gi in g]
    return _scaled_add(d, 1.0 - alpha, g, alpha)


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
    outputs, SSD keeps none). The averaged buffer is returned as the state's own
    arrays (at alpha = 1, read-only views of g), which the next step may update in
    place; a caller that keeps d_k past the next step copies it. The CONVEX move
    needs a feasible iterate (composite norm <= 1, on every row of a stack) and then
    keeps every iterate feasible, no matter the gradient stream. It returns read-only
    arrays and records in `state` a bound on their norm, so the next step takes them
    without measuring them again (see Certificate). The ADD move changes x by at most
    gamma in the composite norm (radii included). The ADD, CONVEX and DECAY moves
    call the oracle once, on the buffer or its Nesterov look-ahead; when it rejects
    that operand, the ValueError carries the list as its `operand` attribute.

    Under every rule, SSD's too, the step first checks gamma, alpha, and that x, g and
    the state's buffer hold one array per atom, of one shape at each atom, each entry
    of g an ndarray or a LowRank.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    atoms = spec.atoms
    for other in (g, state.d):
        if len(other) != len(x):
            raise ValueError(f"step: got {len(x)} and {len(other)} entries")
    if len(x) != len(atoms):
        raise ValueError(f"step: {len(x)} parameter arrays for {len(atoms)} norm atoms")
    # A LowRank holds no array to scale: refuse one wherever this buffer update scales
    # it (the ORIENTED buffer scales only d, once the oracle has taken g).
    scales_g = rule.buffer is Buffer.ACCUMULATE or alpha < 1.0 and rule.buffer is Buffer.AVERAGE
    scales_d = scales_g or alpha < 1.0 and rule.buffer is Buffer.ORIENTED
    for i, (xi, gi, di) in enumerate(zip(x, g, state.d)):
        shapes = np.shape(xi), np.shape(gi), np.shape(di)
        if not shapes[0] == shapes[1] == shapes[2]:
            raise ValueError(f"step: x, g and the buffer have shapes {shapes} at atom {i}")
        if not isinstance(gi, (np.ndarray, LowRank)):
            raise ValueError(f"step: g holds a {type(gi).__name__} at atom {i}, not an array")
        if scales_d and isinstance(di, LowRank) or scales_g and isinstance(gi, LowRank):
            raise ValueError(
                f"step: the {rule.buffer.value} buffer would scale a LowRank at atom {i}; "
                "pass its dense product"
            )
    if rule.move is Move.CONVEX:
        bound = _feasible_bound(x, state, spec)
    d_k = v = list(g)
    if rule.buffer is Buffer.AVERAGE:
        state.d = d_k = v = momentum_update(state.d, g, alpha)
    elif rule.buffer is Buffer.ORIENTED:
        state.d = momentum_update(state.d, model_lmo(g, spec, ns_iters), alpha)
    elif rule.buffer is Buffer.ACCUMULATE:
        if rule.beta is None:
            # The ratio first: under a constant alpha it is exactly 1, bit for bit.
            prev = alpha if state.alpha is None else state.alpha
            keep, scale = (1.0 - alpha) * (prev / alpha), alpha
        else:
            keep, scale = rule.beta, 1.0 - rule.beta
        # Finite operands can overflow these sums; the oracle then rejects the operand.
        with np.errstate(over="ignore"):
            state.d = v = _scaled_add(state.d, keep, g)
            if rule.nesterov:
                v = [di * keep + gi for di, gi in zip(state.d, g)]
    state.alpha = alpha
    if rule.move is Move.SHARP:
        sharp = [sharp_op(gi, a, ns_iters=ns_iters) for gi, a in zip(g, atoms)]
        # At gamma = 0 a sharp entry past float64's range makes 0 * inf = NaN, which
        # the next gradient carries.
        with np.errstate(invalid="ignore"):
            new = [xi - gamma * si for xi, si in zip(x, sharp)]
    elif rule.move is Move.BUFFER:
        new = [xi + gamma * di for xi, di in zip(x, state.d)]
    else:
        try:
            new = model_lmo(v, spec, ns_iters)
        except ValueError as exc:
            exc.operand = v
            raise
        # The oracle's outputs s are fresh arrays (see norms.lmo), so each move is
        # written into them: gamma * s, then x or (1 - gamma) * x added, then the
        # decay taken.
        for xi, si in zip(x, new):
            si *= gamma
            if rule.move is Move.CONVEX:
                si += (1.0 - gamma) * xi
                si.flags.writeable = False
            else:
                si += xi
                if rule.move is Move.DECAY:
                    si -= (gamma * rule.mu) * xi
        if rule.move is Move.CONVEX:
            # A Newton-Schulz lmo output can leave the ball, so only an exact one vouches.
            state.certificate = None if ns_iters is not None else Certificate(
                tuple(new), spec, (1.0 - gamma) * bound + gamma + CERTIFICATE_ROUNDING
            )
    if rule.buffer is Buffer.ACCUMULATE:
        # Formed after the move, so it is not alive during the oracle's SVD.
        d_k = [scale * di for di in state.d]
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
    layer: `step` under the Algo.USCG rule, returning the new parameters. Nothing
    calls it; it stays as a hook for the benchmark tracer's `TRACED` and `STEP_SPANS`
    (lmopt_bench/tracer.py) until the tracer traces `step`."""
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
    iterate. Nothing calls it; it is a tracer hook, as uscg_step is."""
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
    """Stepsize and averaging schedules over a fixed horizon of n steps (k = 1..n);
    the kinds (GammaKind / AlphaKind members) and ranges are checked when built."""

    horizon: int
    gamma_kind: GammaKind = GammaKind.CONSTANT
    gamma0: float = 0.1
    warmdown: int = 0
    alpha_kind: AlphaKind = AlphaKind.CONSTANT
    alpha0: float = 0.1

    def __post_init__(self):
        if not isinstance(self.gamma_kind, GammaKind):
            raise ValueError(f"gamma_kind must be a GammaKind, got {self.gamma_kind!r}")
        if not isinstance(self.alpha_kind, AlphaKind):
            raise ValueError(f"alpha_kind must be an AlphaKind, got {self.alpha_kind!r}")
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
    for step in (np.min(k), np.max(k)):
        if not 1 <= step <= schedule.horizon:
            raise ValueError(f"step {step} outside schedule horizon 1..{schedule.horizon}")


def gamma_at(schedule: ScheduleSpec, k):
    """Scheduled stepsizes at an integer array k of steps, as a float64 array shaped
    like k. Linear decay is gamma0 * (1 - k / n); the constant-then-linear form holds
    gamma0 until the final `warmdown` steps and then decays as gamma0 * (n - k) /
    warmdown. The k = n value may be 0 (a no-op step). A single step k gives its
    value through the same code."""
    _check_step(schedule, k)
    n = schedule.horizon
    if schedule.gamma_kind is GammaKind.CONSTANT:
        return np.full(np.shape(k), schedule.gamma0, dtype=np.float64)
    if schedule.gamma_kind is GammaKind.LINEAR_DECAY:
        return schedule.gamma0 * (1.0 - k / n)
    m = schedule.warmdown
    return np.where(k < n - m, schedule.gamma0, schedule.gamma0 * (n - k) / m)


def alpha_at(schedule: ScheduleSpec, k):
    """Scheduled averaging weights at an integer array k of steps, as for gamma_at;
    the vanishing schedule is 1 / sqrt(k)."""
    _check_step(schedule, k)
    if schedule.alpha_kind is AlphaKind.CONSTANT:
        return np.full(np.shape(k), schedule.alpha0, dtype=np.float64)
    return 1.0 / np.sqrt(k)


def theory_gamma(n: int) -> float:
    """Constant stepsize 0.75 * n**(-3/4), inside the open interval
    (1 / (2 n^(3/4)), 1 / n^(3/4)) required by the vanishing-momentum rate guarantees."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    return 0.75 * float(n) ** -0.75
