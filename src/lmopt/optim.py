"""Momentum averaging and the lmo-based update rules.

All steppers operate on a list of parameter arrays aligned with a ModelNormSpec's
atoms and share one momentum recursion d <- (1 - alpha) * d + alpha * g with d
starting at zero. Because the lmo ignores input magnitude, the very first update
already moves along lmo(g1) exactly as if alpha were 1 on that step; the plain
recursion is also what makes the Muon, weight-decay, and two-buffer forms below
reproduce the conditional-gradient trajectories bit-for-bit, which the test suite
asserts at 1e-10 over long runs.

Steppers mutate the passed-in OptimizerState (single-writer contract) and return the
new parameter list; parameter arrays themselves are never written in place. A
parameter on a vector-kind atom may be a (T, d) stack of independent runs, which
every rule updates row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .norms import ModelNormSpec, composite_norm, lmo, sharp_op

FEASIBILITY_SLACK = 1e-6


class Algo(Enum):
    USCG = "uscg"
    SCG = "scg"
    USCG_WD = "uscg_wd"
    ALMOND = "almond"
    MUON_PLAIN = "muon_plain"
    MUON_NESTEROV = "muon_nesterov"
    SSD = "ssd"


@dataclass
class OptimizerState:
    """Averaged direction (or raw accumulator for the Muon variants) plus a step count."""

    d: list[np.ndarray]
    step: int = 0
    light_mode: bool = False

    @classmethod
    def init(cls, params: Sequence[np.ndarray], **kw) -> "OptimizerState":
        return cls(d=[np.zeros_like(p) for p in params], step=0, **kw)


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

    alpha = 1 discards the history and returns g, the conventional first-iteration
    choice when the caller manages the buffer itself.
    """
    _check_alpha(alpha)
    _check_like(d, g, "momentum_update")
    return [(1.0 - alpha) * di + alpha * gi for di, gi in zip(d, g)]


def uscg_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Unconstrained conditional-gradient step: x <- x + gamma * lmo(d), layer by layer.

    Every step moves by at most gamma in the composite norm (radii included), so the
    trajectory obeys ||x^n - x^1|| <= sum of the gammas regardless of the gradients.
    """
    _check_gamma(gamma)
    _check_like(x, g, "uscg_step")
    state.d = momentum_update(state.d, g, alpha)
    state.step += 1
    atoms = spec.atoms()
    return [xi + gamma * lmo(di, a, ns_iters=ns_iters) for xi, di, a in zip(x, state.d, atoms)]


def scg_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Constrained conditional-gradient step: x <- (1 - gamma) * x + gamma * lmo(d).

    Requires a feasible iterate (composite norm <= 1), on every row of a stacked
    one; the convex combination with a ball point keeps every subsequent iterate
    feasible no matter the gradient stream.
    """
    _check_gamma(gamma)
    _check_like(x, g, "scg_step")
    if np.max(composite_norm(x, spec)) > 1.0 + FEASIBILITY_SLACK:
        raise ValueError(
            "scg_step needs a feasible iterate (composite norm <= 1); "
            "initialize on or inside the ball boundary"
        )
    state.d = momentum_update(state.d, g, alpha)
    state.step += 1
    atoms = spec.atoms()
    return [
        (1.0 - gamma) * xi + gamma * lmo(di, a, ns_iters=ns_iters)
        for xi, di, a in zip(x, state.d, atoms)
    ]


def uscg_wd_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    mu: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Unconstrained step with decoupled weight decay: x <- x + gamma * lmo(d) - gamma * mu * x.

    mu interpolates between the unconstrained rule (mu = 0) and the constrained one
    (mu = 1); for mu in (0, 1) the trajectory coincides with the constrained method
    run on the ball inflated to radius / mu with stepsize gamma * mu.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    _check_gamma(gamma)
    _check_like(x, g, "uscg_wd_step")
    state.d = momentum_update(state.d, g, alpha)
    state.step += 1
    atoms = spec.atoms()
    return [
        xi + gamma * lmo(di, a, ns_iters=ns_iters) - (gamma * mu) * xi
        for xi, di, a in zip(x, state.d, atoms)
    ]


def almond_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Average the lmo outputs instead of the gradients: d <- (1-alpha) d + alpha lmo(g).

    The buffer is a convex combination of ball points, so it never leaves the ball;
    the parameters then drift along the averaged direction, x <- x + gamma * d.
    Normalizing before averaging biases the direction, which is why this variant
    wants large batches; it is kept as a baseline.
    """
    _check_gamma(gamma)
    _check_like(x, g, "almond_step")
    atoms = spec.atoms()
    oriented = [lmo(gi, a, ns_iters=ns_iters) for gi, a in zip(g, atoms)]
    state.d = momentum_update(state.d, oriented, alpha)
    state.step += 1
    return [xi + gamma * di for xi, di in zip(x, state.d)]


def muon_step(
    x: Sequence[np.ndarray],
    state: OptimizerState,
    g: Sequence[np.ndarray],
    gamma: float,
    beta: float,
    nesterov: bool,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Momentum-accumulator form: G <- g + beta * G, then step along lmo of the buffer.

    The plain (non-Nesterov) variant is the unconstrained conditional-gradient method
    with alpha = 1 - beta: the accumulator equals d / alpha, and the lmo cannot tell
    the difference. The Nesterov variant applies the lmo to g + beta * G using the
    freshly updated buffer.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    _check_gamma(gamma)
    _check_like(x, g, "muon_step")
    state.d = [gi + beta * Gi for gi, Gi in zip(g, state.d)]
    state.step += 1
    atoms = spec.atoms()
    if nesterov:
        probe = [gi + beta * Gi for gi, Gi in zip(g, state.d)]
    else:
        probe = state.d
    return [xi + gamma * lmo(pi, a, ns_iters=ns_iters) for xi, pi, a in zip(x, probe, atoms)]


def ssd_step(
    x: Sequence[np.ndarray],
    g: Sequence[np.ndarray],
    gamma: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> list[np.ndarray]:
    """Steepest descent in the chosen norm: x <- x - gamma * sharp(g), no momentum.

    Equals x + (gamma / radius) * dual_norm(g) * lmo(g); unlike the lmo methods the
    step size inherits the gradient magnitude, so rescaling gradients rescales the
    trajectory.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    _check_like(x, g, "ssd_step")
    atoms = spec.atoms()
    return [
        xi - gamma * sharp_op(gi, a, ns_iters=ns_iters) for xi, gi, a in zip(x, g, atoms)
    ]


def scion_light_update(
    x: Sequence[np.ndarray],
    gbuf: list[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Two-buffer rearrangement of the unconstrained step for one-gradient memory.

    The caller accumulates fresh gradients into gbuf (never zeroing it), then this
    update applies x <- x + gamma * lmo(gbuf) and decays gbuf <- (1 - alpha) * gbuf
    in place. Scale invariance of the lmo makes the iterates identical to running
    the averaged-direction form, while the only auxiliary storage is gbuf itself.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    _check_like(x, gbuf, "scion_light_update")
    atoms = spec.atoms()
    x_new = [xi + gamma * lmo(bi, a, ns_iters=ns_iters) for xi, bi, a in zip(x, gbuf, atoms)]
    for bi in gbuf:
        bi *= 1.0 - alpha
    return x_new, gbuf


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


def _check_step(schedule: ScheduleSpec, k: int) -> None:
    if not 1 <= k <= schedule.horizon:
        raise ValueError(f"step {k} outside schedule horizon 1..{schedule.horizon}")


def gamma_at(schedule: ScheduleSpec, k: int) -> float:
    """Scheduled stepsize at step k. Linear decay is gamma0 * (1 - k / n); the
    constant-then-linear form holds gamma0 until the final `warmdown` steps and then
    decays as gamma0 * (n - k) / warmdown. The k = n value may be 0 (a no-op step)."""
    _check_step(schedule, k)
    n = schedule.horizon
    if schedule.gamma_kind is GammaKind.CONSTANT:
        return schedule.gamma0
    if schedule.gamma_kind is GammaKind.LINEAR_DECAY:
        return schedule.gamma0 * (1.0 - k / n)
    if schedule.gamma_kind is GammaKind.CONSTANT_THEN_LINEAR:
        m = schedule.warmdown
        if k < n - m:
            return schedule.gamma0
        return schedule.gamma0 * (n - k) / m
    raise ValueError(f"unknown gamma kind {schedule.gamma_kind}")


def alpha_at(schedule: ScheduleSpec, k: int) -> float:
    """Scheduled averaging weight at step k; the vanishing schedule is 1 / sqrt(k)."""
    _check_step(schedule, k)
    if schedule.alpha_kind is AlphaKind.CONSTANT:
        return schedule.alpha0
    if schedule.alpha_kind is AlphaKind.VANISHING:
        return 1.0 / np.sqrt(k)
    raise ValueError(f"unknown alpha kind {schedule.alpha_kind}")


def theory_gamma(n: int) -> float:
    """Constant stepsize 0.75 * n**(-3/4), inside the open interval
    (1 / (2 n^(3/4)), 1 / n^(3/4)) required by the vanishing-momentum rate guarantees."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    return 0.75 * float(n) ** -0.75
