"""Norm balls and their linear minimization oracles.

A `NormSpec` names a norm on vectors or on weight matrices (operator norms between
scaled vector norms) together with a ball radius. For each kind this module provides
the norm itself, the lmo over the ball (the minimizer of <s, x> subject to the norm
constraint), the dual norm, and the sharp operator. Network-level composites treat a
whole parameter list as one ball via the max of per-layer scaled norms, which makes
the joint lmo decompose into independent per-layer lmos.

Conventions, chosen once and relied on by everything downstream:
  * sign(0) = 0, and the lmo of a zero input is the zero matrix. Both pick one
    element of a set-valued oracle; zero keeps the output in the ball and makes the
    oracle odd.
  * A zero column (ColNorm) or zero row (RowNorm) maps to a zero column/row.
  * The lmo is positively scale invariant: lmo(a * s) == lmo(s) for a > 0.
  * Vector kinds also take a (T, d) stack and act row by row: the lmo maps each
    row (a zero row to a zero row), and op_norm, dual_norm and composite_norm
    return one value per row. Matrix kinds take one matrix.
  * Matrix kinds also take a `linalg.LowRank` left @ right.T. The exact spectral
    lmo works from its factors (`lowrank_svd`), so a rank-b gradient needs no
    (m, n) SVD; every other function, kind and backend works on the product. A
    product that is numerically zero relative to its factors, as when they
    cancel, has the zero lmo.
  * The spectral op_norm takes sigma_max from the top eigenvalue of the smaller
    Gram matrix (`linalg.sigma_max`), about half the cost of a values-only SVD
    at the same relative accuracy. The spectral dual norm sums every singular
    value, which a Gram matrix would blur, so it keeps `singular_values`.
  * `composite_norm` is the SCG kernel's feasibility measure, but the kernel
    takes it only for iterates it has not certified: its own outputs are
    read-only and carry a convexity bound (see `optim`).

Everything here is a pure function, safe to call from multiple threads. The only
state kept is a ModelNormSpec's atom tuple, built once with the (frozen) spec.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import (
    LowRank,
    lowrank_svd,
    newton_schulz_orthogonalize,
    sigma_max,
    singular_values,
    svd_reduced,
)


class NormKind(Enum):
    SIGN = "sign"                    # matrix, max_{i,j} |A_ij|
    COL_NORM = "col_norm"            # matrix, max_j ||col_j||_2 / sqrt(d_out)
    ROW_NORM = "row_norm"            # matrix, max_i sqrt(d_in) * ||row_i||_2
    SPECTRAL = "spectral"            # matrix, sqrt(d_in / d_out) * sigma_max
    EUCLIDEAN_VEC = "euclidean_vec"  # vector, ||z||_2
    MAX_VEC = "max_vec"              # vector, ||z||_inf
    RMS_VEC = "rms_vec"              # vector, ||z||_2 / sqrt(d)


MATRIX_KINDS = frozenset(
    {NormKind.SIGN, NormKind.COL_NORM, NormKind.ROW_NORM, NormKind.SPECTRAL}
)
VECTOR_KINDS = frozenset(
    {NormKind.EUCLIDEAN_VEC, NormKind.MAX_VEC, NormKind.RMS_VEC}
)


@dataclass(frozen=True)
class NormSpec:
    """A norm ball: kind + radius + operand dimensions (vector kinds use d_in = 1)."""

    kind: NormKind
    radius: float
    d_out: int
    d_in: int = 1

    def __post_init__(self):
        if self.radius <= 0.0 or not np.isfinite(self.radius):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.d_out < 1 or self.d_in < 1:
            raise ValueError(f"dimensions must be >= 1, got ({self.d_out}, {self.d_in})")
        if self.kind in VECTOR_KINDS and self.d_in != 1:
            raise ValueError(f"vector norm {self.kind.value} requires d_in = 1")

    @property
    def is_vector(self) -> bool:
        return self.kind in VECTOR_KINDS

    @classmethod
    def vector(cls, kind: NormKind, length: int, radius: float = 1.0) -> "NormSpec":
        return cls(kind=kind, radius=radius, d_out=length, d_in=1)


def _operand(s, spec: NormSpec, keep_factors: bool = False) -> np.ndarray | LowRank:
    """Validate an operand against the spec's shape and return it as float64.

    A LowRank needs a matrix kind and has its factors checked. It comes back as its
    factors when keep_factors is set, and otherwise as its product, which is
    checked like any dense operand. A non-finite entry raises ValueError; the l2
    vector kinds leave that check to `_l2_rows`, whose range guard catches every
    non-finite entry without a pass of its own.
    """
    if isinstance(s, LowRank):
        if spec.is_vector:
            raise ValueError(f"a low-rank operand needs a matrix kind, not {spec.kind.value}")
        a = s.checked()
        if a.shape != (spec.d_out, spec.d_in):
            raise ValueError(
                f"expected shape ({spec.d_out}, {spec.d_in}) for {spec.kind.value}, "
                f"got low-rank shape {a.shape}"
            )
        if keep_factors:
            return a
        s = a.dense()
    a = np.asarray(s, dtype=np.float64)
    if spec.is_vector:
        if a.ndim not in (1, 2) or a.shape[-1] != spec.d_out:
            raise ValueError(
                f"expected a vector of length {spec.d_out}, or a stack of them, for "
                f"{spec.kind.value}, got shape {a.shape}"
            )
        if spec.kind is NormKind.MAX_VEC:
            _check_finite(a)
    else:
        if a.shape != (spec.d_out, spec.d_in):
            raise ValueError(
                f"expected shape ({spec.d_out}, {spec.d_in}) for {spec.kind.value}, "
                f"got shape {a.shape}"
            )
        _check_finite(a)
    return a


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("operand contains non-finite entries")


def _row_values(values: np.ndarray, m: np.ndarray) -> float | np.ndarray:
    """Per-row results of a vector operand: a float for one vector, the array for a stack."""
    return float(values) if m.ndim == 1 else values


# Squared row norms in [_TINY, _HUGE] are finite normal numbers: the plain formulas
# neither overflow nor lose precision on such a row, and all its entries are finite.
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max


def _l2_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(r, norms, e) with r = m * 2**-e row by row and norms the l2 norm of each
    row of r, keeping the last axis; e is None when r is m.

    A row whose squared norm is zero, subnormal or past float64's range is scaled by
    the power of two that brings its largest |entry| into [0.5, 1), so its norm is
    formed without overflow or underflow; every other row keeps e = 0 and its bits.
    A non-finite entry raises ValueError.
    """
    sq = np.einsum("...d,...d->...", m, m)[..., None]
    if not sq.size or (_TINY <= sq.min() and sq.max() <= _HUGE):
        return m, np.sqrt(sq), None
    _check_finite(m)
    top = np.frexp(np.max(np.abs(m), axis=-1, keepdims=True))[1]
    e = np.where((_TINY <= sq) & (sq <= _HUGE), 0, top)
    r = np.ldexp(m, -e)
    return r, np.sqrt(np.einsum("...d,...d->...", r, r)[..., None]), e


def _row_l2(m: np.ndarray) -> np.ndarray:
    """l2 norm along the last axis; each row's value is independent of the others.
    A norm past float64's range is inf."""
    _, norms, e = _l2_rows(m)
    return (norms if e is None else np.ldexp(norms, e))[..., 0]


def _vector_op_norm(m: np.ndarray, spec: NormSpec) -> float | np.ndarray:
    if spec.kind is NormKind.MAX_VEC:
        values = np.max(np.abs(m), axis=-1)
    else:
        values = _row_l2(m)
        if spec.kind is NormKind.RMS_VEC:
            values = values / np.sqrt(spec.d_out)
    return _row_values(values, m)


def _vector_dual_norm(m: np.ndarray, spec: NormSpec) -> float | np.ndarray:
    if spec.kind is NormKind.MAX_VEC:
        values = np.sum(np.abs(m), axis=-1)
    else:
        values = _row_l2(m)
        if spec.kind is NormKind.RMS_VEC:
            values = np.sqrt(spec.d_out) * values
    return _row_values(values, m)


def _vector_lmo(m: np.ndarray, spec: NormSpec) -> np.ndarray:
    rho = spec.radius
    if spec.kind is NormKind.MAX_VEC:
        return -rho * np.sign(m)
    coef = -rho if spec.kind is NormKind.EUCLIDEAN_VEC else -rho * np.sqrt(spec.d_out)
    r, norms, e = _l2_rows(m)
    if e is None:  # every norm is positive
        return (coef / norms) * m
    return np.divide(coef, norms, out=np.zeros_like(norms), where=norms > 0.0) * r


def lmo_coefficient(spec: NormSpec) -> float:
    """Magnitude of the lmo output's directional part, including the radius.

    Sign: radius; Spectral: radius * sqrt(d_out / d_in); ColNorm: radius * sqrt(d_out)
    per column; RowNorm: radius / sqrt(d_in) per row; EuclideanVec / MaxVec: radius;
    RmsVec: radius * sqrt(d). Boundary initializers multiply their unit-scale draws
    by exactly this factor.
    """
    k, rho = spec.kind, spec.radius
    if k is NormKind.SIGN or k is NormKind.EUCLIDEAN_VEC or k is NormKind.MAX_VEC:
        return rho
    if k is NormKind.SPECTRAL:
        return rho * np.sqrt(spec.d_out / spec.d_in)
    if k is NormKind.COL_NORM:
        return rho * np.sqrt(spec.d_out)
    if k is NormKind.ROW_NORM:
        return rho / np.sqrt(spec.d_in)
    if k is NormKind.RMS_VEC:
        return rho * np.sqrt(spec.d_out)
    raise ValueError(f"unknown norm kind {k}")


def op_norm(a, spec: NormSpec) -> float | np.ndarray:
    """The norm named by `spec` (operator norm for matrix kinds, vector norm otherwise)."""
    m = _operand(a, spec)
    if spec.is_vector:
        return _vector_op_norm(m, spec)
    k = spec.kind
    if k is NormKind.SIGN:
        return float(np.max(np.abs(m)))
    if k is NormKind.COL_NORM:
        return float(np.max(np.linalg.norm(m, axis=0)) / np.sqrt(spec.d_out))
    if k is NormKind.ROW_NORM:
        return float(np.sqrt(spec.d_in) * np.max(np.linalg.norm(m, axis=1)))
    if k is NormKind.SPECTRAL:
        return float(np.sqrt(spec.d_in / spec.d_out) * sigma_max(m))
    raise ValueError(f"unknown norm kind {k}")


def lmo(s, spec: NormSpec, ns_iters: int | None = None) -> np.ndarray:
    """Minimizer of <s, x> over the spec's norm ball.

    For nonzero input the output sits on the ball boundary (op_norm == radius) and
    pairs with the input as <s, lmo(s)> == -radius * dual_norm(s). The spectral kind
    uses the exact reduced SVD by default, taken from the factors of a LowRank;
    pass ns_iters to use the Newton-Schulz approximation instead, which keeps the
    boundary only up to its singular-value band.
    """
    factored = isinstance(s, LowRank) and spec.kind is NormKind.SPECTRAL and ns_iters is None
    m = _operand(s, spec, keep_factors=factored)
    if spec.is_vector:
        return _vector_lmo(m, spec)
    if factored:  # a zero product has rank 0, so its orthogonal factor is zero
        q = lowrank_svd(m).orthogonal_factor()
        return (-spec.radius * np.sqrt(spec.d_out / spec.d_in)) * q
    if not m.any():
        return np.zeros_like(m)
    k = spec.kind
    rho = spec.radius
    if k is NormKind.SIGN:
        return -rho * np.sign(m)
    if k is NormKind.SPECTRAL:
        if ns_iters is None:
            q = svd_reduced(m).orthogonal_factor()
        else:
            q = newton_schulz_orthogonalize(m, ns_iters)
        return (-rho * np.sqrt(spec.d_out / spec.d_in)) * q
    if k is NormKind.COL_NORM:
        norms = np.linalg.norm(m, axis=0)
        scaled = np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)
        return (-rho * np.sqrt(spec.d_out)) * scaled
    if k is NormKind.ROW_NORM:
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        scaled = np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)
        return (-rho / np.sqrt(spec.d_in)) * scaled
    raise ValueError(f"unknown norm kind {k}")


def dual_norm(s, spec: NormSpec) -> float | np.ndarray:
    """The dual norm of `s`, in closed form per kind.

    Duals: Sign -> entrywise l1; ColNorm -> sqrt(d_out) * sum of column l2 norms;
    RowNorm -> sum of row l2 norms / sqrt(d_in); Spectral -> sqrt(d_out / d_in) *
    nuclear norm; EuclideanVec -> l2; MaxVec -> l1; RmsVec -> sqrt(d) * l2. Satisfies
    <s, lmo(s)> == -radius * dual_norm(s), which the test suite checks as a genuinely
    independent pairing: the spectral dual takes its singular values from a separate
    values-only factorization, so the two sides share no factorization at all.
    """
    m = _operand(s, spec)
    if spec.is_vector:
        return _vector_dual_norm(m, spec)
    if not m.any():
        return 0.0
    k = spec.kind
    if k is NormKind.SIGN:
        return float(np.sum(np.abs(m)))
    if k is NormKind.SPECTRAL:
        return float(np.sqrt(spec.d_out / spec.d_in) * np.sum(singular_values(m)))
    if k is NormKind.COL_NORM:
        return float(np.sqrt(spec.d_out) * np.sum(np.linalg.norm(m, axis=0)))
    if k is NormKind.ROW_NORM:
        return float(np.sum(np.linalg.norm(m, axis=1)) / np.sqrt(spec.d_in))
    raise ValueError(f"unknown norm kind {k}")


def sharp_op(s, spec: NormSpec, ns_iters: int | None = None) -> np.ndarray:
    """Steepest-descent direction: sharp(s) = -(dual_norm(s) / radius) * lmo(s).

    Unlike the lmo, the sharp operator scales linearly with its input, and it
    satisfies <s, sharp(s)> == dual_norm(s)**2. Zero maps to zero. On a vector
    stack each row is scaled by its own dual norm.
    """
    m = _operand(s, spec)
    if not m.any():
        return np.zeros_like(m)
    dual = dual_norm(m, spec)
    if np.ndim(dual):
        dual = dual[:, None]
    return (-dual / spec.radius) * lmo(m, spec, ns_iters=ns_iters)


@dataclass(frozen=True)
class LayerNorms:
    """Norm specs for one layer: the weight matrix and, optionally, the bias vector."""

    weight: NormSpec
    bias: NormSpec | None = None

    def atoms(self) -> tuple[NormSpec, ...]:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)


@dataclass(frozen=True)
class ModelNormSpec:
    """Per-layer norm balls whose max defines one composite norm on the parameter list.

    The composite norm of params x is max over atoms of op_norm(x_i) / radius_i,
    so feasibility (composite <= 1) means every layer sits inside its own scaled
    ball. Minimizing a linear functional over that composite ball splits into
    independent per-atom lmos, each already carrying its layer radius.
    """

    layers: tuple[LayerNorms, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("ModelNormSpec needs at least one layer")
        atoms = tuple(atom for layer in self.layers for atom in layer.atoms())
        # Built once per instance; not a field, so equality and hashing ignore it.
        object.__setattr__(self, "_atoms", atoms)

    def atoms(self) -> tuple[NormSpec, ...]:
        """Every layer's atoms in order: the weight, then the bias if there is one."""
        return self._atoms


def _check_aligned(params: Sequence[np.ndarray], spec: ModelNormSpec) -> tuple[NormSpec, ...]:
    atoms = spec.atoms()
    if len(params) != len(atoms):
        raise ValueError(
            f"parameter list has {len(params)} entries but the norm spec has {len(atoms)}"
        )
    return atoms


def composite_norm(params: Sequence[np.ndarray], spec: ModelNormSpec) -> float | np.ndarray:
    """max over atoms of op_norm(param) / radius; feasible parameters have value <= 1.

    Stacked vector atoms give one value per row.
    """
    atoms = _check_aligned(params, spec)
    values = [op_norm(p, a) / a.radius for p, a in zip(params, atoms)]
    if np.ndim(values[0]):
        return functools.reduce(np.maximum, values)
    return max(values)


def model_lmo(
    grads: Sequence[np.ndarray], spec: ModelNormSpec, ns_iters: int | None = None
) -> list[np.ndarray]:
    """The joint lmo over the composite ball: per-atom lmos, radii included."""
    atoms = _check_aligned(grads, spec)
    return [lmo(g, a, ns_iters=ns_iters) for g, a in zip(grads, atoms)]


def gap_from_duals(
    grads: Sequence[np.ndarray],
    x: Sequence[np.ndarray],
    spec: ModelNormSpec,
    duals: Sequence[float | np.ndarray],
) -> float | np.ndarray:
    """fw_gap's identity <grad, x> + sum_i radius_i * duals_i, from per-atom dual norms
    the caller has already taken. Stacked vector atoms give one value per row."""
    atoms = _check_aligned(grads, spec)
    if len(x) != len(atoms):
        raise ValueError("x and grads must have the same layout")
    total = 0.0
    for g, xi, a, dual in zip(grads, x, atoms, duals):
        g = np.asarray(g, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64)
        if a.is_vector and g.ndim == 2:
            total += np.einsum("td,td->t", g, xi)
        else:
            total += float(np.vdot(g, xi))
        total += a.radius * dual
    return total


def fw_gap(
    grads: Sequence[np.ndarray], x: Sequence[np.ndarray], spec: ModelNormSpec
) -> float | np.ndarray:
    """Frank-Wolfe gap <grad, x - lmo(grad)> = <grad, x> + sum_i radius_i * dual(grad_i).

    Nonnegative whenever x is feasible for the composite ball; values near zero
    certify criticality for the constrained problem. Stacked vector atoms give one
    value per row.
    """
    atoms = _check_aligned(grads, spec)
    return gap_from_duals(grads, x, spec, [dual_norm(g, a) for g, a in zip(grads, atoms)])
