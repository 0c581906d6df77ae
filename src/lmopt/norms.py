"""Norm balls and their linear minimization oracles.

A `NormSpec` names a norm on vectors or on weight matrices (operator norms between
scaled vector norms) together with a ball radius. For each kind this module provides
the norm itself, the lmo over the ball (the minimizer of <s, x> subject to the norm
constraint), the dual norm, and the sharp operator. Network-level composites treat a
whole parameter list as one ball via the max of per-layer scaled norms, which makes
the joint lmo decompose into independent per-layer lmos.

Every kind runs a row oracle on its operand's rows (entries, rows, columns or the
whole matrix) with a dimension factor c, both from one table, `_KINDS`: lmo =
-radius * c * each row's unit direction, op_norm = each row's max |entry|, l2 norm
or sigma_max / c, and dual_norm = c * its l1, l2 or nuclear norm. A matrix kind
takes the max of its rows' op values and the sum of their dual values.

Conventions, chosen once and relied on by everything downstream:
  * sign(0) = 0, and the lmo of a zero input, row or column is zero. Both pick
    one element of a set-valued oracle; zero keeps the output in the ball and
    makes the oracle odd.
  * The lmo is positively scale invariant: lmo(a * s) == lmo(s) for a > 0.
  * A non-finite entry raises ValueError. The l2 and spectral kinds leave that
    check to `_l2_rows` and linalg, and linalg gives a zero matrix rank 0.
  * The l2 kinds (EuclideanVec, RmsVec, ColNorm, RowNorm) are scale-safe: a row
    whose sum of squares would overflow or underflow is normalized at a power of
    two (`_l2_rows`), so the lmo stays on the boundary for every finite operand;
    every other row keeps the plain formula's bits. op_norm and dual_norm apply c
    to such a row's norm before they map it back by its power of two (a matrix
    kind's dual sums its rows at one power of two), so a norm that c brings back
    into float64's range stays finite; a norm still past it is inf, silently.
    So is the l1 dual of MaxVec and Sign, whose c is 1.
  * Vector kinds also take a (T, d) stack and act row by row: op_norm, dual_norm
    and composite_norm return one value per row. Matrix kinds take one matrix.
  * Matrix kinds also take a `linalg.LowRank` left @ right.T. The exact spectral
    lmo works from its factors (`lowrank_svd`), so a rank-b gradient needs no
    (m, n) SVD; every other function, kind and backend works on the product. A
    product that is numerically zero relative to its factors, as when they
    cancel, has the zero lmo.
  * The exact spectral lmo is scale-safe as well: a matrix or factor far outside
    float64's midrange is brought to it by a power of two before its SVD or QR
    (`_svd_scaled`), and every other operand keeps its bits. The spectral op_norm
    and dual_norm scale the same matrices and return that power of two like an l2
    row's, so c applies before the map back.
  * The spectral op_norm takes sigma_max from the top eigenvalue of the smaller
    Gram matrix (`linalg.sigma_max`), about half the cost of a values-only SVD
    at the same relative accuracy. The spectral dual norm sums every singular
    value, which a Gram matrix would blur, so it keeps `singular_values`.
  * The lmo returns a fresh, writeable array that shares no memory with its
    operand, so `optim.step` writes its moves into it. When radius * c passes
    float64's range, the lmo takes c's mantissa into its coefficient and scales
    its output by c's power of two, so a representable output stays finite.
  * `composite_norm` is the SCG kernel's feasibility measure, but the kernel
    takes it only for iterates it has not certified: its own outputs are
    read-only and carry a convexity bound (see `optim`).

Everything here is a pure function, safe to call from multiple threads. The only
state kept is built once with each (frozen) NormSpec: its row oracle and c.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

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


VECTOR_KINDS = frozenset(
    {NormKind.EUCLIDEAN_VEC, NormKind.MAX_VEC, NormKind.RMS_VEC}
)


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("operand contains non-finite entries")


# Squared row norms in [_TINY, _HUGE] are finite normal numbers: the plain formulas
# neither overflow nor lose precision on such a row, and all its entries are finite.
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max
# Such a row's norm is at least sqrt(_TINY), so coef / norm cannot overflow while
# |coef| is at most _COEF_SAFE.
_COEF_SAFE = _HUGE * np.sqrt(_TINY)


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


# Layouts: split an operand m into its rows, or join the lmo r of those rows back
# into m's shape (a transpose does both).
def _same(m, *_):
    return m


def _transpose(m, *_):
    return m.T


def _flatten(m):
    return m.reshape(1, -1)


def _unflatten(r, m):
    return r.reshape(m.shape)


class _RowOracle(NamedTuple):
    """lmo(rows, coef, ns_iters) is coef times each row's unit direction; op(rows)
    and dual(rows) give each row's op-norm and dual-norm value as (v, e), the value
    v * 2**e, with e None when it is 0 for every row. The rows are split(m), and
    join(r, m) takes their lmo r back to the operand's shape."""

    lmo: Callable
    op: Callable
    dual: Callable
    split: Callable = _same
    join: Callable = _same


def _sign_lmo(r, coef, ns_iters):
    out = np.sign(r)
    out *= coef
    return out


def _max_abs(r):
    return np.max(np.abs(r), axis=-1), None


def _l1(r):
    with np.errstate(over="ignore"):  # a sum past float64's range is inf, silently
        return np.sum(np.abs(r), axis=-1), None


def _l2_lmo(r, coef, ns_iters):
    r, norms, e = _l2_rows(r)
    if e is None and abs(coef) <= _COEF_SAFE:  # every norm is positive
        return (coef / norms) * r
    # A zero row has the zero lmo. A row whose coef / norm would overflow is formed as
    # coef times its unit row, which stays finite, and so is every row under a coef
    # within 2**-20 of float64's largest, where (coef / norm) * r can round past it;
    # every other row keeps its bits.
    positive = norms > 0.0
    over = (norms < abs(coef) / _HUGE) | (abs(coef) > _HUGE / (1.0 + 2.0**-20))
    q = np.divide(coef, norms, out=np.zeros_like(norms), where=positive & ~over)
    unit = np.divide(r, norms, out=np.zeros_like(r), where=positive & over)
    return q * r + coef * unit


def _l2(r):
    _, norms, e = _l2_rows(r)
    return norms[..., 0], (None if e is None else e[..., 0])


# A matrix whose largest |entry| lies in [2**-256, 2**256] keeps its bits: neither
# its SVD nor, for a factor, its QR and the core product overflow or underflow.
# Any other is scaled by the power of two that brings that entry into [0.5, 1),
# which the lmo's scale invariance allows.
_SVD_EXPONENT = 256


def _svd_scaled(m: np.ndarray) -> tuple[np.ndarray, int | None]:
    """(m * 2**-e, e), or (m, None) for a matrix in range."""
    e = int(np.frexp(max(m.max(), -m.min()))[1])
    return (m, None) if -_SVD_EXPONENT < e <= _SVD_EXPONENT else (np.ldexp(m, -e), e)


def _spectral_lmo(m, coef, ns_iters):
    if isinstance(m, LowRank):  # a zero operand has rank 0, so its lmo is zero
        m = LowRank(_svd_scaled(m.left)[0], _svd_scaled(m.right)[0])
        out = lowrank_svd(m).orthogonal_factor()
    elif ns_iters is None:
        out = svd_reduced(_svd_scaled(m)[0]).orthogonal_factor()
    else:
        out = newton_schulz_orthogonalize(m, ns_iters)
    out *= coef
    return out


def _sigma_max(m):
    r, e = _svd_scaled(m)
    return sigma_max(r), e


def _nuclear(m):
    r, e = _svd_scaled(m)
    return np.sum(singular_values(r)), e


_MAX_ROWS = _RowOracle(_sign_lmo, _max_abs, _l1)
_MAX_FLAT = _MAX_ROWS._replace(split=_flatten, join=_unflatten)
_L2_ROWS = _RowOracle(_l2_lmo, _l2, _l2)
_L2_COLUMNS = _L2_ROWS._replace(split=_transpose, join=_transpose)
_SPECTRAL = _RowOracle(_spectral_lmo, _sigma_max, _nuclear)

# The one per-kind decision: each kind's row oracle, and its dimension factor c as a
# function of (o, i) = (d_out, d_in). Rows are the last axis for the vector kinds and
# RowNorm, the columns for ColNorm, the flattened matrix for Sign and the whole
# matrix for Spectral.
_KINDS = {
    NormKind.SIGN: (_MAX_FLAT, lambda o, i: 1.0),
    NormKind.COL_NORM: (_L2_COLUMNS, lambda o, i: np.sqrt(o)),
    NormKind.ROW_NORM: (_L2_ROWS, lambda o, i: 1.0 / np.sqrt(i)),
    NormKind.SPECTRAL: (_SPECTRAL, lambda o, i: np.sqrt(o / i)),
    NormKind.EUCLIDEAN_VEC: (_L2_ROWS, lambda o, i: 1.0),
    NormKind.MAX_VEC: (_MAX_ROWS, lambda o, i: 1.0),
    NormKind.RMS_VEC: (_L2_ROWS, lambda o, i: np.sqrt(o)),
}


@dataclass(frozen=True)
class NormSpec:
    """A norm ball: kind + radius + operand dimensions (vector kinds use d_in = 1)."""

    kind: NormKind
    radius: float
    d_out: int
    d_in: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, NormKind):
            raise ValueError(f"kind must be a NormKind, got {self.kind!r}")
        if self.radius <= 0.0 or not np.isfinite(self.radius):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.d_out < 1 or self.d_in < 1:
            raise ValueError(f"dimensions must be >= 1, got ({self.d_out}, {self.d_in})")
        if self.kind in VECTOR_KINDS and self.d_in != 1:
            raise ValueError(f"vector norm {self.kind.value} requires d_in = 1")
        oracle, c = _KINDS[self.kind]
        c = c(self.d_out, self.d_in)
        # The lmo's coefficient -radius * c as (coef, e), standing for coef * 2**e. e
        # is None unless radius * c passes float64's range; then coef takes c's
        # mantissa and the lmo scales its output by 2**e, so an output whose entries
        # are representable stays finite.
        with np.errstate(over="ignore"):
            lmo_coef = (-self.radius * c, None)
        if np.isinf(lmo_coef[0]):
            mantissa, e = np.frexp(c)
            lmo_coef = (-self.radius * mantissa, int(e))
        # Built once per instance; not fields, so equality and hashing ignore them.
        object.__setattr__(self, "_oracle", oracle)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_lmo_coef", lmo_coef)
        object.__setattr__(self, "_matrix", not self.is_vector)

    @property
    def is_vector(self) -> bool:
        return self.kind in VECTOR_KINDS

    @classmethod
    def vector(cls, kind: NormKind, length: int, radius: float = 1.0) -> "NormSpec":
        return cls(kind=kind, radius=radius, d_out=length, d_in=1)


def _operand(s, spec: NormSpec, keep_factors: bool = False) -> np.ndarray | LowRank:
    """Validate an operand against the spec's shape and return it as float64.

    A LowRank, whose factors were checked when it was built, needs a matrix kind. It
    comes back as itself when keep_factors is set, for `lowrank_svd`, and otherwise
    as its product, checked like any dense operand. A non-finite entry raises
    ValueError; the l2 and spectral kinds leave that check to the range guard of
    `_l2_rows` and to linalg, whose every route ends in `as_matrix`.
    """
    if isinstance(s, LowRank):
        if not spec._matrix:
            raise ValueError(f"a low-rank operand needs a matrix kind, not {spec.kind.value}")
        a = s if keep_factors else s.dense()
    else:
        a = np.asarray(s, dtype=np.float64)
    if spec._matrix and a.shape != (spec.d_out, spec.d_in):
        raise ValueError(
            f"expected shape ({spec.d_out}, {spec.d_in}) for {spec.kind.value}, "
            f"got shape {a.shape}"
        )
    if not spec._matrix and (a.ndim not in (1, 2) or a.shape[-1] != spec.d_out):
        raise ValueError(
            f"expected a vector of length {spec.d_out}, or a stack of them, for "
            f"{spec.kind.value}, got shape {a.shape}"
        )
    if spec._oracle.op is _max_abs:
        _check_finite(a)
    return a


def lmo_coefficient(spec: NormSpec) -> float:
    """Magnitude of the lmo output's directional part, radius * c: Spectral's c is
    sqrt(d_out / d_in), ColNorm's sqrt(d_out) per column, RowNorm's 1 / sqrt(d_in)
    per row and RmsVec's sqrt(d); the others' is 1. It is the lmo's own coefficient,
    so a product past float64's range is inf, without a warning."""
    coef, e = spec._lmo_coef
    return -coef if e is None else _map_back(-coef, e)


def scale_by_lmo_coefficient(w: np.ndarray, spec: NormSpec) -> np.ndarray:
    """w times lmo_coefficient(spec), applied as the lmo applies it: by its coef in
    place, then by its power of two. So a boundary initializer's unit-scale draw
    lands on the ball with finite entries wherever they are representable, even
    when the coefficient itself is inf; an entry past float64's range is inf,
    silently. In range this is one product with the coefficient, bit for bit."""
    coef, e = spec._lmo_coef
    w *= -coef
    return w if e is None else _map_back(w, e)


def op_norm(a, spec: NormSpec) -> float | np.ndarray:
    """The norm named by `spec` (operator norm for matrix kinds, vector norm otherwise)."""
    m = _operand(a, spec)
    values, e = spec._oracle.op(spec._oracle.split(m))
    values = values / spec._c
    if e is not None:
        values = _map_back(values, e)
    if spec._matrix:
        return float(np.max(values))
    return values if values.ndim else float(values)


def lmo(s, spec: NormSpec, ns_iters: int | None = None) -> np.ndarray:
    """Minimizer of <s, x> over the spec's norm ball.

    For nonzero input the output sits on the ball boundary (op_norm == radius) and
    pairs with the input as <s, lmo(s)> == -radius * dual_norm(s). The spectral kind
    uses the exact reduced SVD by default, taken from the factors of a LowRank;
    pass ns_iters to use the Newton-Schulz approximation instead, which keeps the
    boundary only up to its singular-value band.

    The output is a fresh, writeable array that shares no memory with `s`, so a
    caller may write into it (`optim.step` forms its moves there). Its entries are
    finite wherever the exact output is representable, even when radius * c is not;
    an entry past float64's range is inf, silently.
    """
    factored = isinstance(s, LowRank) and spec.kind is NormKind.SPECTRAL and ns_iters is None
    m = _operand(s, spec, keep_factors=factored)
    oracle = spec._oracle
    coef, e = spec._lmo_coef
    out = oracle.join(oracle.lmo(oracle.split(m), coef, ns_iters), m)
    return out if e is None else _map_back(out, e)


def dual_norm(s, spec: NormSpec) -> float | np.ndarray:
    """The dual norm of `s`: c times each row's l1, l2 or nuclear norm, summed over
    the rows of a matrix kind.

    Duals: Sign -> entrywise l1; ColNorm -> sqrt(d_out) * sum of column l2 norms;
    RowNorm -> sum of row l2 norms / sqrt(d_in); Spectral -> sqrt(d_out / d_in) *
    nuclear norm; EuclideanVec -> l2; MaxVec -> l1; RmsVec -> sqrt(d) * l2. Satisfies
    <s, lmo(s)> == -radius * dual_norm(s), which the test suite checks as a genuinely
    independent pairing: the spectral dual takes its singular values from a separate
    values-only factorization, so the two sides share no factorization at all.
    """
    m = _operand(s, spec)
    values, e = spec._oracle.dual(spec._oracle.split(m))
    if not spec._matrix:
        values = spec._c * values
        if e is not None:
            values = _map_back(values, e)
        return values if values.ndim else float(values)
    if e is None:
        return float(spec._c * np.sum(values))
    # A matrix kind sums its rows at the power of two 2**top of its largest row.
    top = int(np.max(e))
    return float(_map_back(spec._c * np.sum(np.ldexp(values, e - top)), top))


def _map_back(values, e):
    """values * 2**e, as op_norm and dual_norm map a scaled row's norm back and lmo
    applies its coefficient's exponent; a value past float64's range is inf, without
    a warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, e)


def sharp_op(s, spec: NormSpec, ns_iters: int | None = None) -> np.ndarray:
    """Steepest-descent direction: sharp(s) = -(dual_norm(s) / radius) * lmo(s).

    Unlike the lmo, the sharp operator scales linearly with its input, and it
    satisfies <s, sharp(s)> == dual_norm(s)**2. Zero maps to zero. On a vector
    stack each row is scaled by its own dual norm.
    """
    m = _operand(s, spec)
    dual = dual_norm(m, spec)
    if np.ndim(dual):
        dual = dual[:, None]
    with np.errstate(over="ignore"):
        scale = -dual / spec.radius
    direction = lmo(m, spec, ns_iters=ns_iters)
    if np.isfinite(scale).all():
        return scale * direction
    # A scale past float64's range is inf: it sends the lmo's nonzero entries to
    # inf and keeps its zero entries at 0, where inf * 0 would be NaN.
    with np.errstate(invalid="ignore"):
        return np.where(direction == 0.0, 0.0, scale * direction)


@dataclass(frozen=True)
class ModelNormSpec:
    """Per-atom norm balls whose max defines one composite norm on the parameter list.

    An atom is one parameter array's ball; a model lists each layer's weight, then
    its bias if it has one. The composite norm of params x is max over atoms of
    op_norm(x_i) / radius_i, so feasibility (composite <= 1) means every array sits
    inside its own scaled ball. Minimizing a linear functional over that composite
    ball splits into independent per-atom lmos, each already carrying its radius.
    """

    atoms: tuple[NormSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ValueError("ModelNormSpec needs at least one atom")
        if not all(isinstance(atom, NormSpec) for atom in self.atoms):
            raise ValueError(f"atoms must be NormSpecs, got {self.atoms!r}")


def _check_aligned(params: Sequence[np.ndarray], spec: ModelNormSpec) -> tuple[NormSpec, ...]:
    atoms = spec.atoms
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
