"""The oracle contracts by property: for every kind, on single operands and (T, d)
stacks, dense matrices and `LowRank` factors, with zero rows and columns and at
power-of-two scales across float64's range, the exact lmo sits on the boundary,
pairs with the dual norm, is invariant under positive scaling and odd, and returns
a fresh, writeable array.

Entries are multiples of 1/16 in [-4, 4] before the scale, so a scaled operand
holds only normal numbers and a factored product is exact. The draw is derandomized
with no example database, so the suite stays deterministic.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lmopt.linalg import LowRank
from lmopt.norms import VECTOR_KINDS, NormKind, NormSpec, dual_norm, lmo, op_norm

MAX_DIM = 6
MAX_STACK = 4
MAX_FACTOR_WIDTH = 3
MAX_EXPONENT = 1000
RADII = (0.25, 1.0, 1.7, 3.0)
BOUNDARY_RTOL = 1e-10
PAIRING_RTOL = 1e-8
_TINY = np.finfo(np.float64).tiny

_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


class Case(NamedTuple):
    spec: NormSpec
    operand: np.ndarray | LowRank  # base scaled by 2**exponent
    base: np.ndarray | LowRank


def _entries(draw, shape, zero_rows=True, zero_cols=True):
    """A (rows, cols) array of multiples of 1/16 in [-4, 4], with some rows and
    columns zeroed; one in ten is all zero."""
    rows, cols = shape
    values = draw(st.lists(st.integers(-64, 64), min_size=rows * cols, max_size=rows * cols))
    a = np.array(values, dtype=np.float64).reshape(shape) / 16.0
    if draw(st.integers(0, 9)) == 0:
        a[:] = 0.0
    if zero_rows:
        a[sorted(draw(st.sets(st.integers(0, rows - 1), max_size=rows)))] = 0.0
    if zero_cols:
        a[:, sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols)))] = 0.0
    return a


@st.composite
def cases(draw) -> Case:
    kind = draw(st.sampled_from(sorted(NormKind, key=lambda k: k.value)))
    d_out = draw(st.integers(1, MAX_DIM))
    d_in = 1 if kind in VECTOR_KINDS else draw(st.integers(1, MAX_DIM))
    spec = NormSpec(kind, draw(st.sampled_from(RADII)), d_out, d_in)
    e = draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT))
    if spec.is_vector:
        if draw(st.booleans()):  # a (T, d) stack: zero rows are whole zero vectors
            base = _entries(draw, (draw(st.integers(1, MAX_STACK)), d_out))
        else:
            base = _entries(draw, (1, d_out), zero_rows=False)[0]
        return Case(spec, np.ldexp(base, e), base)
    if draw(st.booleans()):
        # Zero rows of a factor are zero rows or columns of the product; the scale
        # goes on the left factor, so the product is the base's times 2**e.
        b = draw(st.integers(1, MAX_FACTOR_WIDTH))
        left = _entries(draw, (d_out, b), zero_cols=False)
        right = _entries(draw, (d_in, b), zero_cols=False)
        return Case(spec, LowRank(np.ldexp(left, e), right), LowRank(left, right))
    base = _entries(draw, (d_out, d_in))
    return Case(spec, np.ldexp(base, e), base)


def _dense(s):
    return s.dense() if isinstance(s, LowRank) else s


def _arrays(s):
    return (s.left, s.right) if isinstance(s, LowRank) else (s,)


def _negated(s):
    return LowRank(-s.left, s.right) if isinstance(s, LowRank) else -s


def _stacked(case: Case) -> bool:
    return case.spec.is_vector and np.ndim(case.operand) == 2


def _inner(case: Case, out):
    """<s, out>, one value per row of a stack."""
    s = _dense(case.operand)
    return np.einsum("td,td->t", s, out) if _stacked(case) else np.vdot(s, out)


def _nonzero(case: Case):
    """Whether the operand (each row of a stack) is nonzero."""
    s = _dense(case.operand)
    return np.any(s != 0.0, axis=-1) if _stacked(case) else bool(s.any())


def _scale(spec: NormSpec) -> float:
    """A bound on the size of the lmo's entries: radius * c, or radius for c < 1."""
    return spec.radius * max(1.0, spec._c)


def _close(a, b, scale):
    """a and b agree to BOUNDARY_RTOL relative to their own size and to `scale`."""
    np.testing.assert_allclose(a, b, rtol=BOUNDARY_RTOL, atol=BOUNDARY_RTOL * scale)


@_SETTINGS
@given(cases())
def test_boundary_and_pairing(case):
    spec = case.spec
    out = lmo(case.operand, spec)
    nonzero = _nonzero(case)
    bound = op_norm(out, spec)
    np.testing.assert_allclose(
        np.where(nonzero, bound, spec.radius), spec.radius, rtol=BOUNDARY_RTOL
    )
    zero_out = ~np.any(out != 0.0, axis=-1) if _stacked(case) else not out.any()
    assert np.array_equal(zero_out, ~np.asarray(nonzero))
    # The pairing, where both sides are normal numbers: a subnormal operand's inner
    # product loses digits that the oracle did not lose.
    lhs, rhs = _inner(case, out), -spec.radius * dual_norm(case.operand, spec)
    normal = np.isfinite(lhs) & np.isfinite(rhs) & (np.abs(lhs) >= _TINY)
    normal &= np.abs(rhs) >= _TINY
    np.testing.assert_allclose(
        np.where(normal, lhs, 1.0), np.where(normal, rhs, 1.0), rtol=PAIRING_RTOL
    )


@_SETTINGS
@given(cases())
def test_scale_invariance(case):
    # The operand is its base times 2**e, with e anywhere in [-1000, 1000].
    base = lmo(case.base, case.spec)
    _close(lmo(case.operand, case.spec), base, _scale(case.spec))


@_SETTINGS
@given(cases())
def test_oddness(case):
    out = lmo(case.operand, case.spec)
    _close(lmo(_negated(case.operand), case.spec), -out, _scale(case.spec))


@_SETTINGS
@given(cases())
def test_output_is_fresh_and_writeable(case):
    # optim.step writes its moves into the oracle's output, so the output may share
    # no memory with the operand, even a read-only one.
    parts = _arrays(case.operand)
    for p in parts:
        p.flags.writeable = False
    backends = (None, 5) if case.spec.kind is NormKind.SPECTRAL else (None,)
    for ns_iters in backends:
        out = lmo(case.operand, case.spec, ns_iters=ns_iters)
        assert out.flags.writeable
        assert not any(np.shares_memory(out, p) for p in parts)
