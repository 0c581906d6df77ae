"""Dense linear algebra primitives.

Reduced SVD, singular values without vectors, the reduced SVD of a low-rank
product taken from its factors (`LowRank`, `lowrank_svd`), Newton-Schulz
orthogonalization, semi-orthogonal initializers, and a small counter-based PRNG
(splitmix64 + Box-Muller) so that every random draw is reproducible across
platforms and numpy versions. The Gaussian draw also takes a sequence or uint64
array of seeds and returns one draw per seed on leading axes; `derive_seeds`
derives such an array for many indices in one vectorized pass.
All operations are pure functions of their inputs; there is no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

# Relative cutoff below which trailing singular values are treated as rank deficiency.
RANK_RTOL = 1e-10

# Aggressive quintic coefficients for the Newton-Schulz phase. They maximize the slope
# at zero, so 5 passes lift even badly conditioned spectra, at the cost of orbiting a
# two-cycle around 1 instead of converging. Two cubic refinement passes afterwards pull
# the singular values back onto a tight band around 1.
NS_QUINTIC = (3.4445, -4.7750, 2.0315)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite float64 2-D array, rejecting NaN/Inf and bad shapes."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_dims(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be >= 1, got ({rows}, {cols})")


@dataclass(frozen=True)
class SvdResult:
    """Reduced SVD factors: u is (rows, r), sigma is (r,) nonincreasing, vt is (r, cols)."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.vt

    def orthogonal_factor(self) -> np.ndarray:
        """The polar direction u @ vt, the closest semi-orthogonal matrix in the row/col span."""
        return self.u @ self.vt


@dataclass(frozen=True)
class LowRank:
    """The matrix left @ right.T held as its factors: left is (m, b), right is (n, b).

    A product of b outer products, such as a batch-of-b weight gradient, has rank at
    most b; `lowrank_svd` factors it without forming the (m, n) product. It is an
    operand, not an array: `dense()` forms the product. Its factors are taken as
    float64 when it is built, and must be 2-D, nonempty and share their column count.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            f = np.asarray(getattr(self, name), dtype=np.float64)
            if f.ndim != 2:
                raise ValueError(f"{name} factor must be 2-D, got shape {f.shape}")
            if f.size == 0:
                raise ValueError(f"{name} factor must be nonempty, got shape {f.shape}")
            object.__setattr__(self, name, f)
        if self.left.shape[1] != self.right.shape[1]:
            raise ValueError(
                f"factors must share a column count, got {self.left.shape} and {self.right.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.right.shape[0]

    def dense(self) -> np.ndarray:
        return self.left @ self.right.T


def svd_reduced(a) -> SvdResult:
    """Reduced SVD, rank-truncated at RANK_RTOL relative to the largest singular value.

    The factors are LAPACK's own arrays, copied only when the cutoff drops a
    trailing column. A zero matrix has rank 0: empty factors, whose orthogonal
    factor is the zero matrix, as lowrank_svd gives a zero product.
    """
    u, s, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    keep = s > RANK_RTOL * s[0]
    if not keep.all():
        u, s, vt = u[:, keep], s[keep], vt[keep, :]
    return SvdResult(u=u, sigma=s, vt=vt)


def singular_values(a) -> np.ndarray:
    """The `sigma` of svd_reduced(a) without the singular vectors.

    Same validation and RANK_RTOL cutoff as svd_reduced, so a zero matrix has an
    empty spectrum, for callers that need only a norm of the spectrum (nuclear norm).
    """
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    return s[s > RANK_RTOL * s[0]]


def sigma_max(a) -> float:
    """The largest singular value of `a`, from one symmetric eigensolve.

    sigma_max is the square root of the top eigenvalue of the smaller Gram matrix
    (a^T a or a a^T), which a symmetric eigensolver finds in about half the time of
    a values-only SVD and to the same relative accuracy: the eigenvalue's error is
    about eps * sigma_max^2, so the root's is about eps * sigma_max / 2. The matrix
    is divided by its largest entry magnitude first, so the Gram matrix neither
    overflows nor underflows, and the root is scaled back. The small singular
    values lose half their digits this way, so a norm that sums the spectrum
    (nuclear) takes singular_values instead. A zero matrix gives 0; input is
    validated as in as_matrix.
    """
    m = as_matrix(a)
    scale = max(m.max(), -m.min())
    if scale == 0.0:
        return 0.0
    m = m / scale
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    return float(scale * np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def lowrank_svd(a: LowRank) -> SvdResult:
    """Reduced SVD of left @ right.T from its factors, in O((m + n) b^2) work.

    The exact-rank case of a randomized range finder (Halko, Martinsson & Tropp
    2011) with the factors as the range: QR each factor, left = Ql Rl and
    right = Qr Rr, take the SVD of the b x b core Rl Rr^T and map its vectors back
    through Ql and Qr. The cutoff is RANK_RTOL relative to the largest singular
    value, as in svd_reduced. A product below RANK_RTOL * ||Rl||_F ||Rr||_F, which
    bounds sigma_max, is numerically zero, including factors that cancel: it has
    rank 0 and empty factors. Each factor is checked for finiteness by as_matrix;
    the LowRank checked their shapes when it was built.
    """
    left, right = as_matrix(a.left, "left factor"), as_matrix(a.right, "right factor")
    ql, rl = np.linalg.qr(left)
    qr, rr = np.linalg.qr(right)
    core = rl @ rr.T
    scale = np.linalg.norm(rl) * np.linalg.norm(rr)
    if not (np.isfinite(core).all() and np.isfinite(scale)):
        raise ValueError("low-rank product overflows float64")
    u, s, vt = np.linalg.svd(core, full_matrices=False)
    keep = (s > RANK_RTOL * s[0]) & (s[0] > RANK_RTOL * scale)
    return SvdResult(u=ql @ u[:, keep], sigma=s[keep], vt=vt[keep, :] @ qr.T)


def newton_schulz_orthogonalize(a, iters: int = 5) -> np.ndarray:
    """Approximate the orthogonal factor u @ vt of `a` with matrix products only.

    The input is scaled by the power of two that brings its largest |entry| into
    [0.5, 1), so no finite scale overflows or underflows and in-range inputs keep
    their bits, then normalized by its Frobenius norm, run through `iters` quintic
    passes x <- a*x + b*(x x^T) x + c*(x x^T)^2 x with NS_QUINTIC coefficients,
    then through two cubic refinement passes x <- 1.5 x - 0.5 (x x^T) x. For
    inputs with condition number <= 100 at desk-scale sizes the output singular
    values land well inside [0.65, 1.35]. iters=0 returns the normalized input
    unchanged; a zero matrix maps to zero by convention.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    m = as_matrix(a)
    top = max(m.max(), -m.min())
    if top == 0.0:
        return np.zeros_like(m)
    transposed = m.shape[0] > m.shape[1]
    x = m.T.copy() if transposed else m.copy()
    np.ldexp(x, -np.frexp(top)[1], out=x)
    x /= np.linalg.norm(x)
    if iters > 0:
        ca, cb, cc = NS_QUINTIC
        for _ in range(iters):
            xxt = x @ x.T
            x = ca * x + (cb * xxt + cc * (xxt @ xxt)) @ x
        for _ in range(2):
            x = 1.5 * x - 0.5 * (x @ x.T) @ x
    return x.T if transposed else x


def _mix64_int(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Fold indices into a seed, giving independent substreams per (seed, index...)."""
    s = int(seed) & _MASK64
    for i in indices:
        s = _mix64_int((s + ((int(i) + 1) * _GOLDEN)) & _MASK64)
    return s


def _seed_words(seed) -> np.ndarray:
    """One seed as a uint64 scalar. A sequence of seeds becomes a (S, 1) uint64
    column, and a uint64 array (as derive_seeds returns) gains a trailing axis."""
    if isinstance(seed, Integral):
        return np.uint64(int(seed) & _MASK64)
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint64:
        return seed[..., None]
    return np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)[:, None]


def _mix64(z: np.ndarray) -> np.ndarray:
    # _mix64_int on a uint64 array the caller owns, mixed in place with one shift
    # buffer; uint64 arithmetic wraps mod 2^64 as _mix64_int's mask does.
    t = np.right_shift(z, np.uint64(30))
    z ^= t
    z *= np.uint64(_MIX_A)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX_B)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def derive_seeds(seeds, indices) -> np.ndarray:
    """derive_seed(s, i) for every seed s in `seeds` and every index i in `indices`.

    Returns a (len(seeds), len(indices)) uint64 array whose entry [j, m] equals
    derive_seed(seeds[j], indices[m]) bit for bit. Folding index i into s is value i
    of splitmix64's counter stream from s, so a whole range of indices is one
    vectorized mix. `seeds` is a sequence of integers or a uint64 array, `indices`
    a 1-D integer array or sequence. rng_gaussian takes the result as its seeds.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be a 1-D integer sequence, got {idx.dtype} {idx.shape}")
    # astype wraps a negative index mod 2^64, as derive_seed's mask does.
    return _mix64(_seed_words(seeds) + (idx.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN))


def _bits(count: int, seed) -> np.ndarray:
    # splitmix64 in counter form: value i is mix(seed + (i+1)*GOLDEN) mod 2^64.
    # A sequence of seeds gives one (count,) row per seed; the uint64 arithmetic
    # wraps mod 2^64 exactly as the scalar form does.
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z = _seed_words(seed) + z  # rebinding frees the counter before the mix
    return _mix64(z)


def _uniform01(count: int, seed) -> np.ndarray:
    # Top 53 bits shifted into (0, 1]; never 0, so log() below is safe.
    b = _bits(count, seed)
    b >>= np.uint64(11)
    u = b.astype(np.float64)
    u += 1.0
    u *= 2.0**-53
    return u


def rng_gaussian(rows: int, cols: int, seed) -> np.ndarray:
    """Standard normal matrix via Box-Muller over the splitmix64 counter stream.

    `seed` is one integer, or a sequence of S integers for an (S, rows, cols) stack
    whose slice i equals rng_gaussian(rows, cols, seed[i]) bit for bit. A uint64
    seed array of any shape, such as derive_seeds returns, gives a stack with those
    leading axes, each slice again equal to the draw from its own seed.
    """
    _check_dims(rows, cols)
    n = rows * cols
    half = (n + 1) // 2
    u = _uniform01(2 * half, seed)
    # Radius and angle in place in u's two halves, then cos and sin written straight
    # into the output's two halves; an odd n drops the last sine.
    r, theta = u[..., :half], u[..., half:]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    z = np.empty(u.shape[:-1] + (n,))
    cos, sin = z[..., :half], z[..., half:]
    np.cos(theta, out=cos)
    cos *= r
    np.sin(theta[..., : n - half], out=sin)
    sin *= r[..., : n - half]
    return z.reshape(u.shape[:-1] + (rows, cols))


def rng_rademacher(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of independent +/-1 entries, deterministic per seed."""
    _check_dims(rows, cols)
    b = _bits(rows * cols, seed)
    b &= np.uint64(1)
    z = b.astype(np.float64)
    z *= 2.0
    np.subtract(1.0, z, out=z)
    return z.reshape(rows, cols)


def rng_permutation(n: int, seed: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of the counter stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.argsort(_bits(n, seed), kind="stable")


def semi_orthogonal_init(d_out: int, d_in: int, seed: int) -> np.ndarray:
    """Semi-orthogonal (d_out, d_in) matrix from the QR factorization of a Gaussian draw.

    The Q factor's column signs are fixed with sign(diag(R)), removing the QR sign
    ambiguity. The thin dimension carries an exactly orthonormal frame: columns are
    orthonormal when d_in <= d_out, rows when d_in > d_out. Its largest singular
    value is 1, so scaling by a radius puts the matrix on that norm-ball boundary.
    """
    _check_dims(d_out, d_in)
    wide = d_in > d_out
    rows, cols = (d_in, d_out) if wide else (d_out, d_in)
    g = rng_gaussian(rows, cols, seed)
    q, r = np.linalg.qr(g)
    q *= np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return q.T if wide else q
