"""Desk-scale problems: a noisy quadratic with known curvature, synthetic Gaussian
classification data, and an IDX-format dataset loader.

Everything is deterministic per seed. Gradient noise on the quadratic is scaled so
the expected squared l2 norm of the injected noise equals noise**2 exactly, which is
the bounded-variance level the convergence harnesses reason about.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import derive_seed, derive_seeds, rng_gaussian

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass(frozen=True)
class StochasticQuadratic:
    """f(x) = 0.5 x^T H x with H diagonal, eigenvalues log-spaced over the conditioning.

    The top eigenvalue is 1, so the gradient's Lipschitz constant is exactly 1.
    noisy_grad adds i.i.d. Gaussian noise with E||noise||_2^2 = noise**2;
    step_noise draws that noise for a range of steps at once.

    Every method also takes a (T, dim) stack of iterates, one row per trial; the
    trial-keyed methods then take a sequence of T trial indices, and row i is
    bit-identical to the single-trial call with trial[i]. A non-finite noise or
    conditioning is refused when built, naming the field.
    """

    dim: int
    noise: float = 0.0
    conditioning: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.noise < np.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not 1.0 <= self.conditioning < np.inf:
            raise ValueError(f"conditioning must be finite and >= 1, got {self.conditioning}")
        if self.dim == 1:
            eig = np.ones(1)
        else:
            eig = np.logspace(-np.log10(self.conditioning), 0.0, self.dim)
        eig.flags.writeable = False
        # Computed once per instance; not a field, so equality and hashing ignore it.
        object.__setattr__(self, "_eigenvalues", eig)

    def eigenvalues(self) -> np.ndarray:
        """The diagonal of H (read-only, shared by every call on this instance)."""
        return self._eigenvalues

    def loss(self, x: np.ndarray) -> float | np.ndarray:
        """f(x): a float for one iterate, one value per row of a (T, dim) stack."""
        f = 0.5 * np.einsum("...d,...d->...", x, self._eigenvalues * x)
        return float(f) if f.ndim == 0 else f

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._eigenvalues * x

    def _gaussian(self, trial, start: int, stop: int) -> np.ndarray:
        """Standard normal draws keyed by (seed, trial, step) for steps start..stop-1:
        (stop - start, dim) for one trial index, (stop - start, T, dim) for T."""
        single = isinstance(trial, Integral)
        base = [derive_seed(self.seed, t) for t in ([trial] if single else trial)]
        seeds = derive_seeds(base, np.arange(start, stop)).T
        eps = rng_gaussian(self.dim, 1, seeds)[..., 0]
        return eps[:, 0] if single else eps

    def step_noise(self, trial, start: int, stop: int) -> np.ndarray:
        """The noise noisy_grad adds at steps start..stop-1, in one draw: shaped
        (stop - start, dim) for one trial index and (stop - start, T, dim) for a
        sequence of T, with row k - start bit-identical to step k's noise. An entry
        past float64's range, as at a noise near float64's max, is inf; the harness
        names the step that meets it."""
        with np.errstate(over="ignore"):
            return (self.noise / np.sqrt(self.dim)) * self._gaussian(trial, start, stop)

    def noisy_grad(self, x: np.ndarray, trial, step: int) -> np.ndarray:
        """grad(x) plus the noise keyed by (seed, trial, step); `trial` is one index
        for a single iterate or a sequence of indices, one per row of a stack."""
        g = self.grad(x)
        if not isinstance(trial, Integral) and g.shape[:-1] != (len(trial),):
            raise ValueError(
                f"a stack of shape {np.shape(x)} needs one trial index per row, "
                f"got {len(trial)}"
            )
        if self.noise == 0.0:
            return g
        return g + self.step_noise(trial, step, step + 1)[0]

    def start_point(self, trial, scale: float = 2.0) -> np.ndarray:
        """A deterministic start at l2 distance `scale` from the minimizer; a
        sequence of trial indices gives one start per row of a (T, dim) stack.

        A row whose scale * v would overflow, as near float64's largest radius, is
        formed as scale * (v / ||v||) instead, which cannot overflow; every other
        row keeps the bits of (scale * v) / ||v||."""
        v = self._gaussian(trial, 0, 1)[0]
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            scaled = scale * v
        fits = np.isfinite(scaled).all(axis=-1, keepdims=True)
        return np.where(fits, scaled / norm, scale * (v / norm))


@dataclass(frozen=True)
class SyntheticClassification:
    """Gaussian cluster mixture per class; inputs rescaled so every ||z||_RMS <= 1."""

    dim: int
    classes: int = 4
    clusters: int = 2
    noise: float = 0.3
    train_size: int = 512
    test_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.classes < 2 or self.clusters < 1:
            raise ValueError("need dim >= 1, classes >= 2, clusters >= 1")
        if self.train_size < 1 or self.test_size < 0:
            raise ValueError("need train_size >= 1 and test_size >= 0")
        if not 0.0 <= self.noise < np.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


def gen_synthetic(
    spec: SyntheticClassification,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (train_x, train_y, test_x, test_y); x arrays are (dim, n). Every
    finite noise level gives finite, nonzero features; the spec refuses any other."""
    centers = rng_gaussian(
        spec.dim, spec.classes * spec.clusters, derive_seed(spec.seed, 0)
    )
    total = spec.train_size + spec.test_size
    labels = np.arange(total) % spec.classes
    cluster = (np.arange(total) // spec.classes) % spec.clusters
    noise = rng_gaussian(spec.dim, total, derive_seed(spec.seed, 1))
    # Built at the power-of-two scale 2^-e, so a noise up to float64's max stays
    # finite; the rescale below cancels the scale exactly.
    e = max(0, int(np.frexp(spec.noise)[1]))
    centers, scale = np.ldexp(centers, -e), np.ldexp(spec.noise, -e)
    x = centers[:, labels * spec.clusters + cluster] + scale * noise
    # One global rescale keeps relative geometry while bounding every sample's RMS norm.
    rms = np.linalg.norm(x, axis=0) / np.sqrt(spec.dim)
    x = x / max(float(rms.max()), 1e-12)
    return (
        x[:, : spec.train_size],
        labels[: spec.train_size].copy(),
        x[:, spec.train_size :],
        labels[spec.train_size :].copy(),
    )


def _read_exact(fh, count: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"unexpected end of file at offset {fh.tell()} in {path}")
    return data


def load_idx(path: str) -> np.ndarray:
    """Parse one big-endian IDX file: images (magic 0x00000803) come back as a
    (n, rows, cols) uint8 array, labels (magic 0x00000801) as a (n,) uint8 array."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, path))[0]
        if magic == IDX_MAGIC_LABELS:
            dims = 1
        elif magic == IDX_MAGIC_IMAGES:
            dims = 3
        else:
            raise ValueError(
                f"bad IDX magic 0x{magic:08X} in {path}: expected images "
                f"0x{IDX_MAGIC_IMAGES:08X} or labels 0x{IDX_MAGIC_LABELS:08X}"
            )
        shape = []
        for i in range(dims):
            n = struct.unpack(">I", _read_exact(fh, 4, path))[0]
            if n == 0:
                raise ValueError(f"bad IDX dimension {i}: zero length in {path}")
            shape.append(n)
        count = math.prod(shape)  # exact: a header's product can pass int64
        # checked before the read, so a header declaring 2^62 bytes asks for none
        if size - fh.tell() < count:
            raise ValueError(f"unexpected end of file at offset {size} in {path}")
        data = np.frombuffer(_read_exact(fh, count, path), dtype=np.uint8)
    return data.reshape(shape).copy()


def load_idx_dataset(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Images + labels as a classification dataset: x is (rows*cols, n) rescaled to
    [-1, 1] pixel-wise (hence ||z||_RMS <= 1), y is (n,) int labels."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path} does not hold images")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path} does not hold labels")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}"
        )
    n = images.shape[0]
    x = images.reshape(n, -1).T.astype(np.float64) / 127.5 - 1.0
    return x, labels.astype(int)
