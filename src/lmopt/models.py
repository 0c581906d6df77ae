"""Minimal MLP with manual backpropagation and norm-aware builders.

Layers compute f_l = W_l h_{l-1} (+ b_l), h_l = act(f_l), with the last layer linear
(identity activation, no bias) so the logits stay unbounded. Inputs are column
vectors: a batch is a (d_in, batch) array. `build_config` assembles per-layer norm
balls and matching boundary initializations for the standard domain presets, and
`init_model` realizes them so the fresh model sits exactly on the composite norm-ball
boundary, which the constrained optimizer requires of its starting point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import LowRank, derive_seed, rng_gaussian, rng_rademacher, semi_orthogonal_init
from .norms import (
    LayerNorms,
    ModelNormSpec,
    NormKind,
    NormSpec,
    lmo_coefficient,
)

CHECKPOINT_FORMAT = "lmopt-checkpoint"
CHECKPOINT_VERSION = 1

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715


class Activation(Enum):
    RELU = "relu"
    SCALED_RELU2 = "scaled_relu2"
    SCALED_GELU = "scaled_gelu"
    TANH = "tanh"
    IDENTITY = "identity"


class InitScheme(Enum):
    SEMI_ORTHOGONAL = "semi_orthogonal"
    COL_NORMALIZED_GAUSSIAN = "col_normalized_gaussian"
    ROW_NORMALIZED_GAUSSIAN = "row_normalized_gaussian"
    RANDOM_SIGN = "random_sign"


class Domain(Enum):
    IMAGE = "image"
    ONE_HOT = "one_hot"
    WEIGHT_SHARED = "weight_shared"


class Loss(Enum):
    MSE = "mse"
    LOGISTIC = "logistic"


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Products, not powers: numpy's float pow is about 80x slower than a multiply.
    x2 = x * x
    u = _GELU_C * (x + _GELU_K * (x2 * x))
    t = np.tanh(u)
    val = 0.5 * x * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x2)
    return val, grad


def activation_value(act: Activation, x: np.ndarray) -> np.ndarray:
    if act is Activation.RELU:
        return np.maximum(x, 0.0)
    if act is Activation.SCALED_RELU2:
        return 2.0 * np.maximum(x, 0.0) ** 2
    if act is Activation.SCALED_GELU:
        return np.sqrt(2.0) * _gelu_parts(x)[0]
    if act is Activation.TANH:
        return np.tanh(x)
    if act is Activation.IDENTITY:
        return x
    raise ValueError(f"unknown activation {act}")


def activation_grad(act: Activation, x: np.ndarray) -> np.ndarray:
    if act is Activation.RELU:
        return (x > 0.0).astype(np.float64)
    if act is Activation.SCALED_RELU2:
        return 4.0 * np.maximum(x, 0.0)
    if act is Activation.SCALED_GELU:
        return np.sqrt(2.0) * _gelu_parts(x)[1]
    if act is Activation.TANH:
        return 1.0 - np.tanh(x) ** 2
    if act is Activation.IDENTITY:
        return np.ones_like(x)
    raise ValueError(f"unknown activation {act}")


@dataclass(frozen=True)
class LayerSpec:
    """Dimensions, activation, initialization scheme, and norm balls for one layer."""

    d_in: int
    d_out: int
    activation: Activation
    init: InitScheme
    weight_norm: NormSpec
    bias_norm: NormSpec | None = None

    def __post_init__(self):
        if self.weight_norm.is_vector or self.weight_norm.d_out != self.d_out or (
            self.weight_norm.d_in != self.d_in
        ):
            raise ValueError("weight_norm must be a matrix norm matching (d_out, d_in)")
        if self.bias_norm is not None and (
            not self.bias_norm.is_vector or self.bias_norm.d_out != self.d_out
        ):
            raise ValueError("bias_norm must be a vector norm of length d_out")


@dataclass
class MlpModel:
    layers: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray | None]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("model needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.d_in != prev.d_out:
                raise ValueError(
                    f"layer dims do not chain: {prev.d_out} -> {cur.d_in}"
                )
        last = self.layers[-1]
        if last.activation is not Activation.IDENTITY:
            raise ValueError("last layer must use the identity activation (raw logits)")
        if last.bias_norm is not None or self.biases[-1] is not None:
            raise ValueError("last layer carries no bias")
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise ValueError("weights/biases must align with layers")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def norm_spec(self) -> ModelNormSpec:
        return ModelNormSpec(
            layers=tuple(LayerNorms(ls.weight_norm, ls.bias_norm) for ls in self.layers)
        )

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list aligned with norm_spec().atoms(): W_l then b_l per layer."""
        out: list[np.ndarray] = []
        for ls, w, b in zip(self.layers, self.weights, self.biases):
            out.append(w)
            if ls.bias_norm is not None:
                assert b is not None
                out.append(b)
        return out

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        expected = len(self.parameters())
        if len(params) != expected:
            raise ValueError(f"expected {expected} parameter arrays, got {len(params)}")
        it = iter(params)
        for i, ls in enumerate(self.layers):
            self.weights[i] = np.asarray(next(it), dtype=np.float64)
            if ls.bias_norm is not None:
                self.biases[i] = np.asarray(next(it), dtype=np.float64).ravel()


@dataclass
class ForwardCache:
    """Intermediates from one forward pass: h[0] is the input, preacts[l] is f_{l+1}."""

    inputs: np.ndarray
    preacts: list[np.ndarray]
    posts: list[np.ndarray]


def build_config(
    domain: Domain,
    dims: Sequence[int],
    family: str = "recommended",
    activation: Activation = Activation.RELU,
    with_bias: bool = False,
) -> list[LayerSpec]:
    """Per-layer norm balls and initializations for the domain presets.

    dims is (d_0, d_1, ..., d_L): input width, hidden widths, output width. The
    recommended family uses spectral balls on hidden layers (radius 1, so the update
    keeps the scaled spectral norm at sqrt(d_out/d_in)), a sign ball scaled to 1/d_in
    on the output layer, and a first layer chosen per domain: a spectral ball with
    the input-radius guard max(1, sqrt(d_in/d_out)) for images, a column-norm ball
    for 1-hot inputs, and a sign ball when the first and last layers share weights.
    The same-norm families (spectral / colnorm / rownorm / sign throughout) carry the
    layerwise radii that make one norm usable across the whole network.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"dims must list >= 2 positive widths, got {dims}")
    if family not in ("recommended", "spectral", "colnorm", "rownorm", "sign"):
        raise ValueError(f"unknown config family {family!r}")
    n_layers = len(dims) - 1
    specs: list[LayerSpec] = []
    for idx in range(n_layers):
        d_in, d_out = dims[idx], dims[idx + 1]
        first, last = idx == 0, idx == n_layers - 1
        kind, radius, init = _layer_choice(family, domain, first, last, d_in, d_out)
        bias_norm = None
        if with_bias and not last:
            bias_kind = NormKind.MAX_VEC if kind is NormKind.SIGN else NormKind.RMS_VEC
            bias_norm = NormSpec.vector(bias_kind, d_out, radius=1.0)
        specs.append(
            LayerSpec(
                d_in=d_in,
                d_out=d_out,
                activation=Activation.IDENTITY if last else activation,
                init=init,
                weight_norm=NormSpec(kind=kind, radius=radius, d_out=d_out, d_in=d_in),
                bias_norm=bias_norm,
            )
        )
    return specs


def _layer_choice(
    family: str, domain: Domain, first: bool, last: bool, d_in: int, d_out: int
) -> tuple[NormKind, float, InitScheme]:
    spectral_guard = max(1.0, float(np.sqrt(d_in / d_out)))
    if family == "recommended":
        if first:
            if domain is Domain.IMAGE:
                return NormKind.SPECTRAL, spectral_guard, InitScheme.SEMI_ORTHOGONAL
            if domain is Domain.ONE_HOT:
                return NormKind.COL_NORM, 1.0, InitScheme.COL_NORMALIZED_GAUSSIAN
            return NormKind.SIGN, 1.0, InitScheme.RANDOM_SIGN
        if last:
            return NormKind.SIGN, 1.0 / d_in, InitScheme.RANDOM_SIGN
        return NormKind.SPECTRAL, 1.0, InitScheme.SEMI_ORTHOGONAL
    if family == "spectral":
        if first and domain is Domain.ONE_HOT:
            # -sqrt(d_out) u v^T for unit-norm 1-hot inputs.
            return NormKind.SPECTRAL, float(np.sqrt(d_in)), InitScheme.SEMI_ORTHOGONAL
        if first:
            return NormKind.SPECTRAL, spectral_guard, InitScheme.SEMI_ORTHOGONAL
        return NormKind.SPECTRAL, 1.0, InitScheme.SEMI_ORTHOGONAL
    if family == "colnorm":
        if first and domain is Domain.ONE_HOT:
            return NormKind.COL_NORM, 1.0, InitScheme.COL_NORMALIZED_GAUSSIAN
        return NormKind.COL_NORM, 1.0 / d_in, InitScheme.COL_NORMALIZED_GAUSSIAN
    if family == "rownorm":
        if first:
            return NormKind.ROW_NORM, float(np.sqrt(d_in)), InitScheme.ROW_NORMALIZED_GAUSSIAN
        return NormKind.ROW_NORM, 1.0, InitScheme.ROW_NORMALIZED_GAUSSIAN
    # sign family
    if first:
        return NormKind.SIGN, 1.0, InitScheme.RANDOM_SIGN
    return NormKind.SIGN, 1.0 / d_in, InitScheme.RANDOM_SIGN


def _base_draw(scheme: InitScheme, d_out: int, d_in: int, seed: int) -> np.ndarray:
    if scheme is InitScheme.SEMI_ORTHOGONAL:
        return semi_orthogonal_init(d_out, d_in, seed)
    if scheme is InitScheme.COL_NORMALIZED_GAUSSIAN:
        g = rng_gaussian(d_out, d_in, seed)
        return g / np.linalg.norm(g, axis=0)
    if scheme is InitScheme.ROW_NORMALIZED_GAUSSIAN:
        g = rng_gaussian(d_out, d_in, seed)
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if scheme is InitScheme.RANDOM_SIGN:
        return rng_rademacher(d_out, d_in, seed)
    raise ValueError(f"unknown init scheme {scheme}")


def init_model(specs: Sequence[LayerSpec], seed: int) -> MlpModel:
    """Draw weights per each layer's scheme, scaled elementwise by the layer's lmo
    coefficient so boundary schemes land exactly on the composite ball boundary.
    Biases start at zero."""
    specs = list(specs)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray | None] = []
    for idx, ls in enumerate(specs):
        w = _base_draw(ls.init, ls.d_out, ls.d_in, derive_seed(seed, idx))
        weights.append(lmo_coefficient(ls.weight_norm) * w)
        biases.append(np.zeros(ls.d_out) if ls.bias_norm is not None else None)
    return MlpModel(layers=tuple(specs), weights=weights, biases=biases)


def forward(model: MlpModel, z) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass caching every preactivation and postactivation.

    Accepts a single input vector (d_in,) or a batch (d_in, batch); logits come back
    with the same arrangement.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    h = z[:, None] if single else z
    if h.ndim != 2 or h.shape[0] != model.layers[0].d_in:
        raise ValueError(
            f"input must have {model.layers[0].d_in} rows, got shape {z.shape}"
        )
    cache = ForwardCache(inputs=h, preacts=[], posts=[])
    for ls, w, b in zip(model.layers, model.weights, model.biases):
        f = w @ h
        if b is not None:
            f = f + b[:, None]
        cache.preacts.append(f)
        h = activation_value(ls.activation, f)
        cache.posts.append(h)
    logits = cache.posts[-1]
    return (logits[:, 0] if single else logits), cache


def backward_factors(
    model: MlpModel, cache: ForwardCache, loss_grad_at_logits
) -> list[np.ndarray | LowRank]:
    """Exact reverse-mode gradients for every parameter, aligned with parameters(),
    with each weight gradient left as its factors.

    loss_grad_at_logits is dL/d(logits) with the same shape convention as forward's
    output. Layer l's weight gradient is delta_l @ h_{l-1}^T, a sum of one outer
    product per sample, returned as LowRank(delta_l, h_{l-1}) of rank at most the
    batch size; bias gradients are dense vectors. The factors alias the cache.
    """
    delta = np.asarray(loss_grad_at_logits, dtype=np.float64)
    if delta.ndim == 1:
        delta = delta[:, None]
    if delta.shape != cache.preacts[-1].shape:
        raise ValueError(
            f"loss gradient shape {delta.shape} does not match logits "
            f"{cache.preacts[-1].shape}"
        )
    grads_rev: list[np.ndarray] = []
    for idx in range(model.depth - 1, -1, -1):
        ls = model.layers[idx]
        h_prev = cache.inputs if idx == 0 else cache.posts[idx - 1]
        if ls.bias_norm is not None:
            grads_rev.append(delta.sum(axis=1))
        grads_rev.append(LowRank(delta, h_prev))
        if idx > 0:
            prev_act = model.layers[idx - 1].activation
            delta = model.weights[idx].T @ delta
            delta *= activation_grad(prev_act, cache.preacts[idx - 1])
    return grads_rev[::-1]


def backward(model: MlpModel, cache: ForwardCache, loss_grad_at_logits) -> list[np.ndarray]:
    """backward_factors with every weight gradient formed as its dense product."""
    grads = backward_factors(model, cache, loss_grad_at_logits)
    return [g.dense() if isinstance(g, LowRank) else g for g in grads]


def loss_and_grad(
    model: MlpModel, inputs, targets, loss: Loss
) -> tuple[float, list[np.ndarray]]:
    """Mean loss over the batch and its exact parameter gradients (batch means).

    MSE targets are real arrays shaped like the logits and the loss is the mean over
    samples of 0.5 * ||logits - target||^2. Logistic targets are integer class labels
    and the loss is the mean softmax cross entropy; its logit gradient is computed in
    the fused softmax-minus-one-hot form.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] == 0:
        raise ValueError("batch must be nonempty")
    logits, cache = forward(model, x)
    batch = x.shape[1]
    if loss is Loss.MSE:
        y = np.asarray(targets, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != logits.shape:
            raise ValueError(f"target shape {y.shape} does not match logits {logits.shape}")
        diff = logits - y
        value = 0.5 * float(np.sum(diff * diff)) / batch
        dlogits = diff / batch
    elif loss is Loss.LOGISTIC:
        y = np.asarray(targets)
        if y.ndim != 1 or y.shape[0] != batch:
            raise ValueError(f"labels must be one integer per sample, got shape {y.shape}")
        y = y.astype(int)
        if np.any(y < 0) or np.any(y >= logits.shape[0]):
            raise ValueError("label outside the logit range")
        shifted = logits - logits.max(axis=0, keepdims=True)
        soft = np.exp(shifted)
        logz = np.log(np.sum(soft, axis=0))
        value = float(np.mean(logz - shifted[y, np.arange(batch)]))
        soft /= np.exp(logz)
        soft[y, np.arange(batch)] -= 1.0
        dlogits = soft / batch
    else:
        raise ValueError(f"unknown loss {loss}")
    return value, backward(model, cache, dlogits)


def save_model(model: MlpModel, path: str) -> None:
    """Write a versioned JSON checkpoint; floats round-trip exactly via repr."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layers": [_layer_to_doc(ls) for ls in model.layers],
        "weights": [w.tolist() for w in model.weights],
        "biases": [None if b is None else b.tolist() for b in model.biases],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path: str) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format={doc.get('format')!r}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    layers = tuple(_layer_from_doc(d) for d in doc["layers"])
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [None if b is None else np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    return MlpModel(layers=layers, weights=weights, biases=biases)


def _norm_to_doc(spec: NormSpec | None):
    if spec is None:
        return None
    return {
        "kind": spec.kind.value,
        "radius": spec.radius,
        "d_out": spec.d_out,
        "d_in": spec.d_in,
    }


def _norm_from_doc(doc) -> NormSpec | None:
    if doc is None:
        return None
    return NormSpec(
        kind=NormKind(doc["kind"]),
        radius=float(doc["radius"]),
        d_out=int(doc["d_out"]),
        d_in=int(doc["d_in"]),
    )


def _layer_to_doc(ls: LayerSpec) -> dict:
    return {
        "d_in": ls.d_in,
        "d_out": ls.d_out,
        "activation": ls.activation.value,
        "init": ls.init.value,
        "weight_norm": _norm_to_doc(ls.weight_norm),
        "bias_norm": _norm_to_doc(ls.bias_norm),
    }


def _layer_from_doc(doc: dict) -> LayerSpec:
    return LayerSpec(
        d_in=int(doc["d_in"]),
        d_out=int(doc["d_out"]),
        activation=Activation(doc["activation"]),
        init=InitScheme(doc["init"]),
        weight_norm=_norm_from_doc(doc["weight_norm"]),
        bias_norm=_norm_from_doc(doc["bias_norm"]),
    )
