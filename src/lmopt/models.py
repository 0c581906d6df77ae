"""Minimal MLP with manual backpropagation and norm-aware builders.

Layers compute f_l = W_l h_{l-1} (+ b_l), h_l = act(f_l), with the last layer linear
(identity activation, no bias) so the logits stay unbounded. Inputs are always a
(d_in, batch) array, one column per sample; a 1-D array is rejected. A layer is its
activation and its norm balls; the weight ball's kind fixes the layer's dimensions,
its lmo and its boundary initialization. `build_config` assembles the balls for the
standard domain presets, and `init_model` draws each weight from its kind's
unit-boundary draw so the fresh model sits exactly on the composite norm-ball
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
from .norms import ModelNormSpec, NormKind, NormSpec, scale_by_lmo_coefficient

CHECKPOINT_FORMAT = "lmopt-checkpoint"
CHECKPOINT_VERSION = 2  # version 1 also loads: its extra layer keys are ignored
# The layer norm families build_config takes
FAMILIES = ("recommended", "spectral", "colnorm", "rownorm", "sign")

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715


class Activation(Enum):
    RELU = "relu"
    SCALED_RELU2 = "scaled_relu2"
    SCALED_GELU = "scaled_gelu"
    TANH = "tanh"
    IDENTITY = "identity"


class Domain(Enum):
    IMAGE = "image"
    ONE_HOT = "one_hot"
    WEIGHT_SHARED = "weight_shared"


def _gelu_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x^2 and tanh(sqrt(2 / pi) (x + 0.044715 x^3)), shared by GELU's value and slope."""
    # Products, not powers: numpy's float pow is about 80x slower than a multiply.
    x2 = x * x
    return x2, np.tanh(_GELU_C * (x + _GELU_K * (x2 * x)))


def _scaled_gelu(x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0) * (0.5 * x * (1.0 + _gelu_tanh(x)[1]))


def _scaled_gelu_grad(x: np.ndarray) -> np.ndarray:
    x2, t = _gelu_tanh(x)
    return np.sqrt(2.0) * (0.5 * (1.0 + t)
                           + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x2))


# The one per-activation decision: its value and its derivative at x. LayerSpec
# admits only members, so forward and backward_factors index it directly.
_ACTIVATIONS = {
    Activation.RELU: (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(np.float64)),
    Activation.SCALED_RELU2: (lambda x: 2.0 * np.maximum(x, 0.0) ** 2,
                              lambda x: 4.0 * np.maximum(x, 0.0)),
    Activation.SCALED_GELU: (_scaled_gelu, _scaled_gelu_grad),
    Activation.TANH: (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    Activation.IDENTITY: (lambda x: x, np.ones_like),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its activation (an Activation member, checked when built) and its
    norm balls. The weight ball fixes the layer's dimensions, and its kind the
    weight's boundary initialization."""

    activation: Activation
    weight_norm: NormSpec
    bias_norm: NormSpec | None = None

    def __post_init__(self):
        if not isinstance(self.activation, Activation):
            raise ValueError(f"activation must be an Activation, got {self.activation!r}")
        if not isinstance(self.weight_norm, NormSpec) or self.weight_norm.is_vector:
            raise ValueError("weight_norm must be a matrix norm")
        if self.bias_norm is not None and (
            not self.bias_norm.is_vector or self.bias_norm.d_out != self.d_out
        ):
            raise ValueError("bias_norm must be a vector norm of length d_out")

    @property
    def d_in(self) -> int:
        return self.weight_norm.d_in

    @property
    def d_out(self) -> int:
        return self.weight_norm.d_out


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
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise ValueError("weights/biases must align with layers")
        self._check_shapes(self.weights, self.biases)
        last = self.layers[-1]
        if last.activation is not Activation.IDENTITY:
            raise ValueError("last layer must use the identity activation (raw logits)")
        if last.bias_norm is not None:
            raise ValueError("last layer carries no bias")

    def _check_shapes(self, weights, biases) -> None:
        for idx, (ls, w, b) in enumerate(zip(self.layers, weights, biases)):
            got = (np.shape(w), None if b is None else np.shape(b))
            want = ((ls.d_out, ls.d_in), None if ls.bias_norm is None else (ls.d_out,))
            for field, g, e in zip(("weights", "biases"), got, want):
                if g != e:
                    raise ValueError(f"layer {idx}: {field} has shape {g}, expected {e}")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def norm_spec(self) -> ModelNormSpec:
        return ModelNormSpec(tuple(
            n for ls in self.layers for n in (ls.weight_norm, ls.bias_norm) if n is not None
        ))

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list aligned with norm_spec().atoms: W_l then b_l per layer."""
        out: list[np.ndarray] = []
        for ls, w, b in zip(self.layers, self.weights, self.biases):
            out.append(w)
            if ls.bias_norm is not None:
                assert b is not None
                out.append(b)
        return out

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Take a parameter list in parameters()' layout. Each array's shape is
        checked as at construction, before any is taken, so a rejected list leaves
        the model unchanged."""
        expected = len(self.parameters())
        if len(params) != expected:
            raise ValueError(f"expected {expected} parameter arrays, got {len(params)}")
        it = iter(params)
        weights, biases = [], []
        for ls in self.layers:
            weights.append(np.asarray(next(it), dtype=np.float64))
            has_bias = ls.bias_norm is not None
            biases.append(np.asarray(next(it), dtype=np.float64).ravel() if has_bias else None)
        self._check_shapes(weights, biases)
        self.weights[:] = weights
        self.biases[:] = biases


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
    """Per-layer norm balls for the domain presets.

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
    if family not in FAMILIES:
        raise ValueError(f"unknown config family {family!r}")
    n_layers = len(dims) - 1
    specs: list[LayerSpec] = []
    for idx in range(n_layers):
        d_in, d_out = dims[idx], dims[idx + 1]
        first, last = idx == 0, idx == n_layers - 1
        kind, radius = _layer_choice(family, domain, first, last, d_in, d_out)
        bias_norm = None
        if with_bias and not last:
            bias_kind = NormKind.MAX_VEC if kind is NormKind.SIGN else NormKind.RMS_VEC
            bias_norm = NormSpec.vector(bias_kind, d_out, radius=1.0)
        specs.append(
            LayerSpec(
                activation=Activation.IDENTITY if last else activation,
                weight_norm=NormSpec(kind=kind, radius=radius, d_out=d_out, d_in=d_in),
                bias_norm=bias_norm,
            )
        )
    return specs


def _layer_choice(
    family: str, domain: Domain, first: bool, last: bool, d_in: int, d_out: int
) -> tuple[NormKind, float]:
    spectral_guard = max(1.0, float(np.sqrt(d_in / d_out)))
    if family == "recommended":
        if first:
            if domain is Domain.IMAGE:
                return NormKind.SPECTRAL, spectral_guard
            if domain is Domain.ONE_HOT:
                return NormKind.COL_NORM, 1.0
            return NormKind.SIGN, 1.0
        if last:
            return NormKind.SIGN, 1.0 / d_in
        return NormKind.SPECTRAL, 1.0
    if family == "spectral":
        if first and domain is Domain.ONE_HOT:
            # -sqrt(d_out) u v^T for unit-norm 1-hot inputs.
            return NormKind.SPECTRAL, float(np.sqrt(d_in))
        if first:
            return NormKind.SPECTRAL, spectral_guard
        return NormKind.SPECTRAL, 1.0
    if family == "colnorm":
        if first and domain is Domain.ONE_HOT:
            return NormKind.COL_NORM, 1.0
        return NormKind.COL_NORM, 1.0 / d_in
    if family == "rownorm":
        if first:
            return NormKind.ROW_NORM, float(np.sqrt(d_in))
        return NormKind.ROW_NORM, 1.0
    # sign family
    if first:
        return NormKind.SIGN, 1.0
    return NormKind.SIGN, 1.0 / d_in


def _unit_gaussian(d_out: int, d_in: int, seed: int, axis: int) -> np.ndarray:
    g = rng_gaussian(d_out, d_in, seed)
    g /= np.linalg.norm(g, axis=axis, keepdims=True)
    return g


# Each weight kind's unit-boundary draw (d_out, d_in, seed): semi-orthogonal, unit
# columns, unit rows, random signs. The lambdas look the draws up by their global
# names when they run, so a wrapper installed on this module sees every call.
_UNIT_DRAWS = {
    NormKind.SPECTRAL: lambda o, i, seed: semi_orthogonal_init(o, i, seed),
    NormKind.COL_NORM: lambda o, i, seed: _unit_gaussian(o, i, seed, axis=0),
    NormKind.ROW_NORM: lambda o, i, seed: _unit_gaussian(o, i, seed, axis=1),
    NormKind.SIGN: lambda o, i, seed: rng_rademacher(o, i, seed),
}


def init_model(specs: Sequence[LayerSpec], seed: int) -> MlpModel:
    """Draw each weight from its kind's unit-boundary draw, scaled elementwise by the
    layer's lmo coefficient (`scale_by_lmo_coefficient`) so it lands exactly on the
    composite ball boundary. Biases start at zero."""
    specs = list(specs)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray | None] = []
    for idx, ls in enumerate(specs):
        wn = ls.weight_norm
        w = _UNIT_DRAWS[wn.kind](wn.d_out, wn.d_in, derive_seed(seed, idx))
        weights.append(scale_by_lmo_coefficient(w, wn))
        biases.append(np.zeros(ls.d_out) if ls.bias_norm is not None else None)
    return MlpModel(layers=tuple(specs), weights=weights, biases=biases)


def forward(model: MlpModel, z) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a (d_in, batch) array, caching every preactivation and
    postactivation; the logits come back as (d_out, batch)."""
    h = np.asarray(z, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != model.layers[0].d_in:
        raise ValueError(
            f"input must be a ({model.layers[0].d_in}, batch) array, got shape {h.shape}"
        )
    cache = ForwardCache(inputs=h, preacts=[], posts=[])
    for ls, w, b in zip(model.layers, model.weights, model.biases):
        f = w @ h
        if b is not None:
            f = f + b[:, None]
        cache.preacts.append(f)
        h = _ACTIVATIONS[ls.activation][0](f)
        cache.posts.append(h)
    return cache.posts[-1], cache


def backward_factors(
    model: MlpModel, cache: ForwardCache, loss_grad_at_logits
) -> list[np.ndarray | LowRank]:
    """Exact reverse-mode gradients for every parameter, aligned with parameters(),
    with each weight gradient left as its factors.

    loss_grad_at_logits is dL/d(logits), shaped like forward's (d_out, batch) logits.
    Layer l's weight gradient is delta_l @ h_{l-1}^T, a sum of one outer
    product per sample, returned as LowRank(delta_l, h_{l-1}) of rank at most the
    batch size; bias gradients are dense vectors. The factors alias the cache.
    """
    delta = np.asarray(loss_grad_at_logits, dtype=np.float64)
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
            prev_grad = _ACTIVATIONS[model.layers[idx - 1].activation][1]
            delta = model.weights[idx].T @ delta
            delta *= prev_grad(cache.preacts[idx - 1])
    return grads_rev[::-1]


def backward(model: MlpModel, cache: ForwardCache, loss_grad_at_logits) -> list[np.ndarray]:
    """backward_factors with every weight gradient formed as its dense product."""
    grads = backward_factors(model, cache, loss_grad_at_logits)
    return [g.dense() if isinstance(g, LowRank) else g for g in grads]


def loss_and_grad(model: MlpModel, inputs, labels) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross entropy over the batch and its exact parameter gradients
    (batch means) for a (d_in, batch) array of inputs. Labels are integer classes, one
    per sample; the logit gradient is computed in the fused softmax-minus-one-hot form.
    """
    logits, cache = forward(model, inputs)
    batch = logits.shape[1]
    if batch == 0:
        raise ValueError("batch must be nonempty")
    y = np.asarray(labels)
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
    return value, backward(model, cache, soft / batch)


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
    """Read a version 1 or 2 checkpoint. Each layer is read from its activation and
    norm docs alone; ValueError names a malformed layer and field, weight or bias
    entry, or document key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"not a model checkpoint: a JSON {type(doc).__name__}, not an object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format={doc.get('format')!r}")
    if doc.get("version") not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    for key in ("layers", "weights", "biases"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"checkpoint has no {key!r} list")
    layers = tuple(_layer_from_doc(d, idx) for idx, d in enumerate(doc["layers"]))
    weights = [_array_from_doc(w, f"weights[{i}]") for i, w in enumerate(doc["weights"])]
    biases = [None if b is None else _array_from_doc(b, f"biases[{i}]")
              for i, b in enumerate(doc["biases"])]
    return MlpModel(layers=layers, weights=weights, biases=biases)


def _array_from_doc(doc, where: str) -> np.ndarray:
    try:
        return np.asarray(doc, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {where} is not an array of numbers: {exc}") from None


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
        "activation": ls.activation.value,
        "weight_norm": _norm_to_doc(ls.weight_norm),
        "bias_norm": _norm_to_doc(ls.bias_norm),
    }


def _layer_from_doc(doc: dict, idx: int) -> LayerSpec:
    try:
        return LayerSpec(
            activation=Activation(doc["activation"]),
            weight_norm=_norm_from_doc(doc["weight_norm"]),
            bias_norm=_norm_from_doc(doc["bias_norm"]),
        )
    except KeyError as exc:
        raise ValueError(f"checkpoint layer {idx} has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint layer {idx}: {exc}") from None
