"""Command-line entry point.

Subcommands: `lmo-check` (oracle contract suites), `train` (one optimization run with
per-step CSV diagnostics), `coord-check` (width invariance of preactivation updates),
`sweep` (stepsize transfer across widths), and `rate` (convergence-rate harness).

Configuration is a JSON tree (--config file.json) overridden by repeatable
`--set path=value` flags; `--seed` and `--out` are shortcuts for the corresponding
config keys. Every accepted key is listed, with its range, in each subcommand's --help.
Unknown keys and out-of-range values are rejected by name before any computation.
Every run writes its artifacts (CSV per step or per cell, a JSONL summary, and the
model checkpoint of a data-problem `train` run) through one writer, `_write_run`,
after its last computation and after encoding its summary record, so a run that fails
writes nothing. They land in the output directory under
`<command>_<confighash>_<seed>.*`, and reruns with the same config and seed are
byte-identical.

Exit codes: 0 success, 1 configuration error, 2 oracle contract violation,
3 numerical failure (NaN/Inf; the message names the failing step).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .experiments import (
    RATE_MODES,
    RATE_OPTIMIZERS,
    NumericalFailure,
    RunDiagnostics,
    coordinate_check,
    coordinate_check_ratios,
    error_decay_probe,
    lr_transfer_sweep,
    rate_harness,
    train_classifier,
    train_quadratic,
)
from .linalg import derive_seed, rng_gaussian
from .models import FAMILIES, Activation, Domain, MlpModel, build_config, init_model, save_model
from .norms import (
    VECTOR_KINDS,
    NormKind,
    NormSpec,
    dual_norm,
    lmo,
    lmo_coefficient,
    op_norm,
)
from .optim import RULES, Algo, AlphaKind, GammaKind, Move, ScheduleSpec
from .problems import (
    StochasticQuadratic,
    SyntheticClassification,
    gen_synthetic,
    load_idx_dataset,
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    path: str
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    # accepted interval, "[" "]" closed and "(" ")" open, e.g. "(0, 1]"; int kinds
    # default to [1, inf), and an int_list must be non-empty with every element inside
    within: str | None = None

    @property
    def kind(self) -> str:  # read from the default's type
        return {int: "int", float: "float", str: "str", list: "int_list"}[type(self.default)]

    @property
    def interval(self) -> str | None:
        if self.within is None and self.kind in ("int", "int_list"):
            return "[1, inf)"
        return self.within


def _fields(*fields: Field) -> dict[str, Field]:
    return {f.path: f for f in fields}


def _values(enum) -> tuple[str, ...]:
    return tuple(e.value for e in enum)


# Bounds on the quadratic's radii: below _TINY, rounding puts an scg start on the
# ball's boundary outside it, and `rate` reports D2 = 2 * rho_constrained.
_TINY, _HUGE = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)
_ACTIVATIONS = tuple(a.value for a in Activation if a is not Activation.IDENTITY)
# CLI algo names are the enum values, except that Muon-plain is plain "muon"
_ALGO_BY_NAME = {"muon" if a is Algo.MUON_PLAIN else a.value: a for a in Algo}
# The algos whose row of RULES takes mu (its move decays) and beta (it keeps a beta)
_MU_ALGOS = ", ".join(n for n, a in _ALGO_BY_NAME.items() if RULES[a].move is Move.DECAY)
_BETA_ALGOS = ", ".join(n for n, a in _ALGO_BY_NAME.items() if RULES[a].beta is not None)

_SPECTRAL_FIELDS = (
    Field("spectral.backend", "exact_svd", "spectral lmo backend", ("exact_svd", "newton_schulz")),
    Field("spectral.iters", 5, "newton-schulz iteration count", within="[0, inf)"),
)

_COMMON_FIELDS = (
    Field("seed", 0, "master seed; every artifact is a pure function of (config, seed)",
          within="(-inf, inf)"),
    Field("out", "runs", "output directory"),
)

SCHEMAS: dict[str, dict[str, Field]] = {
    "lmo-check": _fields(
        *_COMMON_FIELDS,
        Field("kinds", "all", "comma list of norm kinds to check, or 'all'"),
        Field("trials", 100, "random inputs per kind"),
        Field("max_dim", 64, "max operand dimension"),
        *_SPECTRAL_FIELDS,
    ),
    "train": _fields(
        *_COMMON_FIELDS,
        Field("problem.kind", "classification", "problem family",
              ("classification", "quadratic", "idx")),
        Field("problem.dim", 32, "input dimension (classification/quadratic)"),
        Field("problem.classes", 4, "class count (classification)", within="[2, inf)"),
        Field("problem.clusters", 2, "clusters per class (classification)"),
        Field("problem.noise", 0.3, "feature noise (classification) or gradient "
              "noise level (quadratic)", within="[0, inf)"),
        Field("problem.train_size", 512, "training samples (classification)"),
        Field("problem.test_size", 128, "held-out samples (classification)", within="[0, inf)"),
        Field("problem.conditioning", 10.0, "curvature spread (quadratic)", within="[1, inf)"),
        Field("problem.rho", 1.0, "norm-ball radius (quadratic), a normal float64",
              within=f"[{_TINY!r}, inf)"),
        Field("problem.images", "", "IDX images path (idx)"),
        Field("problem.labels", "", "IDX labels path (idx)"),
        Field("problem.limit", 0, "cap on idx samples, 0 = all", within="[0, inf)"),
        Field("model.hidden", [64, 64], "hidden layer widths"),
        Field("model.domain", "image", "input-domain preset", _values(Domain)),
        Field("model.family", "recommended", "layer norm family", FAMILIES),
        Field("model.activation", "relu", "hidden activation", _ACTIVATIONS),
        Field("optimizer.algo", "uscg", "update rule", tuple(_ALGO_BY_NAME)),
        Field("optimizer.steps", 100, "horizon n"),
        Field("optimizer.batch_size", 64, "minibatch size (data problems)"),
        Field("optimizer.gamma.kind", "linear", "stepsize schedule", _values(GammaKind)),
        Field("optimizer.gamma.value", 0.05, "base stepsize gamma", within="[0, 1]"),
        Field("optimizer.gamma.warmdown_frac", 0.25,
              "tail fraction for constant_then_linear", within="(0, 1]"),
        Field("optimizer.alpha.kind", "constant", "averaging schedule", _values(AlphaKind)),
        Field("optimizer.alpha.value", 0.1, "averaging weight alpha", within="(0, 1]"),
        Field("optimizer.mu", 0.5, f"weight decay ({_MU_ALGOS}, in [0, 1])", within="(-inf, inf)"),
        Field("optimizer.beta", 0.9, f"momentum ({_BETA_ALGOS}, in [0, 1))", within="(-inf, inf)"),
        *_SPECTRAL_FIELDS,
    ),
    "coord-check": _fields(
        *_COMMON_FIELDS,
        Field("widths", [64, 256, 1024], "hidden widths to compare"),
        Field("depth", 3, "number of weight layers", within="[2, inf)"),
        Field("gamma", 0.01, "stepsize for the probe update", within="(0, 1]"),
        Field("samples", 32, "seeds averaged per width"),
        Field("input_dim", 32, "input dimension"),
        Field("classes", 10, "output dimension"),
        Field("activation", "scaled_gelu", "hidden activation", _ACTIVATIONS),
        *_SPECTRAL_FIELDS,
    ),
    "sweep": _fields(
        *_COMMON_FIELDS,
        Field("widths", [128, 512], "hidden widths to compare"),
        Field("gamma.start", 0.005, "smallest grid stepsize", within="(0, 1]"),
        Field("gamma.factor", 2.0, "geometric grid spacing (top stepsize <= 1)",
              within="(0, inf)"),
        Field("gamma.count", 8, "grid size"),
        Field("epochs", 4, "training epochs per cell"),
        Field("alpha", 0.1, "averaging weight", within="(0, 1]"),
        Field("batch_size", 128, "minibatch size"),
        Field("depth", 3, "number of weight layers", within="[2, inf)"),
        Field("activation", "scaled_gelu", "hidden activation", _ACTIVATIONS),
        Field("problem.dim", 32, "input dimension"),
        Field("problem.classes", 8, "class count", within="[2, inf)"),
        Field("problem.clusters", 2, "clusters per class"),
        Field("problem.noise", 1.0, "feature noise", within="[0, inf)"),
        Field("problem.train_size", 512, "training samples"),
        Field("problem.test_size", 256, "held-out samples", within="[0, inf)"),
        *_SPECTRAL_FIELDS,
    ),
    "rate": _fields(
        *_COMMON_FIELDS,
        Field("optimizer", "uscg", "method under test", RATE_OPTIMIZERS),
        Field("mode", "vanishing", "momentum regime", RATE_MODES),
        Field("n_list", [100, 400, 1600, 6400], "horizons (2 distinct if vanishing)"),
        Field("trials", 10, "independent runs per horizon"),
        Field("alpha", 0.1, "averaging weight (constant mode)", within="(0, 1]"),
        Field("probe", "none", "extra probe to run", ("none", "error_decay")),
        Field("probe_n", 4096, "error-decay horizon", within="[2, inf)"),
        Field("probe_trials", 20, "error-decay trials"),
        Field("problem.dim", 32, "quadratic dimension"),
        Field("problem.noise", 1.0, "gradient noise level sigma", within="[0, inf)"),
        Field("problem.conditioning", 10.0, "curvature spread", within="[1, inf)"),
        Field("rho", 1.0, "unconstrained ball radius", within="(0, inf)"),
        Field("rho_constrained", 2.0, "constrained ball radius, a normal float64 "
              "whose double, the reported constant D2, is finite",
              within=f"[{_TINY!r}, {_HUGE / 2!r}]"),
    ),
}


def _integer(value) -> int:
    """An int from an int, a numeral string or an integral JSON number; bools and
    fractional numbers raise ValueError instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def _coerce(field: Field, value) -> object:
    try:
        if field.kind == "int":
            return _integer(value)
        if field.kind == "float":
            if isinstance(value, bool):
                raise ValueError
            return float(value)
        if field.kind == "str":
            value = str(value)
            if field.choices and value not in field.choices:
                raise ConfigError(
                    f"config error: key '{field.path}' must be one of "
                    f"{', '.join(field.choices)}, got {value!r}"
                )
            return value
        if field.kind == "int_list":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v != ""]
            if not isinstance(value, (list, tuple)):
                raise ValueError
            return [_integer(v) for v in value]
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(
        f"config error: key '{field.path}' expects {field.kind}, got {value!r}"
    )


def _require(ok: bool, key: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"config error: key '{key}' {what}, got {value!r}")


def _contains(interval: str, value) -> bool:
    """Whether `value` lies in `interval` ("[lo, hi)" and the like); NaN never does."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    return above and below


def _check_range(field: Field, value) -> None:
    interval = field.interval
    if field.kind == "int_list":
        _require(len(value) > 0 and all(_contains(interval, v) for v in value), field.path,
                 f"must list at least one value, each in {interval}", value)
    elif interval is not None:
        _require(_contains(interval, value), field.path, f"must be in {interval}", value)


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, path + "."))
        else:
            flat[path] = value
    return flat


def resolve_config(command: str, file_config: dict, overrides: list[str],
                   seed: int | None, out: str | None) -> dict:
    """Defaults <- config file <- --set overrides <- --seed/--out shortcuts.

    Rejects unknown keys by name, coerces every value to its declared type and
    checks it against its field's interval.
    """
    schema = SCHEMAS[command]
    resolved = {path: f.default for path, f in schema.items()}
    from_file = [(path, "=", value) for path, value in sorted(_flatten(file_config).items())]
    for path, sep, value in from_file + [item.partition("=") for item in overrides]:
        if not sep:
            raise ConfigError(f"config error: --set expects key=value, got {path!r}")
        if path not in schema:
            raise ConfigError(f"config error: unknown key '{path}'")
        resolved[path] = _coerce(schema[path], value)
    if seed is not None:
        resolved["seed"] = int(seed)
    if out is not None:
        resolved["out"] = str(out)
    for path, field in schema.items():
        _check_range(field, resolved[path])
    holder = _holding_dir(resolved["out"])
    _require(holder is not None, "out",
             "must name a directory, existing or not, under no file and with no NUL byte",
             resolved["out"])
    # The seed is the only part of the artifact name whose length varies; a train
    # run's checkpoint, written through a temporary file, has the longest suffix.
    suffix = ".checkpoint.json.tmp" if command == "train" else ".jsonl"
    longest = len(_artifact_name(command, resolved) + suffix)
    limit = os.pathconf(holder, "PC_NAME_MAX")  # -1 where the file system sets none
    _require(limit < 0 or longest <= limit, "seed",
             f"makes the artifact name {longest} bytes long, past the file system's {limit}",
             resolved["seed"])
    return resolved


def _holding_dir(out: str) -> str | None:
    """The directory `out` is or will be made under: `out` itself or its nearest
    existing ancestor. None where `out` is empty, holds a NUL byte or lies under a
    file, so it cannot become a directory."""
    if out == "" or "\0" in out:
        return None
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return path if os.path.isdir(path) else None


def _artifact_name(command: str, cfg: dict) -> str:
    """The base name `<command>_<confighash>_<seed>` of a run's artifacts."""
    return f"{command.replace('-', '_')}_{config_hash(cfg)}_{cfg['seed']}"


def config_hash(resolved: dict) -> str:
    """Hash of the computation-relevant config: `out` names a location, not a result,
    and the seed already appears next to the hash in artifact names."""
    blob = json.dumps(
        {k: v for k, v in resolved.items() if k not in ("out", "seed")},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    if isinstance(value, np.generic):  # numpy scalars print as the Python values they hold
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_run(command: str, cfg: dict, header, columns, summary: dict, comments=(),
               model: MlpModel | None = None) -> str:
    """Write a run's artifacts after its last computation and return their base path
    `<out>/<command>_<confighash>_<seed>`: the model's checkpoint if given, the CSV of
    `columns` under `header`, then the JSONL record {"command", "config", **summary}.
    The record, which names the checkpoint, is encoded first, so one holding NaN or an
    infinity raises ValueError before any file or the output directory exists; a file
    system error is a ConfigError naming key 'out'."""
    name = _artifact_name(command, cfg)
    if model is not None:
        summary = {**summary, "checkpoint": name + ".checkpoint.json"}
    line = json.dumps({"command": command, "config": cfg, **summary},
                      sort_keys=True, allow_nan=False) + "\n"
    base = os.path.join(cfg["out"], name)
    try:
        os.makedirs(cfg["out"], exist_ok=True)
        if model is not None:
            save_model(model, base + ".checkpoint.json")
        with open(base + ".csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# schema=1\n")
            for comment in comments:
                fh.write(f"# {comment}\n")
            fh.write(",".join(header) + "\n")
            for row in zip(*columns):
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        with open(base + ".jsonl", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line)
    except OSError as exc:
        raise ConfigError(f"config error: key 'out' cannot hold the run's files: {exc}")
    return base


def _ns_iters(cfg: dict) -> int | None:
    if cfg.get("spectral.backend", "exact_svd") == "newton_schulz":
        return int(cfg["spectral.iters"])
    return None


def cmd_lmo_check(cfg: dict) -> int:
    """Boundary, dual-pairing, and scale-invariance suites over random inputs."""
    ns_iters = _ns_iters(cfg)
    if cfg["kinds"] == "all":
        kinds = [k for _, k in sorted((k.value, k) for k in NormKind)]
    else:
        try:
            kinds = [NormKind(name.strip()) for name in cfg["kinds"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"config error: key 'kinds' names an unknown norm kind: {exc}")
    trials = cfg["trials"]
    max_dim = cfg["max_dim"]
    seed = cfg["seed"]
    rows = []
    violations = 0
    for kind_idx, kind in enumerate(kinds):
        spectral_ns = kind is NormKind.SPECTRAL and ns_iters is not None
        boundary_tol = 0.35 if spectral_ns else (1e-8 if kind is NormKind.SPECTRAL else 1e-10)
        pairing_tol = 0.05 if spectral_ns else 1e-8
        scale_tol = 1e-9 if spectral_ns else 1e-10
        max_boundary = max_pairing = max_scale = 0.0
        for trial in range(trials):
            s0 = derive_seed(seed, kind_idx, trial)
            d_out = 1 + derive_seed(s0, 0) % max_dim
            d_in = 1 if kind in VECTOR_KINDS else 1 + derive_seed(s0, 1) % max_dim
            radius = 0.25 + (derive_seed(s0, 2) % 8) / 2.0
            spec = NormSpec(kind=kind, radius=radius, d_out=d_out, d_in=d_in)
            s = rng_gaussian(d_out, d_in, derive_seed(s0, 3))
            s = s[:, 0] if spec.is_vector else s
            out = lmo(s, spec, ns_iters=ns_iters)
            max_boundary = max(
                max_boundary, abs(op_norm(out, spec) - radius) / radius
            )
            dual = dual_norm(s, spec)
            pairing = abs(float(np.vdot(s, out)) + radius * dual)
            max_pairing = max(max_pairing, pairing / max(1e-30, radius * dual))
            coeff = lmo_coefficient(spec)
            for a in (0.5, 2.0, 10.0):
                dev = float(np.max(np.abs(lmo(a * s, spec, ns_iters=ns_iters) - out)))
                max_scale = max(max_scale, dev / coeff)
        ok = (
            max_boundary <= boundary_tol
            and max_pairing <= pairing_tol
            and max_scale <= scale_tol
        )
        violations += 0 if ok else 1
        rows.append(
            (kind.value, trials, max_boundary, boundary_tol, max_pairing, pairing_tol,
             max_scale, scale_tol, ok)
        )
        status = "ok" if ok else "VIOLATION"
        print(
            f"{kind.value:14s} boundary {max_boundary:.3e} (tol {boundary_tol:.0e})  "
            f"pairing {max_pairing:.3e} (tol {pairing_tol:.0e})  "
            f"scale {max_scale:.3e} (tol {scale_tol:.0e})  {status}"
        )
    _write_run(
        "lmo-check", cfg,
        ("kind", "trials", "max_boundary_dev", "boundary_tol", "max_pairing_dev",
         "pairing_tol", "max_scale_dev", "scale_tol", "ok"),
        zip(*rows),
        {"violations": violations, "kinds": [r[0] for r in rows]},
        comments=(f"backend={cfg['spectral.backend']}", f"iters={cfg['spectral.iters']}"),
    )
    if violations:
        print(f"{violations} kind(s) violated the oracle contracts")
        return 2
    return 0


def _build_schedule(cfg: dict, horizon: int) -> ScheduleSpec:
    gamma_kind = GammaKind(cfg["optimizer.gamma.kind"])
    alpha_kind = AlphaKind(cfg["optimizer.alpha.kind"])
    warmdown = max(1, int(round(cfg["optimizer.gamma.warmdown_frac"] * horizon)))
    return ScheduleSpec(
        horizon=horizon,
        gamma_kind=gamma_kind,
        gamma0=cfg["optimizer.gamma.value"],
        warmdown=warmdown if gamma_kind is GammaKind.CONSTANT_THEN_LINEAR else 0,
        alpha_kind=alpha_kind,
        alpha0=cfg["optimizer.alpha.value"],
    )


def _build_problem(cls, cfg: dict):
    """A problem dataclass from the config: each field f from key "problem.f", and
    the seed from "seed"."""
    return cls(**{
        f.name: cfg["seed" if f.name == "seed" else "problem." + f.name] for f in fields(cls)
    })


def _check_train(cfg: dict) -> None:
    """`train`'s rules that tie one key's range to another key's value: the algo's
    row of `RULES` takes mu if its move decays, and beta if it keeps a beta."""
    name = cfg["optimizer.algo"]
    row = RULES[_ALGO_BY_NAME[name]]
    _require(row.move is not Move.DECAY or 0.0 <= cfg["optimizer.mu"] <= 1.0, "optimizer.mu",
             f"must be in [0, 1] for {name}", cfg["optimizer.mu"])
    _require(row.beta is None or 0.0 <= cfg["optimizer.beta"] < 1.0,
             "optimizer.beta", f"must be in [0, 1) for {name}", cfg["optimizer.beta"])


def _load_idx(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    if not cfg["problem.images"] or not cfg["problem.labels"]:
        raise ConfigError(
            "config error: key 'problem.images' and 'problem.labels' are "
            "required for the idx problem"
        )
    try:
        return load_idx_dataset(cfg["problem.images"], cfg["problem.labels"])
    except OSError as exc:
        raise ConfigError(f"config error: cannot read {exc.filename}: {exc.strerror}")
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}")


def cmd_train(cfg: dict) -> int:
    """One training run; per-step diagnostics to CSV, summary to JSONL."""
    _check_train(cfg)
    algo = _ALGO_BY_NAME[cfg["optimizer.algo"]]
    horizon = cfg["optimizer.steps"]
    schedule = _build_schedule(cfg, horizon)
    seed = cfg["seed"]
    summary: dict = {"steps": horizon}
    model = None
    if cfg["problem.kind"] == "quadratic":
        problem = _build_problem(StochasticQuadratic, cfg)
        xs, stack = train_quadratic(
            problem, algo, schedule,
            rho=cfg["problem.rho"],
            mu=cfg["optimizer.mu"],
            beta=cfg["optimizer.beta"],
        )
        diags = stack.trial(0)
        summary["final_loss"] = problem.loss(xs[0])
        if not np.isfinite(summary["final_loss"]):  # the loss of a finite iterate can overflow
            raise NumericalFailure(horizon, "non-finite final loss", trial=0)
    else:
        if cfg["problem.kind"] == "idx":
            train_x, train_y = _load_idx(cfg)
            if cfg["problem.limit"]:
                train_x = train_x[:, : cfg["problem.limit"]]
                train_y = train_y[: cfg["problem.limit"]]
            classes = int(train_y.max()) + 1
            dim = train_x.shape[0]
        else:
            problem = _build_problem(SyntheticClassification, cfg)
            train_x, train_y, _, _ = gen_synthetic(problem)
            classes, dim = problem.classes, problem.dim
        dims = [dim] + list(cfg["model.hidden"]) + [classes]
        specs = build_config(
            Domain(cfg["model.domain"]),
            dims,
            family=cfg["model.family"],
            activation=Activation(cfg["model.activation"]),
        )
        model = init_model(specs, derive_seed(seed, 1))
        model, diags = train_classifier(
            model, train_x, train_y, algo, schedule,
            seed=seed,
            batch_size=cfg["optimizer.batch_size"],
            ns_iters=_ns_iters(cfg),
            mu=cfg["optimizer.mu"],
            beta=cfg["optimizer.beta"],
        )
        summary["final_loss"] = diags.loss[-1]
    summary["final_param_norm"] = diags.param_norm[-1]
    base = _write_run("train", cfg, RunDiagnostics.COLUMNS, diags.columns(), summary,
                      model=model)
    print(f"wrote {base}.csv")
    return 0


def cmd_coord_check(cfg: dict) -> int:
    rows = coordinate_check(
        cfg["widths"],
        depth=cfg["depth"],
        gamma=cfg["gamma"],
        seed=cfg["seed"],
        samples=cfg["samples"],
        input_dim=cfg["input_dim"],
        classes=cfg["classes"],
        activation=Activation(cfg["activation"]),
        ns_iters=_ns_iters(cfg),
    )
    ratios = coordinate_check_ratios(rows)
    for r in rows:
        print(f"width={r.width:6d} layer={r.layer} rms_dpreact={r.rms_dpreact:.6f}")
    print("per-layer max/min ratios:", {k: round(v, 4) for k, v in sorted(ratios.items())})
    _write_run(
        "coord-check", cfg,
        ("width", "layer", "rms_dpreact"),
        zip(*((r.width, r.layer, r.rms_dpreact) for r in rows)),
        {"max_min_ratio_per_layer": {str(k): v for k, v in sorted(ratios.items())}},
    )
    return 0


def cmd_sweep(cfg: dict) -> int:
    start, factor = cfg["gamma.start"], cfg["gamma.factor"]
    try:
        grid = [start * factor**i for i in range(cfg["gamma.count"])]
    except OverflowError:  # the top of the grid is then > 1 too
        grid = [float("inf")]
    _require(max(grid) <= 1.0, "gamma.start", "times key 'gamma.factor' ** (gamma.count - 1), "
             "the largest grid stepsize, must be <= 1", max(grid))
    _require(min(grid) > 0.0, "gamma.start", "times key 'gamma.factor' ** (gamma.count - 1), "
             "the smallest grid stepsize, must not underflow to 0", min(grid))
    problem = _build_problem(SyntheticClassification, cfg)
    report = lr_transfer_sweep(
        cfg["widths"], grid, problem,
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        alpha=cfg["alpha"],
        batch_size=cfg["batch_size"],
        depth=cfg["depth"],
        activation=Activation(cfg["activation"]),
        ns_iters=_ns_iters(cfg),
    )
    spread = report.max_log2_spread()
    for width, gstar in sorted(report.best_gamma.items()):
        print(f"width={width:6d} best gamma={gstar}")
    print(f"max log2 spread of best gamma: {spread}")
    _write_run(
        "sweep", cfg,
        ("width", "gamma", "final_loss"),
        zip(*((r.width, r.gamma, r.final_loss) for r in report.rows)),
        {"best_gamma": {str(k): v for k, v in sorted(report.best_gamma.items())},
         "max_log2_spread": spread},
    )
    return 0


def cmd_rate(cfg: dict) -> int:
    n_list = cfg["n_list"]
    # constant mode runs only max(n_list); vanishing mode fits a slope across horizons
    _require(cfg["mode"] != "vanishing" or len(set(n_list)) >= 2, "n_list",
             "must hold two distinct horizons when key 'mode' is vanishing", n_list)
    problem = _build_problem(StochasticQuadratic, cfg)
    report = rate_harness(
        cfg["optimizer"], cfg["mode"], cfg["n_list"], problem,
        trials=cfg["trials"],
        alpha=cfg["alpha"],
        rho_unconstrained=cfg["rho"],
        rho_constrained=cfg["rho_constrained"],
    )
    summary = {
        "mode": report.mode,
        "slope": report.slope,
        "plateau_ratio": report.plateau_ratio,
        "constants": report.constants,
    }
    if report.mode == "vanishing":
        header = ("n", "gamma", "mean_criticality")
        columns = (report.n_list, report.gammas, report.mean_criticality)
        print(f"{report.optimizer} fitted log-log slope: {report.slope:.4f}")
    else:
        n, gamma = max(report.n_list), report.gammas[0]
        plateaus = report.mean_criticality
        header = ("n", "gamma", "noise_level", "plateau")
        columns = ((n, n), (gamma, gamma), ("sigma", "2sigma"), plateaus)
        print(
            f"{report.optimizer} plateaus: {plateaus[0]:.5f} @ sigma, "
            f"{plateaus[1]:.5f} @ 2*sigma (ratio {report.plateau_ratio:.3f})"
        )
    if cfg["probe"] == "error_decay":
        probe = error_decay_probe(problem, n=cfg["probe_n"], trials=cfg["probe_trials"])
        summary["error_decay_slope"] = probe.slope
        print(f"error-decay log-log slope: {probe.slope:.4f}")
    _write_run("rate", cfg, header, columns, summary,
               comments=[f"{k}={v}" for k, v in sorted(report.constants.items())])
    return 0


_COMMANDS = {
    "lmo-check": (cmd_lmo_check,
                  "validate the oracle contracts (boundary, dual pairing, scale invariance)"),
    "train": (cmd_train, "run one optimizer on a problem, logging per-step diagnostics"),
    "coord-check": (cmd_coord_check,
                    "measure width invariance of per-coordinate preactivation updates"),
    "sweep": (cmd_sweep, "stepsize grid search across widths (transfer check)"),
    "rate": (cmd_rate, "convergence-rate harness on the stochastic quadratic"),
}


def _schema_epilog(command: str) -> str:
    lines = ["config keys (set via --config JSON or --set key=value):"]
    for path, f in sorted(SCHEMAS[command].items()):
        choices = f" [{'|'.join(f.choices)}]" if f.choices else ""
        each = "each " if f.kind == "int_list" else ""
        bounds = f", {each}in {f.interval}" if f.interval else ""
        lines.append(f"  {path} ({f.kind}{bounds}, default {f.default!r}){choices}: {f.help}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmopt",
        description="norm-ball lmo optimizers: contract checks and experiment harnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, description) in _COMMANDS.items():
        p = sub.add_parser(
            command,
            help=description,
            description=description,
            epilog=_schema_epilog(command),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_config = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"config error: cannot read {args.config}: {exc}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config error: {args.config} is not valid JSON: {exc}")
            if not isinstance(file_config, dict):
                raise ConfigError(f"config error: {args.config} must hold a JSON object")
        cfg = resolve_config(args.command, file_config, args.set, args.seed, args.out)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(str(exc), file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
