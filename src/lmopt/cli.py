"""Command-line entry point.

Subcommands: `lmo-check` (oracle contract suites), `train` (one optimization run with
per-step CSV diagnostics), `coord-check` (width invariance of preactivation updates),
`sweep` (stepsize transfer across widths), and `rate` (convergence-rate harness).

Configuration is a JSON tree (--config file.json) overridden by repeatable
`--set path=value` flags; `--seed` and `--out` are shortcuts for the corresponding
config keys. Every accepted key is listed, with its range, in each subcommand's --help.
Unknown keys and out-of-range values are rejected by name before any computation. Artifacts (CSV per step or per cell, a JSONL
summary, and model checkpoints where applicable) land in the output directory under
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
from dataclasses import dataclass

import numpy as np

from .experiments import (
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
from .models import Activation, Domain, build_config, init_model, save_model
from .norms import (
    VECTOR_KINDS,
    NormKind,
    NormSpec,
    dual_norm,
    lmo,
    lmo_coefficient,
    op_norm,
)
from .optim import Algo, AlphaKind, GammaKind, ScheduleSpec
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
    kind: str  # int | float | str | int_list
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    # accepted interval, "[" "]" closed and "(" ")" open, e.g. "(0, 1]"; int kinds
    # default to [1, inf), and an int_list must be non-empty with every element inside
    within: str | None = None

    @property
    def interval(self) -> str | None:
        if self.within is None and self.kind in ("int", "int_list"):
            return "[1, inf)"
        return self.within


def _fields(*fields: Field) -> dict[str, Field]:
    return {f.path: f for f in fields}


def _values(enum) -> tuple[str, ...]:
    return tuple(e.value for e in enum)


_ACTIVATIONS = tuple(a.value for a in Activation if a is not Activation.IDENTITY)
# CLI algo names are the enum values, except that Muon-plain is plain "muon"
_ALGO_BY_NAME = {"muon" if a is Algo.MUON_PLAIN else a.value: a for a in Algo}

_SPECTRAL_FIELDS = (
    Field("spectral.backend", "str", "exact_svd",
          "spectral lmo backend", ("exact_svd", "newton_schulz")),
    Field("spectral.iters", "int", 5, "newton-schulz iteration count", within="[0, inf)"),
)

_COMMON_FIELDS = (
    Field("seed", "int", 0, "master seed; every artifact is a pure function of (config, seed)",
          within="(-inf, inf)"),
    Field("out", "str", "runs", "output directory"),
)

SCHEMAS: dict[str, dict[str, Field]] = {
    "lmo-check": _fields(
        *_COMMON_FIELDS,
        Field("kinds", "str", "all",
              "comma list of norm kinds to check, or 'all'"),
        Field("trials", "int", 100, "random inputs per kind"),
        Field("max_dim", "int", 64, "max operand dimension"),
        *_SPECTRAL_FIELDS,
    ),
    "train": _fields(
        *_COMMON_FIELDS,
        Field("problem.kind", "str", "classification", "problem family",
              ("classification", "quadratic", "idx")),
        Field("problem.dim", "int", 32, "input dimension (classification/quadratic)"),
        Field("problem.classes", "int", 4, "class count (classification)", within="[2, inf)"),
        Field("problem.clusters", "int", 2, "clusters per class (classification)"),
        Field("problem.noise", "float", 0.3, "feature noise (classification) or gradient "
              "noise level (quadratic)", within="[0, inf)"),
        Field("problem.train_size", "int", 512, "training samples (classification)"),
        Field("problem.test_size", "int", 128, "held-out samples (classification)",
              within="[0, inf)"),
        Field("problem.conditioning", "float", 10.0, "curvature spread (quadratic)",
              within="[1, inf)"),
        Field("problem.rho", "float", 1.0, "norm-ball radius (quadratic)", within="(0, inf)"),
        Field("problem.images", "str", "", "IDX images path (idx)"),
        Field("problem.labels", "str", "", "IDX labels path (idx)"),
        Field("problem.limit", "int", 0, "cap on idx samples, 0 = all", within="[0, inf)"),
        Field("model.hidden", "int_list", [64, 64], "hidden layer widths"),
        Field("model.domain", "str", "image", "input-domain preset", _values(Domain)),
        Field("model.family", "str", "recommended", "layer norm family",
              ("recommended", "spectral", "colnorm", "rownorm", "sign")),
        Field("model.activation", "str", "relu", "hidden activation", _ACTIVATIONS),
        Field("optimizer.algo", "str", "uscg", "update rule", tuple(_ALGO_BY_NAME)),
        Field("optimizer.steps", "int", 100, "horizon n"),
        Field("optimizer.batch_size", "int", 64, "minibatch size (data problems)"),
        Field("optimizer.gamma.kind", "str", "linear", "stepsize schedule", _values(GammaKind)),
        Field("optimizer.gamma.value", "float", 0.05, "base stepsize gamma", within="[0, 1]"),
        Field("optimizer.gamma.warmdown_frac", "float", 0.25,
              "tail fraction for constant_then_linear", within="(0, 1]"),
        Field("optimizer.alpha.kind", "str", "constant", "averaging schedule", _values(AlphaKind)),
        Field("optimizer.alpha.value", "float", 0.1, "averaging weight alpha", within="(0, 1]"),
        Field("optimizer.mu", "float", 0.5, "weight decay (uscg_wd, in [0, 1])"),
        Field("optimizer.beta", "float", 0.9, "momentum (muon variants, in [0, 1))"),
        *_SPECTRAL_FIELDS,
    ),
    "coord-check": _fields(
        *_COMMON_FIELDS,
        Field("widths", "int_list", [64, 256, 1024], "hidden widths to compare"),
        Field("depth", "int", 3, "number of weight layers", within="[2, inf)"),
        Field("gamma", "float", 0.01, "stepsize for the probe update", within="(0, 1]"),
        Field("samples", "int", 32, "seeds averaged per width"),
        Field("input_dim", "int", 32, "input dimension"),
        Field("classes", "int", 10, "output dimension"),
        Field("activation", "str", "scaled_gelu", "hidden activation", _ACTIVATIONS),
        *_SPECTRAL_FIELDS,
    ),
    "sweep": _fields(
        *_COMMON_FIELDS,
        Field("widths", "int_list", [128, 512], "hidden widths to compare"),
        Field("gamma.start", "float", 0.005, "smallest grid stepsize", within="(0, 1]"),
        Field("gamma.factor", "float", 2.0, "geometric grid spacing (top stepsize <= 1)",
              within="(0, inf)"),
        Field("gamma.count", "int", 8, "grid size"),
        Field("epochs", "int", 4, "training epochs per cell"),
        Field("alpha", "float", 0.1, "averaging weight", within="(0, 1]"),
        Field("batch_size", "int", 128, "minibatch size"),
        Field("depth", "int", 3, "number of weight layers", within="[2, inf)"),
        Field("activation", "str", "scaled_gelu", "hidden activation", _ACTIVATIONS),
        Field("problem.dim", "int", 32, "input dimension"),
        Field("problem.classes", "int", 8, "class count", within="[2, inf)"),
        Field("problem.clusters", "int", 2, "clusters per class"),
        Field("problem.noise", "float", 1.0, "feature noise", within="[0, inf)"),
        Field("problem.train_size", "int", 512, "training samples"),
        Field("problem.test_size", "int", 256, "held-out samples", within="[0, inf)"),
        *_SPECTRAL_FIELDS,
    ),
    "rate": _fields(
        *_COMMON_FIELDS,
        Field("optimizer", "str", "uscg", "method under test", ("uscg", "scg")),
        Field("mode", "str", "vanishing", "momentum regime", ("vanishing", "constant")),
        Field("n_list", "int_list", [100, 400, 1600, 6400], "horizons (2 distinct if vanishing)"),
        Field("trials", "int", 10, "independent runs per horizon"),
        Field("alpha", "float", 0.1, "averaging weight (constant mode)", within="(0, 1]"),
        Field("probe", "str", "none", "extra probe to run", ("none", "error_decay")),
        Field("probe_n", "int", 4096, "error-decay horizon", within="[2, inf)"),
        Field("probe_trials", "int", 20, "error-decay trials"),
        Field("problem.dim", "int", 32, "quadratic dimension"),
        Field("problem.noise", "float", 1.0, "gradient noise level sigma", within="[0, inf)"),
        Field("problem.conditioning", "float", 10.0, "curvature spread", within="[1, inf)"),
        Field("rho", "float", 1.0, "unconstrained ball radius", within="(0, inf)"),
        Field("rho_constrained", "float", 2.0, "constrained ball radius", within="(0, inf)"),
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
    for path, value in sorted(_flatten(file_config).items()):
        if path not in schema:
            raise ConfigError(f"config error: unknown key '{path}'")
        resolved[path] = _coerce(schema[path], value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"config error: --set expects key=value, got {item!r}")
        path, _, raw = item.partition("=")
        if path not in schema:
            raise ConfigError(f"config error: unknown key '{path}'")
        resolved[path] = _coerce(schema[path], raw)
    if seed is not None:
        resolved["seed"] = int(seed)
    if out is not None:
        resolved["out"] = str(out)
    for path, field in schema.items():
        _check_range(field, resolved[path])
    _require(_can_hold_files(resolved["out"]), "out",
             "must name a directory, existing or not, under no file", resolved["out"])
    return resolved


def _can_hold_files(out: str) -> bool:
    """Whether `out` is a directory, or can be made one: nonempty, and its nearest
    existing ancestor is a directory (not a file)."""
    if out == "":
        return False
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


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


def write_csv(path: str, header, columns, comments=()) -> None:
    """One CSV row per index of the equal-length `columns`, under `header`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=1\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _artifact_base(command: str, cfg: dict) -> str:
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    name = f"{command.replace('-', '_')}_{config_hash(cfg)}_{cfg['seed']}"
    return os.path.join(out_dir, name)


def _ns_iters(cfg: dict) -> int | None:
    if cfg.get("spectral.backend", "exact_svd") == "newton_schulz":
        return int(cfg["spectral.iters"])
    return None


def _random_operand(spec: NormSpec, seed: int) -> np.ndarray:
    if spec.is_vector:
        return rng_gaussian(spec.d_out, 1, seed)[:, 0]
    return rng_gaussian(spec.d_out, spec.d_in, seed)


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
            s = _random_operand(spec, derive_seed(s0, 3))
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
    base = _artifact_base("lmo-check", cfg)
    write_csv(
        base + ".csv",
        ("kind", "trials", "max_boundary_dev", "boundary_tol", "max_pairing_dev",
         "pairing_tol", "max_scale_dev", "scale_tol", "ok"),
        zip(*rows),
        comments=(f"backend={cfg['spectral.backend']}", f"iters={cfg['spectral.iters']}"),
    )
    write_jsonl(base + ".jsonl", [{
        "command": "lmo-check",
        "config": cfg,
        "violations": violations,
        "kinds": [r[0] for r in rows],
    }])
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


def _check_train(cfg: dict) -> None:
    """`train`'s rules that tie one key's range to another key's value."""
    name = cfg["optimizer.algo"]
    _require(name != "uscg_wd" or 0.0 <= cfg["optimizer.mu"] <= 1.0, "optimizer.mu",
             "must be in [0, 1] for uscg_wd", cfg["optimizer.mu"])
    _require(name not in ("muon", "muon_nesterov") or 0.0 <= cfg["optimizer.beta"] < 1.0,
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
    summary: dict = {"command": "train", "config": cfg, "steps": horizon}
    if cfg["problem.kind"] == "quadratic":
        problem = StochasticQuadratic(
            dim=cfg["problem.dim"],
            noise=cfg["problem.noise"],
            conditioning=cfg["problem.conditioning"],
            seed=seed,
        )
        x, diags = train_quadratic(
            problem, algo, schedule,
            rho=cfg["problem.rho"],
            mu=cfg["optimizer.mu"],
            beta=cfg["optimizer.beta"],
        )
        base = _artifact_base("train", cfg)
        summary["final_loss"] = problem.loss(x)
        summary["final_param_norm"] = diags.param_norm[-1] if len(diags) else None
    else:
        if cfg["problem.kind"] == "idx":
            train_x, train_y = _load_idx(cfg)
            if cfg["problem.limit"]:
                train_x = train_x[:, : cfg["problem.limit"]]
                train_y = train_y[: cfg["problem.limit"]]
            classes = int(train_y.max()) + 1
            dim = train_x.shape[0]
        else:
            problem = SyntheticClassification(
                dim=cfg["problem.dim"],
                classes=cfg["problem.classes"],
                clusters=cfg["problem.clusters"],
                noise=cfg["problem.noise"],
                train_size=cfg["problem.train_size"],
                test_size=cfg["problem.test_size"],
                seed=seed,
            )
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
        base = _artifact_base("train", cfg)
        save_model(model, base + ".checkpoint.json")
        summary["final_loss"] = diags.loss[-1] if len(diags) else None
        summary["final_param_norm"] = diags.param_norm[-1] if len(diags) else None
        summary["checkpoint"] = os.path.basename(base) + ".checkpoint.json"
    write_csv(base + ".csv", RunDiagnostics.COLUMNS, diags.columns())
    write_jsonl(base + ".jsonl", [summary])
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
    base = _artifact_base("coord-check", cfg)
    write_csv(
        base + ".csv",
        ("width", "layer", "rms_dpreact"),
        zip(*((r.width, r.layer, r.rms_dpreact) for r in rows)),
    )
    write_jsonl(base + ".jsonl", [{
        "command": "coord-check",
        "config": cfg,
        "max_min_ratio_per_layer": {str(k): v for k, v in sorted(ratios.items())},
    }])
    for r in rows:
        print(f"width={r.width:6d} layer={r.layer} rms_dpreact={r.rms_dpreact:.6f}")
    print("per-layer max/min ratios:", {k: round(v, 4) for k, v in sorted(ratios.items())})
    return 0


def cmd_sweep(cfg: dict) -> int:
    start, factor = cfg["gamma.start"], cfg["gamma.factor"]
    try:
        grid = [start * factor**i for i in range(cfg["gamma.count"])]
    except OverflowError:  # the top of the grid is then > 1 too
        grid = [float("inf")]
    _require(max(grid) <= 1.0, "gamma.start", "times key 'gamma.factor' ** (gamma.count - 1), "
             "the largest grid stepsize, must be <= 1", max(grid))
    problem = SyntheticClassification(
        dim=cfg["problem.dim"],
        classes=cfg["problem.classes"],
        clusters=cfg["problem.clusters"],
        noise=cfg["problem.noise"],
        train_size=cfg["problem.train_size"],
        test_size=cfg["problem.test_size"],
        seed=cfg["seed"],
    )
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
    base = _artifact_base("sweep", cfg)
    write_csv(
        base + ".csv",
        ("width", "gamma", "final_loss"),
        zip(*((r.width, r.gamma, r.final_loss) for r in report.rows)),
    )
    write_jsonl(base + ".jsonl", [{
        "command": "sweep",
        "config": cfg,
        "best_gamma": {str(k): v for k, v in sorted(report.best_gamma.items())},
        "max_log2_spread": report.max_log2_spread(),
    }])
    for width, gstar in sorted(report.best_gamma.items()):
        print(f"width={width:6d} best gamma={gstar}")
    print(f"max log2 spread of best gamma: {report.max_log2_spread()}")
    return 0


def cmd_rate(cfg: dict) -> int:
    n_list = cfg["n_list"]
    # constant mode runs only max(n_list); vanishing mode fits a slope across horizons
    _require(cfg["mode"] != "vanishing" or len(set(n_list)) >= 2, "n_list",
             "must hold two distinct horizons when key 'mode' is vanishing", n_list)
    problem = StochasticQuadratic(
        dim=cfg["problem.dim"],
        noise=cfg["problem.noise"],
        conditioning=cfg["problem.conditioning"],
        seed=cfg["seed"],
    )
    report = rate_harness(
        cfg["optimizer"], cfg["mode"], cfg["n_list"], problem,
        trials=cfg["trials"],
        alpha=cfg["alpha"],
        rho_unconstrained=cfg["rho"],
        rho_constrained=cfg["rho_constrained"],
    )
    base = _artifact_base("rate", cfg)
    comments = [f"{k}={v}" for k, v in sorted(report.constants.items())]
    if report.mode == "vanishing":
        write_csv(base + ".csv", ("n", "gamma", "mean_criticality"),
                  (report.n_list, report.gammas, report.mean_criticality), comments=comments)
        print(f"{report.optimizer} fitted log-log slope: {report.slope:.4f}")
    else:
        n, gamma = max(report.n_list), report.gammas[0]
        write_csv(base + ".csv", ("n", "gamma", "noise_level", "plateau"),
                  ((n, n), (gamma, gamma), ("sigma", "2sigma"), report.plateaus),
                  comments=comments)
        print(
            f"{report.optimizer} plateaus: {report.plateaus[0]:.5f} @ sigma, "
            f"{report.plateaus[1]:.5f} @ 2*sigma (ratio {report.plateau_ratio:.3f})"
        )
    summary = {
        "command": "rate",
        "config": cfg,
        "mode": report.mode,
        "slope": report.slope,
        "plateau_ratio": report.plateau_ratio,
        "constants": report.constants,
    }
    if cfg["probe"] == "error_decay":
        probe = error_decay_probe(problem, n=cfg["probe_n"], trials=cfg["probe_trials"])
        summary["error_decay_slope"] = probe.slope
        print(f"error-decay log-log slope: {probe.slope:.4f}")
    write_jsonl(base + ".jsonl", [summary])
    return 0


_COMMANDS = {
    "lmo-check": cmd_lmo_check,
    "train": cmd_train,
    "coord-check": cmd_coord_check,
    "sweep": cmd_sweep,
    "rate": cmd_rate,
}

_DESCRIPTIONS = {
    "lmo-check": "validate the oracle contracts (boundary, dual pairing, scale invariance)",
    "train": "run one optimizer on a problem, logging per-step diagnostics",
    "coord-check": "measure width invariance of per-coordinate preactivation updates",
    "sweep": "stepsize grid search across widths (transfer check)",
    "rate": "convergence-rate harness on the stochastic quadratic",
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
    for command in _COMMANDS:
        p = sub.add_parser(
            command,
            help=_DESCRIPTIONS[command],
            description=_DESCRIPTIONS[command],
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
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(str(exc), file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
