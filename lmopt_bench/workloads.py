"""The benchmark's workloads: set-up, one job, the job's output digest and checks.

A job is one call of a public lmopt harness entry point. Job inputs come from a
fixed pool of seeds, so that every job the benchmark can run has a reference digest
captured once (reference.json). The workload seed shuffles the pool and a run draws
keys from it without replacement: no job input repeats within a run, so memoising
on inputs gains nothing here that it would not gain on real traffic. Each pool holds
about twice the jobs a 30 s run reaches on a 2-core x86 host; a run that empties it
ends early. A workload is set up from the key of its first job: train_spectral's
data set is shared by every job of a run, as `lmopt train` shares it across steps.

Trial and sample counts are those of the repository's demos (rate_harness and
error_decay_probe with trials=5, coordinate_check with samples=8), with horizons
and widths cut so that a job takes about 0.25 s.

lmopt functions are looked up as module attributes at call time (`experiments.x`,
never `from lmopt.experiments import x`), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from lmopt import experiments, models, optim, problems

POOL = 256
RTOL = 1e-9
ATOL = 1e-12
FEASIBLE_TOL = 1e-8

SPECTRAL_DIMS = (32, 256, 256, 4)
SPECTRAL_STEPS = 8
SPECTRAL_DATA_SEEDS = 2
SPECTRAL_JOB_SEEDS = POOL // SPECTRAL_DATA_SEEDS

RATE_HORIZONS = (25, 100)
RATE_TRIALS = 5
DECAY_STEPS = 128
DECAY_TRIALS = 5
RATE_STEPS = 2 * RATE_TRIALS * sum(RATE_HORIZONS) + DECAY_TRIALS * DECAY_STEPS

COORD_WIDTHS = (32, 128, 256)
COORD_DEPTH = 3
COORD_GAMMA = 0.01
COORD_SAMPLES = 8

SEED_POOL = tuple(str(j) for j in range(POOL))


@dataclass(frozen=True)
class Workload:
    name: str
    steps_per_job: int
    setup: Callable[[str], dict]
    keys: Callable[[int], Iterator[str]]  # a finite run of distinct pool keys
    run: Callable[[dict, str], object]
    digest: Callable[[object], list[float]]
    check: Callable[[object], list[str]]
    pool: tuple[str, ...]  # every key a run can draw; reference.json has one digest each


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


# -- train_spectral: fresh init_model + recorded SCG train_classifier ------------------


def _shuffled(pool, rng: random.Random) -> Iterator[str]:
    keys = list(pool)
    rng.shuffle(keys)
    return iter(keys)


def _spectral_keys(seed: int) -> Iterator[str]:
    rng = random.Random(seed)
    data_seed = rng.randrange(SPECTRAL_DATA_SEEDS)
    return _shuffled((f"{data_seed}/{j}" for j in range(SPECTRAL_JOB_SEEDS)), rng)


def _spectral_setup(first_key: str) -> dict:
    data_seed, job_seed = (int(s) for s in first_key.split("/"))
    problem = problems.SyntheticClassification(
        dim=SPECTRAL_DIMS[0], classes=SPECTRAL_DIMS[-1], train_size=512, test_size=128,
        seed=data_seed,
    )
    train_x, train_y, _, _ = problems.gen_synthetic(problem)
    specs = models.build_config(
        models.Domain.IMAGE, SPECTRAL_DIMS, activation=models.Activation.RELU
    )
    # The first model build, which `lmopt train` also pays before its loop.
    models.init_model(specs, job_seed)
    schedule = optim.ScheduleSpec(
        horizon=SPECTRAL_STEPS,
        gamma_kind=optim.GammaKind.LINEAR_DECAY,
        gamma0=0.05,
        alpha0=0.1,
    )
    return {
        "data_seed": data_seed, "train_x": train_x, "train_y": train_y,
        "specs": specs, "schedule": schedule,
    }


def _spectral_run(ctx: dict, key: str):
    data_seed, job_seed = (int(s) for s in key.split("/"))
    if data_seed != ctx["data_seed"]:
        raise ValueError(f"job {key} does not match the set-up data seed {ctx['data_seed']}")
    model = models.init_model(ctx["specs"], job_seed)
    return experiments.train_classifier(
        model, ctx["train_x"], ctx["train_y"], optim.Algo.SCG, ctx["schedule"],
        seed=job_seed, batch_size=64, record=True,
    )


def _spectral_digest(result) -> list[float]:
    model, diags = result
    out = [
        *diags.loss, *diags.grad_dual_norm, *diags.fw_gap, *diags.param_norm,
        *diags.est_error,
    ]
    for p in model.parameters():
        out += [float(np.sum(p * p)), float(np.sum(np.abs(p)))]
    return out


def _spectral_check(result) -> list[str]:
    model, diags = result
    errors = []
    if len(diags) != SPECTRAL_STEPS:
        errors.append(f"recorded {len(diags)} steps, expected {SPECTRAL_STEPS}")
    if not all(diags.feasible) or max(diags.param_norm) > 1.0 + FEASIBLE_TOL:
        errors.append(f"SCG left the ball: max composite norm {max(diags.param_norm)!r}")
    if not _finite(diags.loss):
        errors.append("non-finite loss")
    if not all(_finite(p) for p in model.parameters()):
        errors.append("non-finite parameters")
    return errors


# -- quadratic_rate: two rate_harness calls and one error_decay_probe ----------------


def _seed_keys(seed: int) -> Iterator[str]:
    return _shuffled(SEED_POOL, random.Random(seed))


def _quadratic(job_seed: int):
    return problems.StochasticQuadratic(dim=32, noise=1.0, conditioning=10.0, seed=job_seed)


def _rate_setup(first_key: str) -> dict:
    problem = _quadratic(int(first_key))
    problem.start_point(0)
    return {}


def _rate_run(ctx: dict, key: str):
    problem = _quadratic(int(key))
    uscg, scg = (
        experiments.rate_harness(name, "vanishing", RATE_HORIZONS, problem, trials=RATE_TRIALS)
        for name in ("uscg", "scg")
    )
    decay = experiments.error_decay_probe(problem, n=DECAY_STEPS, trials=DECAY_TRIALS)
    return uscg, scg, decay


def _rate_digest(result) -> list[float]:
    uscg, scg, decay = result
    errs = np.asarray(decay.mean_sq_error)
    return [
        *uscg.mean_criticality, uscg.slope, *scg.mean_criticality, scg.slope,
        decay.slope, float(errs.sum()), *errs[:: DECAY_STEPS // 10].tolist(),
    ]


def _rate_check(result) -> list[str]:
    uscg, scg, decay = result
    errors = []
    for report in (uscg, scg):
        if not _finite([*report.mean_criticality, report.slope]):
            errors.append(f"non-finite {report.optimizer} criticality or slope")
    if len(decay.mean_sq_error) != DECAY_STEPS or not _finite([*decay.mean_sq_error, decay.slope]):
        errors.append("error-decay probe is incomplete or non-finite")
    return errors


# -- coord_check: coordinate_check across widths ---------------------------------------


def _coord_setup(first_key: str) -> dict:
    dims = [32] + [COORD_WIDTHS[0]] * (COORD_DEPTH - 1) + [10]
    specs = models.build_config(
        models.Domain.IMAGE, dims, activation=models.Activation.SCALED_GELU
    )
    models.init_model(specs, int(first_key))
    return {}


def _coord_run(ctx: dict, key: str):
    return experiments.coordinate_check(
        COORD_WIDTHS, depth=COORD_DEPTH, gamma=COORD_GAMMA, seed=int(key),
        samples=COORD_SAMPLES,
    )


def _coord_digest(rows) -> list[float]:
    return [r.rms_dpreact for r in rows]


def _coord_check(rows) -> list[str]:
    errors = []
    if len(rows) != len(COORD_WIDTHS) * COORD_DEPTH:
        errors.append(f"{len(rows)} rows, expected {len(COORD_WIDTHS) * COORD_DEPTH}")
    for r in rows:
        if not COORD_GAMMA / 3 <= r.rms_dpreact <= 3 * COORD_GAMMA:
            errors.append(f"width {r.width} layer {r.layer} rms_dpreact {r.rms_dpreact!r}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_spectral", SPECTRAL_STEPS, _spectral_setup, _spectral_keys,
            _spectral_run, _spectral_digest, _spectral_check,
            tuple(
                f"{d}/{j}" for d in range(SPECTRAL_DATA_SEEDS) for j in range(SPECTRAL_JOB_SEEDS)
            ),
        ),
        Workload(
            "quadratic_rate", RATE_STEPS, _rate_setup, _seed_keys, _rate_run, _rate_digest, _rate_check, SEED_POOL,
        ),
        Workload(
            "coord_check", len(COORD_WIDTHS) * COORD_SAMPLES, _coord_setup, _seed_keys,
            _coord_run, _coord_digest, _coord_check, SEED_POOL,
        ),
    )
}


def compare(digest: list[float], reference: list[float] | None) -> list[str]:
    """Mismatches of a job's digest against its reference at RTOL relative."""
    if reference is None:
        return ["no reference digest for this job"]
    if len(digest) != len(reference):
        return [f"digest has {len(digest)} values, reference {len(reference)}"]
    return [
        f"value {i}: {got!r} vs reference {want!r}"
        for i, (got, want) in enumerate(zip(digest, reference))
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    ]

