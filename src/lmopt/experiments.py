"""Experiment harnesses: training drivers with per-step diagnostics, the width
coordinate check, learning-rate transfer sweeps, convergence-rate fits against the
known quadratic, and the momentum-error decay probe.

Every harness is a pure function of (config, seed). Optimizer comparisons inside one
harness consume identical noise streams (noise is indexed by (seed, trial, step), not
by optimizer state), so equivalence assertions can demand exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .linalg import derive_seed, rng_gaussian, rng_permutation
from .models import (
    Activation,
    Domain,
    MlpModel,
    backward_factors,
    build_config,
    forward,
    init_model,
    loss_and_grad,
)
from .norms import (
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    dual_norm,
    gap_from_duals,
)
from .optim import (
    Algo,
    AlphaKind,
    GammaKind,
    Move,
    OptimizerState,
    Rule,
    ScheduleSpec,
    alpha_at,
    gamma_at,
    rule_for,
    step,
    theory_gamma,
)

FEASIBLE_TOL = 1e-8

# The methods and momentum regimes rate_harness takes
RATE_OPTIMIZERS = ("uscg", "scg")
RATE_MODES = ("vanishing", "constant")

# Steps of quadratic gradient noise drawn at once: one seed derivation and one
# Gaussian draw per block, holding _NOISE_BLOCK * trials * dim doubles, where a
# whole-horizon draw would grow with the horizon.
_NOISE_BLOCK = 64

# l2 distance of the unconstrained quadratic runs' start from the minimizer.
_START_SCALE = 2.0

# Samples in train_classifier's recorded probe gradient, per minibatch sample.
_PROBE_FACTOR = 16


class NumericalFailure(RuntimeError):
    """Raised when a run produces NaN/Inf; carries the 1-based step index and, for a
    quadratic run, the index of the trial that failed (None elsewhere)."""

    def __init__(self, step: int, what: str, trial: int | None = None):
        where = f"step {step}" if trial is None else f"step {step} of trial {trial}"
        super().__init__(f"numerical failure at {where}: {what}")
        self.step = step
        self.trial = trial


@dataclass
class RunDiagnostics:
    """Dense per-step records from one training run (step k = 1..n, no gaps), one
    array per column: bool for feasible, int for steps, float64 for the rest.

    loss / grad_dual_norm / fw_gap / param_norm / feasible describe the iterate x^k
    before the step; est_error is ||d^k - g_ref(x^k)||_2 pairing the freshly updated
    averaged direction with a reference gradient at that same iterate (exact on the
    quadratic, a large-batch proxy on data problems). grad_dual_norm is
    sum_i radius_i * dual_norm(g_ref_i), the dual of the composite norm that
    param_norm measures, so fw_gap = <g_ref, x^k> + grad_dual_norm. Both training
    drivers fill these six columns through `record` alone.

    A trial stack allocates its per-trial columns as (T, n) arrays; each trial's
    record then holds row views of them and shares the stack's steps, gamma and
    alpha columns.
    """

    steps: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    loss: np.ndarray
    grad_dual_norm: np.ndarray
    fw_gap: np.ndarray
    param_norm: np.ndarray
    est_error: np.ndarray
    feasible: np.ndarray

    COLUMNS = (
        "step",
        "gamma",
        "alpha",
        "loss",
        "grad_dual_norm",
        "fw_gap",
        "param_norm",
        "est_error",
        "feasible",
    )

    @classmethod
    def allocate(cls, n: int, trials: int | None = None) -> "RunDiagnostics":
        """Columns for n steps, to be filled in: (n,) each, or (trials, n) for the
        per-trial columns of a stack (steps, gamma and alpha stay (n,))."""
        shape = (n,) if trials is None else (trials, n)
        return cls(
            np.arange(1, n + 1),
            np.empty(n),
            np.empty(n),
            *(np.empty(shape) for _ in range(5)),
            np.empty(shape, dtype=bool),
        )

    def record(self, cut, spec: ModelNormSpec, loss, x, ref, d) -> tuple:
        """Fill loss, grad_dual_norm, fw_gap, param_norm, est_error and feasible at
        `cut` of the columns' step axis, and return the fw_gap, param_norm and
        est_error values.

        x, the reference gradient ref at x and the direction d are parameter lists
        in spec's layout, and loss is the loss at x. A stacked vector atom holds one
        row per recorded (step, trial) pair, step-major, and its values fill the
        (T, n) columns of a stack. A value past float64's range is recorded as it is.
        """
        atoms = spec.atoms
        with np.errstate(over="ignore", invalid="ignore"):
            duals = [dual_norm(r, a) for r, a in zip(ref, atoms)]
            dual = sum(a.radius * v for a, v in zip(atoms, duals))
            gap = gap_from_duals(ref, x, spec, duals)
            pnorm = composite_norm(x, spec)
            err = np.sqrt(sum(_squared_l2(di - ri, a) for di, ri, a in zip(d, ref, atoms)))
        values = (loss, dual, gap, pnorm, err, pnorm <= 1.0 + FEASIBLE_TOL)
        for column, v in zip(self.columns()[3:], values):
            column[..., cut] = np.reshape(v, (-1, *column.shape[:-1])).T
        return gap, pnorm, err

    def trial(self, i: int) -> "RunDiagnostics":
        """Row i of a stack's record, as views."""
        return RunDiagnostics(
            self.steps, self.gamma, self.alpha, *(c[i] for c in self.columns()[3:])
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The column arrays, in COLUMNS order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.steps)


def _squared_l2(e: np.ndarray, atom: NormSpec):
    """||e||_2^2, one value per row of a stacked vector atom (formed as
    np.linalg.norm forms it)."""
    if atom.is_vector and e.ndim == 2:
        return np.add.reduce(e * e, axis=-1)
    return float(np.vdot(e, e))


# The checks of one quadratic step, in the order a failure is reported: the
# gradient, the recorded fw_gap and param_norm of x^k, the operand the rule forms
# from its buffer, the new iterate, and the recorded est_error of d^k.
_CHECKS = ("gradient", "fw_gap", "param_norm", "buffer", "parameters", "est_error")


def _failure(values: np.ndarray, start: int, trials: Sequence[int], check: str):
    """The first non-finite row of a block of values (one row per step from step
    `start`, then one per trial, then any trailing axes) as (step, rank of the
    check in _CHECKS, trial), or None when every value is finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    bad = ~finite.reshape(len(values), len(trials), -1).all(axis=2)
    s, t = np.unravel_index(np.argmax(bad), bad.shape)
    return int(start + s), _CHECKS.index(check), trials[int(t)]


def _raise_first(*failures) -> None:
    """Raise NumericalFailure for the earliest of the failures that are not None."""
    found = [f for f in failures if f is not None]
    if found:
        step_k, rank, trial = min(found)
        raise NumericalFailure(step_k, f"non-finite {_CHECKS[rank]}", trial=trial)


def _scheduled_steps(schedule: ScheduleSpec, diags: RunDiagnostics, record: bool):
    """(k, gamma_k, alpha_k) for k = 1..horizon as Python numbers, from one array
    call per schedule; a recorded run's gamma and alpha columns are filled here."""
    steps = np.arange(1, schedule.horizon + 1)
    gammas, alphas = gamma_at(schedule, steps), alpha_at(schedule, steps)
    if record:
        diags.gamma[:], diags.alpha[:] = gammas, alphas
    return zip(steps.tolist(), gammas.tolist(), alphas.tolist())


def apply_step(
    rule: Rule,
    x: list[np.ndarray],
    state: OptimizerState,
    g: list[np.ndarray],
    gamma: float,
    alpha: float,
    spec: ModelNormSpec,
    ns_iters: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One harness update: optim.step under the run's rule; returns (x, d_k)."""
    return step(x, state, g, gamma, alpha, spec, rule, ns_iters)


def quadratic_norm_spec(dim: int, rho: float) -> ModelNormSpec:
    return ModelNormSpec((NormSpec.vector(NormKind.EUCLIDEAN_VEC, dim, radius=rho),))


@np.errstate(over="ignore", invalid="ignore")
def train_quadratic(
    problem,
    algo: Algo,
    schedule: ScheduleSpec,
    trials: Sequence[int] = (0,),
    rho: float = 1.0,
    mu: float = 0.5,
    beta: float = 0.9,
) -> tuple[np.ndarray, RunDiagnostics]:
    """Run one optimizer on the stochastic quadratic; diagnostics use the exact gradient.

    Every trial runs at once on a leading axis: each step updates the (T, dim) stack
    of iterates with one call per operation, and the run returns the final stack and
    its stacked RunDiagnostics, whose per-trial columns are (T, n); `.trial(i)` is
    the record of trials[i].

    A rule whose move is CONVEX starts on its ball boundary (composite norm 1); the
    others start at l2 distance _START_SCALE = 2 from the minimizer. Noise
    is keyed by (problem.seed, trial, step) so different algorithms see the same
    stream on the same trial. It is drawn _NOISE_BLOCK steps at a time by
    problem.step_noise, so a step's gradient equals problem.noisy_grad at that step
    bit for bit. The algo's rule is built before any work, so an unknown algo
    raises ValueError before the first gradient.

    The recorded columns are taken once per block of _NOISE_BLOCK steps (and at the
    horizon): each step copies x^k, the exact gradient and d^k into block buffers,
    and one RunDiagnostics.record call then fills every column from the block's
    (steps * T, dim) stacks. The ball is the l2 ball of radius rho, so
    grad_dual_norm is rho * ||grad f(x^k)||_2 and param_norm is ||x^k||_2 / rho.

    A non-finite gradient, buffer or iterate, or a recorded fw_gap, param_norm or
    est_error past float64's range (as under a tiny rho or a huge noise), raises
    NumericalFailure naming its step and trial: the earliest step first, and within
    a step in the order gradient, fw_gap, param_norm, buffer, parameters, est_error,
    as a check of every value on every step would. The loop runs no such check per
    step. Every rule hands the gradient, or a buffer built from it, to the oracle,
    and a non-finite iterate makes the next gradient non-finite (the eigenvalues are
    positive). So the oracle's ValueError is read as the previous step's parameters
    failing when the iterate is non-finite, else as this step's gradient failing,
    else as its buffer failing when the operand the error carries (see optim.step)
    is non-finite: an accumulated buffer, or its Nesterov look-ahead, can overflow
    from finite operands. Any other ValueError is raised as it is. The iterate is
    also checked at each block's end and at the horizon, and the recorded columns
    once per block, those of a failing step's block up to it first. The run computes
    with numpy's overflow and invalid-value warnings off: these checks report them.
    """
    rule = rule_for(algo, mu, beta)
    trials = [int(t) for t in trials]
    if not trials:
        raise ValueError("trials must name at least one trial")
    spec = quadratic_norm_spec(problem.dim, rho)
    x = [problem.start_point(trials, scale=rho if rule.move is Move.CONVEX else _START_SCALE)]
    state = OptimizerState.init(x)
    n, count = schedule.horizon, len(trials)
    stack = RunDiagnostics.allocate(n, count)
    # Row i of a block holds x^k, grad f(x^k) and d^k of the block's i-th step.
    block = np.empty((3, min(n, _NOISE_BLOCK), count, problem.dim))

    def close(rows: int, start: int, failure) -> None:
        """Record the block's first `rows` steps, from step `start` on, into the
        stack's columns, then raise the earliest failure among their checks and
        `failure`, if there is one."""
        xb, eb, db = (b[:rows].reshape(rows * count, problem.dim) for b in block)
        cut = slice(start - 1, start - 1 + rows)
        checked = stack.record(cut, spec, problem.loss(xb), [xb], [eb], [db])
        _raise_first(*(
            _failure(v.reshape(rows, count), start, trials, c)
            for c, v in zip(("fw_gap", "param_norm", "est_error"), checked)
        ), failure)

    for k, gamma, alpha in _scheduled_steps(schedule, stack, True):
        i = (k - 1) % _NOISE_BLOCK
        exact = problem.grad(x[0])
        g = exact
        if problem.noise != 0.0:
            if i == 0:
                noise = problem.step_noise(trials, k, min(k + _NOISE_BLOCK, n + 1))
            g = exact + noise[i]
        block[0, i], block[1, i] = x[0], exact
        try:
            x, d_k = apply_step(rule, x, state, [g], gamma, alpha, spec)
        except ValueError as exc:
            # The start is not the output of a step, so a failure at step 1 is the gradient's.
            failure = _failure(x[0][None], k - 1, trials, "parameters") if k > 1 else None
            failure = failure or _failure(g[None], k, trials, "gradient")
            rows = i
            if failure is None:
                # Both finite: the oracle's operand overflowed. Step k's fw_gap and
                # param_norm rank before it and its est_error after it, so step k is
                # recorded with any finite d^k row.
                operand = getattr(exc, "operand", None)
                failure = operand and _failure(operand[0][None], k, trials, "buffer")
                if failure is None:
                    raise
                block[2, i], rows = 0.0, i + 1
            close(rows, k - i, failure)
        block[2, i] = d_k[0]
        del d_k  # a rescaled d_k is a fresh buffer; the next step's oracle runs without it
        if i == _NOISE_BLOCK - 1 or k == n:
            close(i + 1, k - i, _failure(x[0][None], k, trials, "parameters"))
    return x[0], stack


@np.errstate(all="ignore")
def train_classifier(
    model: MlpModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    algo: Algo,
    schedule: ScheduleSpec,
    seed: int = 0,
    batch_size: int = 64,
    ns_iters: int | None = None,
    mu: float = 0.5,
    beta: float = 0.9,
    record: bool = True,
) -> tuple[MlpModel, RunDiagnostics]:
    """Minibatch training of an MLP on the logistic loss with per-step diagnostics.

    Gradient-dual-norm, gap, and estimator-error columns use a large probe batch
    (_PROBE_FACTOR = 16 times the minibatch, capped at the dataset size) as a
    stand-in for the exact gradient; on data problems these are proxies. The probe
    gradient is streamed in chunks of batch_size columns, so no pass holds more than
    one minibatch of activations: it is bit-identical to a one-shot loss_and_grad
    when the probe fits in one batch, and equal up to summation order otherwise. The
    row of step k is recorded once the step has formed d^k, from the iterate x^k
    before it. A non-finite loss, gradient, probe gradient or new iterate raises
    NumericalFailure at its step; the run computes with numpy's floating-point
    warnings off. A batch_size below 1, or an unknown algo, raises ValueError before
    the first gradient.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rule = rule_for(algo, mu, beta)
    spec = model.norm_spec()
    n = train_x.shape[1]
    batch_size = min(batch_size, n)
    x = model.parameters()
    state = OptimizerState.init(x)
    diags = RunDiagnostics.allocate(schedule.horizon if record else 0)
    probe_n = min(n, _PROBE_FACTOR * batch_size)
    cursor = 0
    epoch = 0
    order = rng_permutation(n, derive_seed(seed, 7, epoch))
    for k, gamma, alpha in _scheduled_steps(schedule, diags, record):
        if cursor + batch_size > n:
            epoch += 1
            order = rng_permutation(n, derive_seed(seed, 7, epoch))
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        batch_loss, g = loss_and_grad(model, train_x[:, idx], train_y[idx])
        probe_g = _probe_grad(model, train_x, train_y, probe_n, batch_size) if record else []
        for what, values in (("loss", [batch_loss]), ("gradient", g), ("probe gradient", probe_g)):
            if not all(np.isfinite(v).all() for v in values):
                raise NumericalFailure(k, f"non-finite {what}")
        new_x, d_k = apply_step(rule, x, state, g, gamma, alpha, spec, ns_iters)
        if record:
            diags.record(slice(k - 1, k), spec, batch_loss, x, probe_g, d_k)
        del d_k  # a rescaled d_k is a fresh buffer; the next step's oracle runs without it
        x = new_x
        for p in x:
            if not np.all(np.isfinite(p)):
                raise NumericalFailure(k, "non-finite parameters")
        model.set_parameters(x)
    return model, diags


def _probe_grad(
    model: MlpModel, train_x: np.ndarray, train_y: np.ndarray, probe_n: int, chunk: int
) -> list[np.ndarray]:
    """loss_and_grad's gradient over the first probe_n samples, as the mean of its
    gradients over consecutive chunks of `chunk` samples, each weighted by its share
    of probe_n and summed in place. A probe of one chunk is weighted by exactly 1.0,
    so it is bit-identical to one loss_and_grad call."""
    total = None
    for start in range(0, probe_n, chunk):
        stop = min(start + chunk, probe_n)
        _, g = loss_and_grad(model, train_x[:, start:stop], train_y[start:stop])
        share = (stop - start) / probe_n
        for gi in g:
            gi *= share
        if total is None:
            total = g
        else:
            for t, gi in zip(total, g):
                t += gi
    return total


@dataclass(frozen=True)
class CoordinateCheckRow:
    width: int
    layer: int
    rms_dpreact: float


def coordinate_check(
    widths: Sequence[int],
    depth: int = 3,
    gamma: float = 0.01,
    seed: int = 0,
    samples: int = 32,
    input_dim: int = 32,
    classes: int = 10,
    activation: Activation = Activation.SCALED_GELU,
    ns_iters: int | None = None,
) -> list[CoordinateCheckRow]:
    """Per-coordinate RMS of the preactivation change after one update, per layer/width.

    Each sample draws a fresh boundary init and a batch of one input with unit RMS
    norm, takes a single unconstrained step with alpha = 1 on it (MSE loss against a
    random target), and measures RMS over coordinates of each layer's preactivation
    change. Values are averaged over `samples` seeds. Width-independence of these numbers,
    all sitting near gamma, is the transfer signature the builders aim for.

    The step reuses the measuring forward pass, and each weight gradient reaches
    the lmo as its rank-1 factors, so the exact spectral lmo needs no dense SVD.
    """
    if len(widths) < 1 or depth < 2:
        raise ValueError("need at least one width and depth >= 2")
    rule = rule_for(Algo.USCG)
    rows: list[CoordinateCheckRow] = []
    for width in widths:
        dims = [input_dim] + [int(width)] * (depth - 1) + [classes]
        per_layer = np.zeros(depth)
        for s in range(samples):
            run_seed = derive_seed(seed, width, s)
            specs = build_config(Domain.IMAGE, dims, activation=activation)
            model = init_model(specs, run_seed)
            z = rng_gaussian(input_dim, 1, derive_seed(run_seed, 1))
            z *= np.sqrt(input_dim) / np.linalg.norm(z)
            y = rng_gaussian(classes, 1, derive_seed(run_seed, 2))
            logits, cache_before = forward(model, z)
            pre_before = cache_before.preacts
            # MSE on one sample: dL/dlogits = logits - y
            g = backward_factors(model, cache_before, logits - y)
            x = model.parameters()
            x, _ = apply_step(rule, x, OptimizerState.init(x), g, gamma, 1.0,
                              model.norm_spec(), ns_iters)
            model.set_parameters(x)
            _, cache_after = forward(model, z)
            for layer in range(depth):
                delta = cache_after.preacts[layer] - pre_before[layer]
                per_layer[layer] += float(np.sqrt(np.mean(delta**2)))
        for layer in range(depth):
            rows.append(
                CoordinateCheckRow(
                    width=int(width),
                    layer=layer + 1,
                    rms_dpreact=per_layer[layer] / samples,
                )
            )
    return rows


def coordinate_check_ratios(rows: Sequence[CoordinateCheckRow]) -> dict[int, float]:
    """Per-layer max/min ratio of the RMS statistic across widths.

    A layer whose preactivation did not move at some width (rms 0, as when the
    probe step underflows) has no ratio: that raises NumericalFailure at step 1,
    naming the layer and the width.
    """
    by_layer: dict[int, list[float]] = {}
    for r in rows:
        if not r.rms_dpreact > 0.0:
            raise NumericalFailure(
                1, f"layer {r.layer}'s preactivation did not move at width {r.width} "
                f"(rms_dpreact = {r.rms_dpreact})"
            )
        by_layer.setdefault(r.layer, []).append(r.rms_dpreact)
    return {layer: float(max(vals) / min(vals)) for layer, vals in by_layer.items()}


@dataclass(frozen=True)
class SweepRow:
    width: int
    gamma: float
    final_loss: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    best_gamma: dict[int, float]

    def max_log2_spread(self) -> float:
        logs = [np.log2(g) for g in self.best_gamma.values()]
        return float(max(logs) - min(logs))


def lr_transfer_sweep(
    widths: Sequence[int],
    gamma_grid: Sequence[float],
    problem,
    epochs: int = 6,
    seed: int = 0,
    alpha: float = 0.1,
    batch_size: int = 128,
    depth: int = 3,
    activation: Activation = Activation.SCALED_GELU,
    ns_iters: int | None = None,
) -> SweepReport:
    """Final loss for each (width, stepsize) pair; best stepsize per width.

    The final loss is evaluated on the problem's held-out split when it has one
    (otherwise on the training data): at desk scale the training loss keeps falling
    as the stepsize grows (the iterate norm grows with the stepsize sum and the
    softmax just gets more confident), while held-out loss turns back up, giving the
    interior optimum whose location the width-transfer claim is about. The grid is
    expected to be geometric (2x spacing); transfer means the argmin stays within
    one grid step as width changes.
    """
    from .problems import gen_synthetic

    if len(widths) < 1 or len(gamma_grid) < 1 or depth < 2:
        raise ValueError("need nonempty widths and gamma grid and depth >= 2")
    train_x, train_y, test_x, test_y = gen_synthetic(problem)
    if test_x.shape[1] == 0:
        test_x, test_y = train_x, train_y
    n = train_x.shape[1]
    steps_per_epoch = max(1, n // min(batch_size, n))
    horizon = max(2, epochs * steps_per_epoch)
    rows: list[SweepRow] = []
    best: dict[int, float] = {}
    for width in widths:
        dims = [problem.dim] + [int(width)] * (depth - 1) + [problem.classes]
        losses = []
        for gamma in gamma_grid:
            specs = build_config(Domain.IMAGE, dims, activation=activation)
            model = init_model(specs, derive_seed(seed, width))
            schedule = ScheduleSpec(
                horizon=horizon,
                gamma_kind=GammaKind.LINEAR_DECAY,
                gamma0=float(gamma),
                alpha0=alpha,
            )
            model, _ = train_classifier(
                model,
                train_x,
                train_y,
                Algo.USCG,
                schedule,
                seed=derive_seed(seed, width, 1),
                batch_size=batch_size,
                ns_iters=ns_iters,
                record=False,
            )
            final_loss, _ = loss_and_grad(model, test_x, test_y)
            losses.append(final_loss)
            rows.append(SweepRow(width=int(width), gamma=float(gamma), final_loss=final_loss))
        best[int(width)] = float(gamma_grid[int(np.argmin(losses))])
    return SweepReport(rows=tuple(rows), best_gamma=best)


@dataclass(frozen=True)
class RateReport:
    """Mean criticality per run: per horizon with the log-log slope fit (vanishing
    mode), or the plateau levels at the problem's noise and at double it with their
    ratio (constant mode)."""

    optimizer: str
    mode: str
    n_list: tuple[int, ...]
    gammas: tuple[float, ...]
    mean_criticality: tuple[float, ...]
    slope: float | None
    plateau_ratio: float | None
    constants: dict


def _theory_schedule(n: int) -> ScheduleSpec:
    """The rate theory's schedule: alpha_k = 1 / sqrt(k), gamma = theory_gamma(n)."""
    return ScheduleSpec(horizon=n, gamma0=theory_gamma(n), alpha_kind=AlphaKind.VANISHING)


def rate_harness(
    optimizer: str,
    mode: str,
    n_list: Sequence[int],
    problem,
    trials: int = 10,
    alpha: float = 0.1,
    rho_unconstrained: float = 1.0,
    rho_constrained: float = 2.0,
) -> RateReport:
    """Convergence-rate harness on the stochastic quadratic.

    Vanishing mode runs alpha_k = 1 / sqrt(k) with the theory-mode constant stepsize
    theory_gamma(n) and fits the slope of log mean-criticality versus log n;
    criticality is the run-averaged gap for a rule whose move is CONVEX (scg, on the
    ball of radius rho_constrained) and the run-averaged dual gradient norm
    otherwise. Constant mode fixes alpha, sets gamma = 1 / sqrt(n) at the
    largest horizon, and measures the plateau (mean criticality over the last quarter
    of steps) at the problem's noise level and at double that level. Each horizon
    or noise level is one run, whose trials run at once on train_quadratic's trial
    axis; mean_criticality holds one value per run.
    The reported constants block documents the problem's known regularity values;
    they are not enforced at runtime.
    """
    for key, value, choices in (("optimizer", optimizer, RATE_OPTIMIZERS),
                                ("mode", mode, RATE_MODES)):
        if value not in choices:
            raise ValueError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 1:
        raise ValueError("n_list must hold at least one horizon")
    if mode == "vanishing" and len(set(n_list)) < 2:
        raise ValueError(
            f"vanishing mode fits a slope and needs two distinct horizons, got {n_list}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    algo = Algo(optimizer)
    constrained = rule_for(algo).move is Move.CONVEX
    rho = rho_constrained if constrained else rho_unconstrained
    constants = {
        "L": 1.0,
        "sigma": problem.noise,
        "dim": problem.dim,
        "conditioning": problem.conditioning,
        "rho2": rho,
        "D2": 2.0 * rho_constrained,
        "zeta": 1.0,  # the dual norm here is the l2 norm itself
    }

    def mean_criticality(prob, schedule: ScheduleSpec, tail: int) -> float:
        """Mean over the trials of each run's criticality averaged from step tail + 1."""
        _, diags = train_quadratic(prob, algo, schedule, range(trials), rho=rho)
        column = diags.fw_gap if constrained else diags.grad_dual_norm
        with np.errstate(over="ignore"):  # a mean past float64's range fails below
            return float(np.mean([float(np.mean(row[tail:])) for row in column]))

    if mode == "vanishing":
        runs = [(problem, _theory_schedule(n), 0) for n in n_list]
    else:
        runs, n = [], max(n_list)
        schedule = ScheduleSpec(horizon=n, gamma0=float(1.0 / np.sqrt(n)), alpha0=alpha)
        for factor in (1.0, 2.0):
            if not np.isfinite(problem.noise * factor):
                # The level itself overflows; its run would fail at its first gradient.
                raise NumericalFailure(1, f"non-finite noise level {factor:g} * {problem.noise!r}")
            runs.append((replace(problem, noise=problem.noise * factor), schedule, 3 * n // 4))
    gammas = tuple(schedule.gamma0 for _, schedule, _ in runs)
    means = tuple(mean_criticality(*run) for run in runs)
    for (prob, schedule, _), mean in zip(runs, means):
        if not 0.0 < mean < np.inf:  # such a criticality has no log-log slope or ratio
            where = (f"horizon n={schedule.horizon}" if mode == "vanishing"
                     else f"noise level {prob.noise!r}")
            raise NumericalFailure(schedule.horizon, f"mean criticality {mean!r} at {where} "
                                   "is not positive and finite")
    if mode == "vanishing":
        slope = float(np.polyfit(np.log(np.asarray(n_list, float)), np.log(means), 1)[0])
        ratio = None
    else:  # the two noise levels run at one stepsize
        gammas, slope, ratio = gammas[:1], None, means[1] / means[0]
    return RateReport(optimizer, mode, n_list, gammas, means, slope, ratio, constants)


@dataclass(frozen=True)
class ErrorDecayReport:
    """Mean squared estimator error at steps k = 1..n, and its log-log slope."""

    mean_sq_error: tuple[float, ...]
    slope: float


def error_decay_probe(problem, n: int = 4096, trials: int = 20) -> ErrorDecayReport:
    """Track ||d^k - grad f(x^k)||_2^2 along unconstrained runs, averaged over trials.

    The runs take the rate theory's schedule: alpha_k = 1/sqrt(k) and the constant
    stepsize theory_gamma(n). The error is train_quadratic's est_error column,
    squared; all trials run at once on its trial axis. The averaged squared error
    decays like 1/sqrt(k); the report fits the log-log slope over all steps with a
    positive mean. Needs trials >= 1 and n >= 2. A mean squared error past
    float64's range raises NumericalFailure at the first step it reaches, and so
    does a run with fewer than two steps of positive mean (no slope), at step n.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 2:
        raise ValueError(f"n must be >= 2 to fit a slope, got {n}")
    _, diags = train_quadratic(problem, Algo.USCG, _theory_schedule(n), range(trials), rho=1.0)
    with np.errstate(over="ignore"):  # an overflow is reported below, by its step
        mean_sq = np.square(diags.est_error).sum(axis=0) / trials
    bad = np.flatnonzero(~np.isfinite(mean_sq))
    if bad.size:
        raise NumericalFailure(int(bad[0]) + 1, "non-finite mean squared est_error "
                               f"over {trials} trials in the error-decay probe")
    mask = mean_sq > 0.0
    if mask.sum() < 2:
        raise NumericalFailure(n, f"{int(mask.sum())} of {n} steps have a positive mean "
                               "squared est_error in the error-decay probe; its slope needs 2")
    ks = np.arange(1, n + 1)
    slope = float(np.polyfit(np.log(ks[mask]), np.log(mean_sq[mask]), 1)[0])
    return ErrorDecayReport(mean_sq_error=tuple(mean_sq), slope=slope)
