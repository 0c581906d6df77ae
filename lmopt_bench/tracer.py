"""Outside-in tracing of lmopt's public functions.

The tracer wraps each function named in TRACED and installs the wrapper at every
binding site: the defining module, every other lmopt module that imported the name
with `from .x import y`, and the package namespace. Patching only the defining
module would miss, for example, the `svd_reduced` calls that `norms` makes through
its own binding. StochasticQuadratic methods are wrapped on the class.

Each call records a span (name, start, end, parent span, job id) into flat arrays
kept in memory; `save` writes them once the run is over. Two calls also record
counts where the work happens: `svd_reduced` keeps (kept rank, min(m, n)) and
`op_norm` flags spectral specs, whose norm hides a dense SVD.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = {
    "linalg": ("svd_reduced", "semi_orthogonal_init", "rng_gaussian"),
    "norms": ("lmo", "dual_norm", "op_norm", "composite_norm", "fw_gap"),
    "optim": ("momentum_update", "uscg_step", "scg_step"),
    "models": ("init_model", "forward", "backward", "loss_and_grad"),
    "problems": (
        "gen_synthetic",
        "StochasticQuadratic.grad",
        "StochasticQuadratic.noisy_grad",
        "StochasticQuadratic.loss",
    ),
    "experiments": (
        "train_classifier",
        "train_quadratic",
        "rate_harness",
        "error_decay_probe",
        "coordinate_check",
        "apply_step",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
JOB = "job"

# Harness spans that run the per-step loop; diagnostics are their direct children.
LOOP_HARNESSES = frozenset(
    {
        "experiments.train_classifier",
        "experiments.train_quadratic",
        "experiments.error_decay_probe",
        "experiments.coordinate_check",
    }
)
STEP_SPANS = frozenset({"experiments.apply_step", "optim.uscg_step", "optim.scg_step"})


def _observe_svd(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    return result.rank, min(shape)


def _observe_op_norm(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return int(spec.kind.value == "spectral"), 0


OBSERVERS = {"linalg.svd_reduced": _observe_svd, "norms.op_norm": _observe_op_norm}


class Tracer:
    """Span recorder; `install` patches lmopt, `uninstall` restores the originals."""

    def __init__(self):
        self.names: list[str] = [JOB, *SPAN_NAMES]
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("q")
        self.count_b = array("q")
        self._stack = [-1]
        self._job_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count_a.append(0)
        self.count_b.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            tracer.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer.count_a[idx], tracer.count_b[idx] = observe(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "lmopt" or n.startswith("lmopt.")
        ]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"lmopt.{mod_name}"]
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(span, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def job_span(self, job_id: int):
        """Trace one job: install the wrappers and open the job's root span."""
        self._job_id = job_id
        self.install()
        idx = self._open(0)
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()
            self._job_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count_a": np.frombuffer(self.count_a, dtype=np.int64).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, jobs: int, steps_per_job: int) -> dict[str, float]:
    """Per-layer metrics over `jobs` traced jobs: calls and self seconds per job for
    every traced function, plus the derived ratios."""
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_s = dur - child

    out: dict[str, float] = {}
    for span in SPAN_NAMES:
        mask = a["name_id"] == names.index(span)
        out[f"{span}.calls"] = int(mask.sum()) / jobs
        out[f"{span}.self_s"] = float(self_s[mask].sum()) / jobs

    svd = a["name_id"] == names.index("linalg.svd_reduced")
    attempted = int(a["count_b"][svd].sum())
    out["linalg.svd_reduced.rank_frac"] = (
        int(a["count_a"][svd].sum()) / attempted if attempted else 0.0
    )
    spectral_op_norm = (a["name_id"] == names.index("norms.op_norm")) & (a["count_a"] == 1)
    out["norms.spectral_factorizations_per_step"] = (
        int(svd.sum()) + int(spectral_op_norm.sum())
    ) / (jobs * steps_per_job)
    out["experiments.diag_share"] = _diag_share(names, a, dur)
    return out


def _diag_share(names, a, dur) -> float:
    """Share of harness time spent in diagnostic calls made by the harness loop.

    Diagnostics are norms.* and StochasticQuadratic.loss spans whose parent is a
    loop harness, and the probe loss_and_grad of train_classifier: a loss_and_grad
    that follows another one with no step in between. The harness time is the time
    of the experiments spans directly under each job.
    """
    ids = {name: i for i, name in enumerate(names)}
    name_id, parent = a["name_id"], a["parent"]
    has_parent = parent >= 0
    parent_name = np.full_like(name_id, -1)
    parent_name[has_parent] = name_id[parent[has_parent]]

    experiments = [ids[n] for n in names if n.startswith("experiments.")]
    harness = (parent_name == ids[JOB]) & np.isin(name_id, experiments)
    harness_time = float(dur[harness].sum())
    if harness_time == 0.0:
        return 0.0

    in_loop = np.isin(parent_name, [ids[n] for n in LOOP_HARNESSES])
    diag_names = [ids[n] for n in names if n.startswith("norms.")]
    diag_names.append(ids["problems.StochasticQuadratic.loss"])
    diag = in_loop & np.isin(name_id, diag_names)

    # Spans are stored in call order, so consecutive entries of `seq` are siblings
    # in the order train_classifier made them.
    lag = ids["models.loss_and_grad"]
    seq = np.flatnonzero(
        (parent_name == ids["experiments.train_classifier"])
        & np.isin(name_id, [lag, *(ids[n] for n in STEP_SPANS)])
    )
    probe = seq[1:][
        (name_id[seq[1:]] == lag) & (name_id[seq[:-1]] == lag)
        & (parent[seq[1:]] == parent[seq[:-1]])
    ]
    diag[probe] = True
    return float(dur[diag].sum()) / harness_time
