"""Guards for the tools around the library: the benchmark tracer's names, the
benchmark's reference digests, and the demos."""

import ast
import ctypes
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _traced_names() -> dict:
    """TRACED from lmopt_bench/tracer.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "lmopt_bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("lmopt_bench/tracer.py defines no TRACED")


@pytest.mark.parametrize(
    "name", [f"{mod}.{fn}" for mod, fns in _traced_names().items() for fn in fns]
)
def test_traced_name_resolves(name):
    mod, _, attr = name.partition(".")
    obj = importlib.import_module(f"lmopt.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


# The step entry points that lmopt.optim keeps only as the tracer's hooks; everything
# else runs a rule as `step` under `RULES`.
TRACER_HOOKS = re.compile(r"\b(uscg_step|scg_step|momentum_update)\b")


def test_tracer_hooks_named_only_by_optim():
    skipped = {ROOT / "src" / "lmopt" / "optim.py", Path(__file__).resolve()}
    files = [ROOT / "README.md"] + [
        p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts and p not in skipped
    ]
    named = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in files
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if TRACER_HOOKS.search(line)
    ]
    assert not named


def test_tier1_runs_on_one_blas_thread():
    # conftest.py sets the thread variables before numpy's first import; the timing
    # and bit-for-bit claims made from tier-1 runs rely on them taking effect. dlopen
    # hands back numpy's own loaded copy of its bundled OpenBLAS.
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas64 library")
    try:
        get_threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("the bundled OpenBLAS exports no scipy_openblas_get_num_threads64_")
    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
    assert get_threads() == 1


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


def _run_python(*args, cwd):
    """A Python process with the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_runs_as_a_process(tmp_path):
    out = tmp_path / "out"
    proc = _run_python("-m", "lmopt", "lmo-check", "--set", "trials=2", "--out", str(out),
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(out))
    assert [os.path.splitext(n)[1] for n in names] == [".csv", ".jsonl"]
    assert all(n.startswith("lmo_check_") for n in names)


def test_module_entry_rejects_an_unknown_key_without_a_traceback(tmp_path):
    proc = _run_python("-m", "lmopt", "train", "--set", "nope=1", cwd=tmp_path)
    assert proc.returncode == 1
    assert "unknown key 'nope'" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


def _bench_module(name: str):
    """lmopt_bench/<name>.py, imported from its path. It is registered in
    sys.modules before it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"lmopt_bench_{name}", ROOT / "lmopt_bench" / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _tracer_module():
    """lmopt_bench/tracer.py, imported from its path, with every traced module loaded
    (install patches each of them)."""
    tracer_mod = _bench_module("tracer")
    for mod in tracer_mod.TRACED:
        importlib.import_module(f"lmopt.{mod}")
    return tracer_mod


def _reference_digests() -> dict:
    with open(ROOT / "lmopt_bench" / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@pytest.mark.parametrize("workload", sorted(_reference_digests()))
def test_benchmark_jobs_match_their_reference_digests(workload):
    """The first two pool keys of each benchmark workload, checked as the benchmark
    checks every job: its invariants, and its digest against reference.json. A
    change that moves a job's bits fails here, not only in a benchmark run."""
    workloads = _bench_module("workloads")
    w = workloads.WORKLOADS[workload]
    reference = _reference_digests()[workload]
    keys = w.pool[:2]
    ctx = w.setup(keys[0])
    for key in keys:
        result = w.run(ctx, key)
        assert w.check(result) == []
        assert workloads.compare(w.digest(result), reference[key]) == []


def test_traced_init_model_draws_one_semi_orthogonal_per_spectral_layer():
    """The tracer patches module globals, so init_model must look each draw up by
    its global name when it runs: a draw held elsewhere would escape the trace."""
    from lmopt import models
    from lmopt.norms import NormKind

    tracer_mod = _tracer_module()
    specs = models.build_config(models.Domain.IMAGE, (32, 64, 64, 64, 10))
    spectral = sum(ls.weight_norm.kind is NormKind.SPECTRAL for ls in specs)
    assert spectral == 3
    tracer = tracer_mod.Tracer()
    with tracer.job_span(0):
        models.init_model(specs, 4)
    name_id = tracer.arrays()["name_id"]
    assert int(np.sum(name_id == tracer.names.index("linalg.semi_orthogonal_init"))) == spectral
    assert int(np.sum(name_id == tracer.names.index("models.init_model"))) == 1


def _quadratic_job(experiments):
    from lmopt.optim import Algo, ScheduleSpec
    from lmopt.problems import StochasticQuadratic

    problem = StochasticQuadratic(dim=4, noise=1.0, seed=0)
    experiments.train_quadratic(problem, Algo.SCG, ScheduleSpec(horizon=5), [0, 1])
    return 5  # one vector atom, five steps


def _classifier_job(experiments):
    from lmopt import models
    from lmopt.optim import Algo, ScheduleSpec
    from lmopt.problems import SyntheticClassification, gen_synthetic

    tx, ty, _, _ = gen_synthetic(SyntheticClassification(dim=4, classes=3, train_size=16))
    model = models.init_model(models.build_config(models.Domain.IMAGE, (4, 8, 3)), 0)
    experiments.train_classifier(model, tx, ty, Algo.SCG, ScheduleSpec(horizon=3),
                                 batch_size=4, record=True)
    return 3 * len(model.norm_spec().atoms)  # every atom, three steps


def _coordinate_job(experiments):
    experiments.coordinate_check([4, 8], depth=2, samples=2, input_dim=4, classes=3)
    return 2 * 2 * 2  # two weight layers, two widths, two samples


def test_traced_svd_counts_the_rank_of_each_operand(monkeypatch):
    """The tracer's svd_reduced observer books the returned rank against min(shape)
    of the operand it was called with, so rank_frac reads a share in (0, 1]."""
    from lmopt import experiments, linalg, norms

    tracer_mod = _tracer_module()
    shapes = []
    svd_reduced = linalg.svd_reduced

    def recorded(a):
        shapes.append(np.shape(a))
        return svd_reduced(a)

    monkeypatch.setattr(linalg, "svd_reduced", recorded)
    monkeypatch.setattr(norms, "svd_reduced", recorded)
    tracer = tracer_mod.Tracer()
    with tracer.job_span(0):
        _classifier_job(experiments)
    a = tracer.arrays()
    spans = a["name_id"] == tracer.names.index("linalg.svd_reduced")
    assert int(spans.sum()) == len(shapes) > 0
    np.testing.assert_array_equal(a["count_b"][spans], [min(shape) for shape in shapes])
    assert np.all(a["count_a"][spans] > 0) and np.all(a["count_a"][spans] <= a["count_b"][spans])
    rank_frac = tracer_mod.summarize(tracer, 1, 3)["linalg.svd_reduced.rank_frac"]
    assert 0.0 < rank_frac <= 1.0


@pytest.mark.parametrize("job", [_quadratic_job, _classifier_job, _coordinate_job],
                         ids=["train_quadratic", "train_classifier", "coordinate_check"])
def test_traced_harness_steps_inside_the_step_span(job):
    """Each harness runs its update through experiments.apply_step, so the tracer
    books its oracle calls to the step, not to the harness as diagnostics."""
    from lmopt import experiments

    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    with tracer.job_span(0):
        want = job(experiments)
    a = tracer.arrays()
    lmo_spans = np.flatnonzero(a["name_id"] == tracer.names.index("norms.lmo"))
    assert lmo_spans.size == want
    step_id = tracer.names.index("experiments.apply_step")
    assert np.all(a["name_id"][a["parent"][lmo_spans]] == step_id)
