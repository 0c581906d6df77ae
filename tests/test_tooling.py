"""Guards for the tools around the library: the benchmark tracer's names and the demos."""

import ast
import importlib
import importlib.util
import os
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


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _tracer_module():
    """lmopt_bench/tracer.py, imported from its path, with every traced module loaded
    (install patches each of them)."""
    spec = importlib.util.spec_from_file_location(
        "lmopt_bench_tracer", ROOT / "lmopt_bench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    for mod in tracer_mod.TRACED:
        importlib.import_module(f"lmopt.{mod}")
    return tracer_mod


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
    experiments.train_quadratic(problem, Algo.SCG, ScheduleSpec(horizon=5), trial=[0, 1])
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
