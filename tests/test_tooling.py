"""Guards for the tools around the library: the benchmark tracer's names and the demos."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
