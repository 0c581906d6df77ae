"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest lmopt_bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit, that a
perturbed reference value is counted as a failed job, that count metrics repeat
exactly across two traced runs, and that the benchmark refuses to run without the
lmopt sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "0.2"
SEED = 3
COUNT_SUFFIXES = (".calls", ".rank_frac", "_per_step")


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc, result = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [line.split() for line in proc.stdout.splitlines()]
        assert [m["name"], m["unit"]] in [[p[0], p[-1]] for p in printed if len(p) == 3]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_counts_as_failure(workload, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run

    run.load_lmopt()
    from workloads import WORKLOADS as DEFS

    reference = run.load_reference(workload)
    warmup_key = next(DEFS[workload].keys(SEED))
    reference[warmup_key][0] *= 1.0 + 1e-6

    code = run.run_one(workload, SEED, float(TINY_SECONDS), False, reference)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    pass_frac = result["metrics"]["pass_frac"]["value"]
    assert pass_frac == (result["attempted"] - result["failed"]) / result["attempted"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    runs = [bench(workload, 1) for _ in range(2)]
    for proc, _ in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        for _, result in runs
    ]
    assert counts[0] and counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", TINY_SECONDS, "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
