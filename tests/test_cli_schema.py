"""Schema-driven robustness of the CLI.

For every key of every command, on a small base config with a fixed seed, feed each
finite end of the key's interval, a value just outside each end, NaN, an empty list
(int_list keys) and a bad choice (str keys). Every run must return 0, 1, 2 or 3
without an escaping exception. An exit 1 must name the key on stderr and leave the
output directory empty, and every value outside the declared interval must exit 1.

On the same base configs, every declared choice of every str key runs (or exits 1
naming another key that the choice needs), and every train algorithm runs under
every alpha schedule on both built-in problems.
"""

import itertools
import math
import os

import pytest

from lmopt.cli import SCHEMAS, main

SEED = 7
BASE = {
    "lmo-check": ["trials=1", "max_dim=2"],
    "train": ["optimizer.steps=2", "optimizer.batch_size=4", "problem.dim=3",
              "problem.classes=2", "problem.train_size=8", "problem.test_size=2",
              "model.hidden=3"],
    "coord-check": ["widths=2,3", "depth=2", "samples=1", "input_dim=2", "classes=2"],
    "sweep": ["widths=2", "gamma.count=1", "epochs=1", "batch_size=4", "depth=2",
              "problem.dim=2", "problem.classes=2", "problem.train_size=8",
              "problem.test_size=4"],
    "rate": ["n_list=2,3", "trials=1", "problem.dim=2", "probe=error_decay",
             "probe_n=3", "probe_trials=1"],
}


def _ends(interval: str):
    """(end, closed, outward direction) for each finite end of an interval string."""
    assert interval[0] in "[(" and interval[-1] in "])", interval
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    assert lo <= hi, interval
    for end, closed, outward in ((lo, interval[0] == "[", -1), (hi, interval[-1] == "]", 1)):
        if math.isfinite(end):
            yield end, closed, outward


def _cases(field):
    """(value string, must be rejected) pairs for one field."""
    if field.kind == "str":
        return [("no_such_choice", field.choices is not None)]
    cases = [("nan", field.interval is not None or field.kind != "float")]
    if field.kind == "int_list":
        cases.append(("", True))
    for end, closed, outward in _ends(field.interval) if field.interval else ():
        if field.kind == "float":
            inside = end if closed else math.nextafter(end, -outward * math.inf)
            outside = math.nextafter(end, outward * math.inf) if closed else end
        else:
            assert end == int(end), field.path
            inside = int(end) if closed else int(end) - outward
            outside = int(end) + outward if closed else int(end)
        cases += [(repr(inside), False), (repr(outside), True)]
    return cases


FIELDS = [
    (command, path)
    for command, schema in SCHEMAS.items()
    for path in schema
    if path not in ("out", "seed")  # the harness's own output location and seed
]


@pytest.mark.parametrize("command, path", FIELDS, ids=[f"{c}:{p}" for c, p in FIELDS])
def test_every_value_runs_or_names_its_key(tmp_path, capsys, command, path):
    field = SCHEMAS[command][path]
    base = [a for setting in BASE[command] for a in ("--set", setting)]
    for i, (value, rejected) in enumerate(_cases(field)):
        out_dir = tmp_path / f"case{i}"
        rc = main([command, "--seed", str(SEED), "--out", str(out_dir), *base,
                   "--set", f"{path}={value}"])
        err = capsys.readouterr().err
        case = f"{command} {path}={value!r}: exit {rc}, stderr {err!r}"
        assert rc in (0, 1, 2, 3), case
        assert "Traceback" not in err, case
        if rejected:
            assert rc == 1, case
        if rc == 1:
            assert err.startswith("config error") and f"'{path}'" in err, case
            assert not out_dir.exists() or os.listdir(out_dir) == [], case


CHOICES = [
    (command, path, choice)
    for command, schema in SCHEMAS.items()
    for path, field in schema.items()
    for choice in field.choices or ()
]


@pytest.mark.parametrize(
    "command, path, choice", CHOICES, ids=[f"{c}:{p}={v}" for c, p, v in CHOICES]
)
def test_every_choice_runs_or_names_what_it_needs(tmp_path, capsys, command, path, choice):
    base = [a for setting in BASE[command] for a in ("--set", setting)]
    rc = main([command, "--seed", str(SEED), "--out", str(tmp_path), *base,
               "--set", f"{path}={choice}"])
    err = capsys.readouterr().err
    case = f"{command} {path}={choice}: exit {rc}, stderr {err!r}"
    assert rc in (0, 1), case
    assert "Traceback" not in err, case
    if rc == 1:
        needed = [key for key in SCHEMAS[command] if key != path and f"'{key}'" in err]
        assert err.startswith("config error") and needed, case
        assert os.listdir(tmp_path) == [], case


TRAIN_GRID = list(itertools.product(
    SCHEMAS["train"]["optimizer.algo"].choices,
    SCHEMAS["train"]["optimizer.alpha.kind"].choices,
    ("classification", "quadratic"),
))


@pytest.mark.parametrize(
    "algo, alpha_kind, problem", TRAIN_GRID, ids=["-".join(case) for case in TRAIN_GRID]
)
def test_every_algo_runs_under_every_alpha_schedule(tmp_path, capsys, algo, alpha_kind, problem):
    base = [a for setting in BASE["train"] for a in ("--set", setting)]
    rc = main(["train", "--seed", str(SEED), "--out", str(tmp_path), *base,
               "--set", f"optimizer.algo={algo}",
               "--set", f"optimizer.alpha.kind={alpha_kind}",
               "--set", f"problem.kind={problem}"])
    assert rc == 0, capsys.readouterr().err


def test_seed_accepts_any_integer(tmp_path):
    base = [a for setting in BASE["lmo-check"] for a in ("--set", setting)]
    for seed in ("-1", str(2**64)):
        assert main(["lmo-check", "--out", str(tmp_path), *base, "--set", f"seed={seed}"]) == 0
    assert main(["lmo-check", "--out", str(tmp_path), *base, "--set", "seed=nan"]) == 1
