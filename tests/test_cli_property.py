"""The CLI contract by property: every config whose keys all lie in their declared
intervals ends in exit code 0, 1, 2 or 3, with no exception and no warning; a run
that exits 1 or 3 writes nothing, and one that exits 0 writes only finite numbers.

Configs are drawn whole from `cli.SCHEMAS`, with every size at most 8 and the idx
problem left out (it needs files), and run in-process. The draw is derandomized
with no example database, so the suite stays deterministic.
"""

import itertools
import json
import math
import os
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lmopt.cli import SCHEMAS, main
from lmopt.norms import NormKind

MAX_SIZE = 8
_KIND_NAMES = [k.value for k in NormKind]


def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def _ints(interval: str):
    lo, hi, open_lo, open_hi = _bounds(interval)
    if math.isinf(lo):  # the seed: any integer
        return st.integers(-(2**64), 2**64)
    return st.integers(int(lo) + open_lo, min(MAX_SIZE, hi - open_hi))


def _floats(interval: str):
    """Floats in the interval: half of the draws from its part inside [-4, 4], where
    most runs finish, and half from all of it, where the extremes lie."""
    lo, hi, open_lo, open_hi = _bounds(interval)

    def inside(lo, hi):
        return st.floats(
            min_value=None if math.isinf(lo) else lo,
            max_value=None if math.isinf(hi) else hi,
            exclude_min=open_lo and not math.isinf(lo),
            exclude_max=open_hi and not math.isinf(hi),
            allow_nan=False,
            allow_infinity=False,
        )

    return st.one_of(inside(max(lo, -4.0), min(hi, 4.0)), inside(lo, hi))


def _value(field):
    """A strategy for one key's value inside its declared interval, as --set text."""
    if field.kind == "int":
        return _ints(field.interval).map(str)
    if field.kind == "int_list":
        return st.lists(_ints(field.interval), min_size=1, max_size=3).map(
            lambda v: ",".join(map(str, v))
        )
    if field.kind == "float":
        return _floats(field.interval or "(-inf, inf)").map(repr)
    if field.choices:
        return st.sampled_from([c for c in field.choices if c != "idx"])
    if field.path == "kinds":
        return st.one_of(
            st.just("all"),
            st.lists(st.sampled_from(_KIND_NAMES), min_size=1, max_size=3, unique=True)
            .map(",".join),
        )
    return st.just("")  # the idx paths; `out` is set by the test


def _config(command: str):
    return st.fixed_dictionaries(
        {path: _value(f) for path, f in SCHEMAS[command].items() if path != "out"}
    ).map(lambda cfg: (command, cfg))


_CONFIGS = st.one_of(*(_config(command) for command in SCHEMAS))

# `rate` at a constrained radius whose doubled value (the reported D2) overflows.
_D2 = ("rate", {**{p: str(f.default) for p, f in SCHEMAS["rate"].items() if p != "out"},
                "n_list": "2,3", "trials": "1", "rho_constrained": "1e308"})


def _numbers(value):
    """Every float or int inside a decoded JSON value."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _csv_numbers(path: str):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            for cell in line.rstrip("\n").split(","):
                try:
                    yield float(cell)
                except ValueError:  # a name, a flag or a column header
                    pass


_RUNS = itertools.count()


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@example(config=_D2)
@given(config=_CONFIGS)
def test_every_in_range_config_keeps_the_exit_contract(tmp_path, config):
    command, cfg = config
    out = tmp_path / f"run{next(_RUNS)}"
    args = [command, "--out", str(out)]
    for path, value in cfg.items():
        args += ["--set", f"{path}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(args)
    assert rc in (0, 1, 2, 3)
    if rc in (1, 3):
        assert not out.exists() or os.listdir(out) == []
    if rc != 0:
        return
    names = os.listdir(out)
    assert any(n.endswith(".csv") for n in names) and any(n.endswith(".jsonl") for n in names)
    for name in names:
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            values = list(_csv_numbers(path))
        elif name.endswith(".jsonl"):
            with open(path, encoding="utf-8") as fh:
                values = [v for line in fh for v in _numbers(json.loads(line))]
        else:
            continue
        assert all(math.isfinite(v) for v in values), (name, values)
