"""Every CLI subcommand reproduces its committed artifacts (see csv_lock.py)."""

import json

import numpy as np
import pytest

from csv_lock import CASES, REFERENCE, capture

RTOL = 1e-9


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    return reference, capture(str(tmp_path_factory.mktemp("csv_lock")))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("command", sorted(CASES))
def test_command_matches_reference(runs, command):
    reference, current = runs
    want, got = reference[command], current[command]
    assert got["artifacts"] == want["artifacts"]
    assert got["csv"].keys() == want["csv"].keys()
    for name, expected in want["csv"].items():
        actual = got["csv"][name]
        assert actual["head"] == expected["head"], name
        assert len(actual["rows"]) == len(expected["rows"]), name
        for i, (row, ref_row) in enumerate(zip(actual["rows"], expected["rows"])):
            assert len(row) == len(ref_row), f"{name} row {i}"
            for cell, ref_cell in zip(row, ref_row):
                ref_value = _number(ref_cell)
                if ref_value is None:
                    assert cell == ref_cell, f"{name} row {i}"
                else:
                    np.testing.assert_allclose(
                        _number(cell), ref_value, rtol=RTOL, atol=0, err_msg=f"{name} row {i}"
                    )


def test_reference_covers_every_command(runs):
    reference, _ = runs
    assert sorted(reference) == sorted(CASES)
    for command, run in reference.items():
        assert run["csv"], command
        for csv in run["csv"].values():
            assert csv["head"][0] == "# schema=1" and csv["rows"], command


def test_cells_print_plain_values(runs):
    """Numpy scalars print as plain numbers and bools as true/false, never in repr form."""
    for current in runs:
        for command, run in current.items():
            for name, csv in run["csv"].items():
                for row in csv["rows"]:
                    for cell in row:
                        assert "np." not in cell and cell not in ("True", "False"), (
                            f"{command} {name}: {cell!r}"
                        )
