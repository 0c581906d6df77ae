"""Every update rule reproduces its committed trajectory (see behaviour_lock.py)."""

import json

import numpy as np
import pytest

from behaviour_lock import REFERENCE, capture

RTOL = 1e-12


@pytest.fixture(scope="module")
def runs():
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    return reference, capture()


def _leaves(tree, path=""):
    """(path, array) for every numeric list in a nested dict/list tree."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], f"{path}/{key}")
    elif tree and all(isinstance(v, (list, dict)) for v in tree):
        for i, v in enumerate(tree):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, np.asarray(tree, dtype=np.float64)


@pytest.mark.parametrize("harness", ["quadratic", "classifier"])
def test_every_rule_matches_reference(runs, harness):
    reference, current = runs
    assert sorted(current[harness]) == sorted(reference[harness])
    got = dict(_leaves(current[harness]))
    want = dict(_leaves(reference[harness]))
    assert got.keys() == want.keys()
    for path, expected in want.items():
        np.testing.assert_allclose(got[path], expected, rtol=RTOL, atol=0, err_msg=path)


def test_reference_covers_every_rule(runs):
    reference, _ = runs
    for harness in ("quadratic", "classifier"):
        assert len(reference[harness]) == 8
        for name, run in reference[harness].items():
            columns = run["trials"] if harness == "quadratic" else [run]
            for cols in columns:
                assert len(cols["loss"]) == (30 if harness == "quadratic" else 10), name
