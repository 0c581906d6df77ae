"""CSV lock for the CLI: capture every subcommand's artifacts on fixed small configs.

`capture(out_root)` runs each subcommand once, with seed 3 and the configs of
acceptance criterion 12, each into its own directory under `out_root`, and returns
per command:

- `artifacts`: every file name the run wrote (the config hash is part of each name);
- `csv`: per CSV file, its comment and header lines (`head`) and its data rows as
  lists of cell strings (`rows`).

`tests/test_csv_lock.py` compares `capture()` with the committed `csv_lock.json`:
file names, comment and header lines exactly, numeric cells at 1e-9 relative and
the other cells exactly. So a change to the CLI has to keep every artifact name and
every CSV value. Regenerating the reference is a deliberate act (record it in
CHANGES.md):

    PYTHONPATH=src python tests/csv_lock.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from lmopt.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "csv_lock.json")
SEED = 3
CASES = {
    "lmo-check": ["--set", "trials=10", "--set", "max_dim=12"],
    "train": ["--set", "optimizer.steps=10", "--set", "problem.train_size=48",
              "--set", "optimizer.batch_size=24"],
    "coord-check": ["--set", "widths=8,16", "--set", "samples=2",
                    "--set", "input_dim=8", "--set", "classes=3"],
    "sweep": ["--set", "widths=8,16", "--set", "gamma.count=2",
              "--set", "epochs=1", "--set", "problem.train_size=48",
              "--set", "problem.test_size=24", "--set", "batch_size=24"],
    "rate": ["--set", "n_list=20,40", "--set", "trials=2"],
}


def _read_csv(path: str) -> dict:
    lines = open(path, encoding="utf-8").read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return {
        "head": lines[: header + 1],
        "rows": [line.split(",") for line in lines[header + 1:]],
    }


def capture(out_root: str) -> dict:
    out: dict = {}
    for command, args in CASES.items():
        out_dir = os.path.join(out_root, command)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--seed", str(SEED), "--out", out_dir, *args])
        if rc != 0:
            raise RuntimeError(f"{command} exited {rc}")
        names = sorted(os.listdir(out_dir))
        out[command] = {
            "artifacts": names,
            "csv": {
                name: _read_csv(os.path.join(out_dir, name))
                for name in names if name.endswith(".csv")
            },
        }
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        captured = capture(tmp)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
