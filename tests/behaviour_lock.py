"""Behaviour lock for the update rules: capture every algorithm's trajectory.

`capture()` runs each update rule through both harnesses on small fixed inputs and
returns the five diagnostic columns plus the final iterates as plain lists:

- `train_quadratic` on a two-trial stack for 30 steps (dim 8, linear-decay gamma,
  constant alpha);
- `train_classifier` for 10 steps on a recommended-family 6-8-8-3 MLP with biases.

`tests/test_behaviour_lock.py` compares `capture()` with the committed
`behaviour_lock.json` at 1e-12 relative, so a refactor or speed-up of the step rules
has to keep their trajectories. Regenerating the reference is a deliberate act
(record it in CHANGES.md):

    PYTHONPATH=src python tests/behaviour_lock.py
"""

from __future__ import annotations

import json
import os

from lmopt.experiments import train_classifier, train_quadratic
from lmopt.models import Domain, build_config, init_model
from lmopt.optim import Algo, GammaKind, ScheduleSpec
from lmopt.problems import StochasticQuadratic, SyntheticClassification, gen_synthetic

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "behaviour_lock.json")
COLUMNS = ("loss", "grad_dual_norm", "fw_gap", "param_norm", "est_error")
MU = 0.3
BETA = 0.8


def _columns(diags) -> dict:
    return {col: list(getattr(diags, col)) for col in COLUMNS}


def capture() -> dict:
    quadratic = StochasticQuadratic(dim=8, noise=1.0, conditioning=5.0, seed=11)
    q_schedule = ScheduleSpec(
        horizon=30, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.1, alpha0=0.2
    )
    data = SyntheticClassification(dim=6, classes=3, train_size=48, test_size=0, seed=5)
    train_x, train_y, _, _ = gen_synthetic(data)
    specs = build_config(Domain.IMAGE, (6, 8, 8, 3), with_bias=True)
    c_schedule = ScheduleSpec(
        horizon=10, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.2, alpha0=0.3
    )
    out: dict = {"quadratic": {}, "classifier": {}}
    for algo in Algo:
        xs, stack = train_quadratic(
            quadratic, algo, q_schedule, [0, 1],
            rho=2.0 if algo is Algo.SCG else 1.0, mu=MU, beta=BETA,
        )
        out["quadratic"][algo.value] = {
            "final": xs.tolist(),
            "trials": [_columns(stack.trial(i)) for i in range(2)],
        }
        model, diags = train_classifier(
            init_model(specs, 7), train_x, train_y, algo, c_schedule,
            seed=3, batch_size=16, mu=MU, beta=BETA,
        )
        out["classifier"][algo.value] = {
            "final": [p.tolist() for p in model.parameters()],
            **_columns(diags),
        }
    return out


if __name__ == "__main__":
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
