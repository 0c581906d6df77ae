"""Train a small MLP on synthetic classification data, end to end.

The builder assembles per-layer norm balls for the image-domain preset (spectral
hidden layers, a dimension-scaled sign ball on the output layer), the initializer
lands the weights exactly on the composite ball boundary, and the constrained
update then keeps them inside it for the whole run. The model round-trips through
a JSON checkpoint exactly.
"""

import os
import tempfile

import numpy as np

from lmopt import Algo, Domain, GammaKind, ScheduleSpec, build_config, init_model
from lmopt.experiments import train_classifier
from lmopt.models import load_model, save_model
from lmopt.norms import composite_norm
from lmopt.problems import SyntheticClassification, gen_synthetic

problem = SyntheticClassification(dim=32, classes=4, clusters=2, noise=0.5,
                                  train_size=512, test_size=128, seed=0)
train_x, train_y, test_x, test_y = gen_synthetic(problem)

specs = build_config(Domain.IMAGE, (32, 64, 64, 4))
model = init_model(specs, seed=0)
print("composite norm at init:", composite_norm(model.parameters(), model.norm_spec()))

schedule = ScheduleSpec(horizon=64, gamma_kind=GammaKind.LINEAR_DECAY, gamma0=0.2,
                        alpha0=0.1)
model, diags = train_classifier(model, train_x, train_y, Algo.SCG, schedule,
                                batch_size=128)
print(f"loss: {diags.loss[0]:.4f} -> {diags.loss[-1]:.4f} over {len(diags)} steps")
print("composite norm stayed <=", max(diags.param_norm))

from lmopt.models import loss_and_grad

test_loss, _ = loss_and_grad(model, test_x, test_y)
print(f"held-out loss: {test_loss:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_model.json")
    save_model(model, path)
    reloaded = load_model(path)
drift = max(float(np.max(np.abs(a - b)))
            for a, b in zip(model.weights, reloaded.weights))
print(f"checkpoint round-trip max drift: {drift} (exact)")
