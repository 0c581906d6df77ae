"""The update-rule family and the exact identities connecting its members.

Every rule is a row of lmopt's rule table, run by the one kernel `step`. Three
rows rearrange the same averaged-direction method and produce bit-near-identical
trajectories: the momentum-accumulator form (scale invariance of the lmo), the
weight-decay form (a constrained run on an inflated ball in disguise), and the
Scion-light form that stores only one gradient-shaped buffer, under a constant and
under the vanishing alpha_k = 1 / sqrt(k) alike. The constrained method
caps the composite parameter norm at 1 while the unconstrained one grows it by at
most the stepsize sum.
"""

import numpy as np

from lmopt import (
    RULES,
    Algo,
    ModelNormSpec,
    NormKind,
    NormSpec,
    OptimizerState,
    composite_norm,
    derive_seed,
    rng_gaussian,
    rule_for,
    step,
)

spec = ModelNormSpec((
    NormSpec(NormKind.SPECTRAL, 1.0, 8, 6),
    NormSpec(NormKind.SIGN, 0.5, 4, 4),
))


def fresh(seed, scale=1.0):
    return [scale * rng_gaussian(8, 6, derive_seed(seed, 0)),
            scale * rng_gaussian(4, 4, derive_seed(seed, 1))]


steps, gamma, beta = 100, 0.02, 0.9
stream = [fresh(1000 + k) for k in range(steps)]

# 1) momentum accumulator == averaged direction with alpha = 1 - beta
xa, xb = fresh(1), fresh(1)
sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
for g in stream:
    xa = step(xa, sa, g, gamma, 1.0 - beta, spec, RULES[Algo.USCG])[0]
    xb, _ = step(xb, sb, g, gamma, 1.0, spec, rule_for(Algo.MUON_PLAIN, beta=beta))
gap = max(float(np.max(np.abs(a - b))) for a, b in zip(xa, xb))
print(f"accumulator vs averaged-direction, {steps} steps: max gap {gap:.2e}")

# 2) weight decay mu == constrained method on radius/mu with stepsize gamma*mu
mu = 0.5
inflated = ModelNormSpec(tuple(
    NormSpec(a.kind, a.radius / mu, a.d_out, a.d_in) for a in spec.atoms
))
xa, xb = fresh(2, scale=0.05), fresh(2, scale=0.05)
sa = OptimizerState.init(xa)
sb = OptimizerState.init(xb)
for g in stream:
    xa, _ = step(xa, sa, g, gamma, 0.15, spec, rule_for(Algo.USCG_WD, mu=mu))
    xb = step(xb, sb, g, gamma * mu, 0.15, inflated, RULES[Algo.SCG])[0]
gap = max(float(np.max(np.abs(a - b))) for a, b in zip(xa, xb))
print(f"weight-decay vs inflated-ball constrained run:  max gap {gap:.2e}")

# 3) Scion-light: accumulate D_k = (1 - alpha_k) (alpha_{k-1} / alpha_k) D_{k-1} + g_k,
#    the averaged direction / alpha_k, under a constant and a vanishing alpha
for label, alpha_of in (("constant", lambda k: 0.1), ("vanishing", lambda k: 1.0 / np.sqrt(k))):
    xa, xb = fresh(3), fresh(3)
    sa, sb = OptimizerState.init(xa), OptimizerState.init(xb)
    for k, g in enumerate(stream, start=1):
        xa = step(xa, sa, g, gamma, alpha_of(k), spec, RULES[Algo.USCG])[0]
        xb, _ = step(xb, sb, g, gamma, alpha_of(k), spec, rule_for(Algo.USCG_LIGHT))
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(xa, xb))
    print(f"Scion-light vs averaged form, {label + ' alpha:':17s} max gap {gap:.2e}")

# 4) norm control: the constrained method never leaves the unit composite ball
from lmopt import model_lmo

x_con = model_lmo(fresh(4), spec)   # boundary start
x_unc = [p.copy() for p in x_con]
s_con = OptimizerState.init(x_con)
s_unc = OptimizerState.init(x_unc)
gamma_sum = 0.0
for g in stream:
    x_con = step(x_con, s_con, g, 0.05, 0.3, spec, RULES[Algo.SCG])[0]
    x_unc = step(x_unc, s_unc, g, 0.05, 0.3, spec, RULES[Algo.USCG])[0]
    gamma_sum += 0.05
print(f"\nafter {steps} steps: constrained composite norm = "
      f"{composite_norm(x_con, spec):.4f} (stays <= 1)")
print(f"unconstrained composite norm = {composite_norm(x_unc, spec):.4f} "
      f"(<= 1 + sum of gammas = {1 + gamma_sum:.1f})")
