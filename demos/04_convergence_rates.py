"""Convergence behavior on a stochastic quadratic with known curvature and noise.

With the vanishing averaging schedule alpha_k = 1/sqrt(k) and the matching constant
stepsize 0.75 * n^(-3/4), the run-averaged dual gradient norm falls as a power of the
horizon (theory predicts exponent -1/4). With constant alpha the method instead
plateaus at a noise-proportional floor. The momentum error ||d_k - grad f(x_k)||^2
itself decays like 1/sqrt(k).
"""

from lmopt.experiments import error_decay_probe, rate_harness
from lmopt.problems import StochasticQuadratic

problem = StochasticQuadratic(dim=32, noise=1.0, conditioning=10.0, seed=0)
n_list = [100, 400, 1600]

for name in ("uscg", "scg"):
    rep = rate_harness(name, "vanishing", n_list, problem, trials=5)
    crits = "  ".join(f"n={n}: {m:.4f}" for n, m in zip(rep.n_list, rep.mean_criticality))
    print(f"{name}: {crits}")
    print(f"  fitted log-log slope {rep.slope:.3f} (theory -0.25, anything <= -0.15 passes)")

plateau = rate_harness("uscg", "constant", [2048], problem, trials=5, alpha=0.1)
low, high = plateau.mean_criticality
print(f"\nconstant-alpha plateaus: {low:.4f} at sigma, "
      f"{high:.4f} at 2*sigma  (ratio {plateau.plateau_ratio:.2f})")

probe = error_decay_probe(problem, n=1024, trials=5)
print(f"momentum-error decay slope: {probe.slope:.3f} (theory envelope -0.5)")
