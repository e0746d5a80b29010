"""Rumors on inhomogeneous hub trees: the threshold in the hub density alpha.

Hubs have degree d+1; with probability alpha each free hub neighbor starts an
h-edge path of degree-k vertices to the next hub, else it is a leaf.  The
critical density is alpha_c = p_c(d) * beta(k-1)^(1-h), and feasibility
(alpha_c < 1) caps how far apart hubs may be.
"""

import math

from rumorlab import (
    alpha_critical,
    asymptotic_h_bound,
    estimate_survival_ctmc,
    hub_path,
    max_h,
)

print("Feasible hub spacing h for k near log d:")
print("d       k   h_max   log d/log k")
for d in (50, 200, 1000, 10**4):
    k = max(3, math.ceil(math.log(d)))
    print(f"{d:<7} {k:<3} {max_h(d, k):<7} {asymptotic_h_bound(d, k):.2f}")
print()

d, k, h = 50, 4, 2
ac = float(alpha_critical(d, k, h))
print(f"alpha_c({d}, {k}, {h}) = {ac:.4f}")
for factor, replicas in ((0.5, 4000), (1.5, 300)):
    alpha = min(1.0, factor * ac)
    est = estimate_survival_ctmc(
        hub_path(d, k, alpha, h), 1.0, target_level=20, replicas=replicas, seed=21
    )
    side = "below" if factor < 1 else "above"
    print(
        f"  alpha = {alpha:.3f} ({side} threshold): reach 20 hub generations "
        f"in {est.estimate:.4f} of runs  CI ({est.ci_low:.4f}, {est.ci_high:.4f})"
    )
