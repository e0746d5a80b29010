"""The simulated contact dynamics as the ground-truth oracle.

The simulator runs the actual contact race of every spreader (uniform
neighbor choice until it touches a non-ignorant neighbor).  On a tree that
race depends only on the spreader's own draws, so no clocks are needed: the
spreaders are explored depth first until one appears at the target level.
Its empirical offspring law must reproduce the closed form, and its
level-reach frequency must match theta.  It also settles
the traversal-probability audit: the empirical value sits on the
first-principles series, not on the published closed form.
"""

from rumorlab import (
    beta_paper,
    beta_series,
    cayley,
    estimate_survival_ctmc,
    law_X,
    offspring_empirical,
    path_traversal_empirical,
    theta,
    tv_distance,
)

print("Offspring law, dynamics vs closed form (d = 3, p = 1):")
emp = offspring_empirical(3, 1.0, 300_000, seed=11)
for i, q in enumerate(emp):
    print(f"  P(X = {i})  empirical {q:.4f}   exact {float(law_X(3)[i]):.4f}")
print(f"  total variation distance: {tv_distance(emp, law_X(3)):.5f}")
print()

print("Traversal audit (degree k = 3, so the formulas evaluate at 2):")
est = path_traversal_empirical(3, 300_000, seed=12)
print(f"  closed form : {float(beta_paper(2)):.6f}  (= 1/3)")
print(f"  series form : {float(beta_series(2)):.6f}  (= 4/9)")
print(f"  dynamics    : {est.estimate:.6f}  CI ({est.ci_low:.6f}, {est.ci_high:.6f})")
print("  The dynamics lands on the series: the closed form drops the last contact path.")
print()

print("Survival by level reach on the degree-5 tree (d = 4, p = 0.9):")
reach = estimate_survival_ctmc(cayley(4), 0.9, target_level=30, replicas=8_000, seed=13)
print(f"  reach level 30: {reach.estimate:.4f}  CI ({reach.ci_low:.4f}, {reach.ci_high:.4f})")
print(f"  analytic theta: {theta(4, 0.9):.4f}")
