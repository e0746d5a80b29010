"""The branching process as an independent oracle for theta.

Rumor survival is equivalent to survival of a Galton-Watson process with
initial count N' and offspring X'.  Monte Carlo over that process must agree
with the analytic fixed-point computation, and the shared-uniform coupling
shows pathwise monotonicity in p.
"""

from rumorlab import (
    coupled_monotonicity_trial,
    extinction_by_iteration,
    law_X_prime,
    psi_root,
    survival_mc,
    theta,
)

d, p = 4, 0.9
analytic = theta(d, p)
mc = survival_mc(d, p, replicas=40_000, seed=2024)
print(f"theta({d}, {p}) analytic      = {analytic:.4f}")
print(f"GW Monte Carlo (40k replicas) = {mc.estimate:.4f}  CI ({mc.ci_low:.4f}, {mc.ci_high:.4f})")
print(f"  {mc.cap_hits} replicas stopped at the cap of {mc.cap} spreaders, whose lines all die with")
print(f"  probability at most psi^cap = {mc.psi_pow_cap:.1e}; {mc.unresolved} left unresolved")
print()

# just above p_c(10) = 0.35059: every replica runs until it dies out or
# reaches the cap, so the estimate meets theta even where lines live long
near = survival_mc(10, 0.3509, replicas=4_000, seed=2024)
print(f"theta(10, 0.3509) analytic    = {theta(10, 0.3509):.5f}")
print(f"GW Monte Carlo (4k replicas)  = {near.estimate:.5f}  CI ({near.ci_low:.5f}, {near.ci_high:.5f})")
print()

print("Extinction probability, two independent routes (d = 3, p = 1):")
print(f"  Newton on the closed form   : {psi_root(3, 1.0).psi:.12f}")
print(f"  fixed point from the pmf    : {extinction_by_iteration(law_X_prime(3, 1.0)):.12f}")
print()

print("Monotone coupling: both processes thin the same uniforms, so the")
print("lower-p population can never exceed the higher-p one.")
violations = sum(
    not coupled_monotonicity_trial(4, 0.5, 0.9, seed=s) for s in range(2_000)
)
print(f"  domination violations over 2000 coupled runs: {violations}")
