"""Survival probability theta(d, p) from the generating-function fixed point.

Below p_c the smallest fixed point of G_{X'} is 1 and the rumor dies almost
surely; above it, psi < 1 and theta = 1 - G_{N'}(psi) > 0.  The run shows the
phase transition along p for a few tree degrees, plus the agreement between
the two printed forms of theta.
"""

from rumorlab import p_critical, psi_root, theta, theta_double_sum

for d in (3, 4, 6):
    pc = float(p_critical(d))
    print(f"d = {d}   p_c = {pc:.4f}")
    for p in (0.3, 0.5, 0.7, 0.8, 0.9, 1.0):
        root = psi_root(d, p)
        t = theta(d, p)
        marker = "supercritical" if t > 0 else "subcritical  "
        print(f"   p = {p:.2f}  psi = {root.psi:.6f}  theta = {t:.6f}  {marker}")
    print()

print("Two shapes of the same quantity (d = 5, p = 0.8):")
a = theta(5, 0.8)
b = theta_double_sum(5, 0.8)
print(f"  1 - G_N'(psi)      = {a:.12f}")
print(f"  regrouped double sum = {b:.12f}")
print(f"  |difference| = {abs(a - b):.2e}")
