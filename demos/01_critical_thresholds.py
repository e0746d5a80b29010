"""Exact critical thresholds on the homogeneous tree.

The spread probability threshold is p_c(d) = 1/E(X) where X counts the new
spreaders a spreader creates before it stifles.  ``p_critical`` returns a
Fraction up to d = 500 and a float beyond; the asymptotic column is
``pc_asymptotic``, sqrt(2/(pi d)).
"""

import math

from rumorlab import mean_X, p_critical, pc_asymptotic

print("d     p_c exact           p_c (4 dp)   asymptotic   E(X)")
for d in range(2, 12):
    pc = p_critical(d)
    trunc = math.floor(float(pc) * 10000) / 10000
    print(
        f"{d:<4}  {str(pc):<18}  {trunc:.4f}      "
        f"{pc_asymptotic(d):.4f}       {float(mean_X(d)):.4f}"
        f"{'   (no transition: E(X) <= 1)' if pc >= 1 else ''}"
    )

print()
print("Large d: past EXACT_LIMIT = 500 the values are log-space floats:")
for d in (10**3, 10**4, 10**5):
    pc = p_critical(d)
    ratio = pc * math.sqrt(math.pi * d / 2)
    print(f"  d={d:<6}  p_c={pc:.6f}   p_c*sqrt(pi d/2)={ratio:.4f}")
print("The product tends to 1, confirming the square-root decay of the threshold.")
