"""Exact critical thresholds on the homogeneous tree.

The spread probability threshold is p_c(d) = 1/E(X) where X counts the new
spreaders a spreader creates before it stifles.  The table is exact
rational arithmetic; the asymptotic column shows sqrt(2/(pi d)).
"""

import math

from rumorlab import mean_X, p_critical

print("d     p_c exact           p_c (4 dp)   asymptotic   E(X)")
for d in range(2, 12):
    report = p_critical(d)
    trunc = math.floor(report.float_value * 10000) / 10000
    print(
        f"{d:<4}  {str(report.value):<18}  {trunc:.4f}      "
        f"{report.asymptotic_value:.4f}       {float(mean_X(d)):.4f}"
        f"{'   (no transition: E(X) <= 1)' if not report.feasible else ''}"
    )

print()
print("Large d: past EXACT_LIMIT = 500 the values are log-space floats:")
for d in (10**3, 10**4, 10**5):
    report = p_critical(d)
    ratio = report.float_value * math.sqrt(math.pi * d / 2)
    print(f"  d={d:<6}  p_c={report.float_value:.6f}   p_c*sqrt(pi d/2)={ratio:.4f}")
print("The product tends to 1, confirming the square-root decay of the threshold.")
