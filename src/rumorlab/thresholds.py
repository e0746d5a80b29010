"""Critical values and survival probabilities for rumor spread on trees.

The homogeneous-tree threshold is ``p_c(d) = 1 / E(X)``; the hub-tree
threshold multiplies it by a power of the path-traversal probability.  The
survival probability comes from the smallest fixed point of the offspring
generating function, found by Newton steps in the survival variable
u = 1 - s.  Criticality is decided by the exact sign of p E(X) - 1 at every
d before any floating-point root finding, so "theta equals zero at or below
threshold" is an identity rather than a tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NumericFault, check_at_least
from .laws import (
    _check_d,
    _check_p,
    _complement_sum,
    _inverse_mean_X,
    _masses,
    _mean_excess,
    beta_value,
    cpgf_N_prime,
    cpgf_X_prime,
)

_RESIDUAL_BOUND = 1e-10
_FIXED_POINT_MAX_EVALS = 10_000
#: Newton steps from u = 0 take 3-16 for d up to 10^6; more means a fault
_NEWTON_MAX_STEPS = 30


@dataclass(frozen=True)
class ThresholdReport:
    """A critical value with exact, float, and asymptotic views.

    ``value`` is a Fraction where the inputs are held exactly and a float
    otherwise (math.inf past the float range); None when the threshold is
    infinite."""

    value: Fraction | float | None
    float_value: float
    asymptotic_value: float | None
    feasible: bool


@dataclass(frozen=True)
class RootResult:
    """Smallest non-negative fixed point psi of the offspring pgf, and the
    survival root u = 1 - psi that the Newton steps solve for (to full
    relative precision however close psi is to 1)."""

    psi: float
    u: float
    iterations: int
    residual: float


def is_subcritical(d: int, p) -> bool:
    """Exact test of p * E(X) <= 1 (extinction is almost sure), at every d:
    the sign of the correctly rounded eps = p E(X) - 1 is certified."""
    _check_d(d)
    _check_p(p)
    return _mean_excess(d, p) <= 0.0


def p_critical(d: int, exact: bool = False) -> ThresholdReport:
    """p_c(d) = (d+1)^d / (d! S(d, d+1)), with asymptote sqrt(2/(pi d)).

    For d = 2 the value is 9/8 >= 1 and the report is flagged infeasible:
    the rumor dies for every p, matching E(X) <= 1.  Past EXACT_LIMIT the
    value is exp(-log E(X)), from the same log-space sum as ``mean_X``.
    """
    _check_d(d)
    value = _inverse_mean_X(d, exact)
    return ThresholdReport(
        value=value,
        float_value=float(value),
        asymptotic_value=math.sqrt(2.0 / (math.pi * d)),
        feasible=value < 1,
    )


def survival_fixed_point(H: Callable[[float], float], tol: float = 1e-12) -> tuple[float, int]:
    """Largest fixed point u of H(u) = 1 - G(1 - u) on [0, 1], for a pgf G.

    1 - u is the smallest fixed point of G, the extinction probability.
    f(u) = H(u) - u is concave, negative above the root and zero at it, so
    secant steps on f from u = 1 and its image H(1) stay above the root and
    approach it superlinearly, where plain iteration u <- H(u) slows to the
    rate G'(1 - u), which tends to 1 near criticality.  The steps stop once
    their geometric tail step * r / (1 - r), with r the ratio of the last
    two steps, is below ``tol``.  Returns u and the number of H calls.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u0, f0 = 1.0, H(1.0) - 1.0
    u1 = 1.0 + f0
    prev_step = 0.0  # no ratio before the first secant step
    for evals in range(2, _FIXED_POINT_MAX_EVALS + 1):
        f1 = H(u1) - u1
        if f1 >= 0.0 or f1 == f0:  # at the root to rounding
            return u1, evals
        u2 = max(u1 - f1 * (u1 - u0) / (f1 - f0), 0.0)
        step = u1 - u2
        if step < prev_step:
            rate = step / prev_step
            if step * rate / (1.0 - rate) < tol:
                return u2, evals
        u0, f0, u1, prev_step = u1, f1, u2, step
    raise NumericFault(f"fixed-point iteration did not converge in {_FIXED_POINT_MAX_EVALS} steps")


def psi_root(d: int, p: float) -> RootResult:
    """Smallest non-negative root of G_{X'}(s) = s.

    Subcritical and critical inputs (eps = p E(X) - 1 <= 0, sign exact)
    return psi = 1.  Otherwise the survival root u = 1 - psi solves
    g(u) = eps - p C(u) = 0, that is H(u) = 1 - G_{X'}(1 - u) = u divided by
    u: with y = p u, 1 - (1 - y)^n = n y - y sum_{j<n} (1 - (1 - y)^j), so
    H(u) = (1 + eps) u - p u C(u) with C(u) = sum_j P(X > j) (1 - (1 - y)^j).
    eps is correctly rounded and C a sum of positive terms, so u keeps full
    relative precision however close p is to p_c (the float masses alone
    would move it by about 1e-16 / eps).  g is convex and decreasing, so
    Newton steps from u = 0 rise monotonically to the root; they stop at the
    first step <= 1e-15 u (a non-positive one comes only from rounding) and
    are counted in ``iterations``.  More than ``_NEWTON_MAX_STEPS`` steps, or
    a residual or a gap to ``survival_fixed_point`` beyond 1e-10, raise
    NumericFault.
    """
    _check_d(d)
    _check_p(p)
    eps = _mean_excess(d, p)
    if eps <= 0.0:
        return RootResult(psi=1.0, u=0.0, iterations=0, residual=0.0)
    n, mass = _masses(d, root=False)
    j, tails = n[:-1], np.cumsum(mass[:0:-1])[::-1]  # P(X > j), j = 1..d-1
    j_tails, powers = j * tails, j - 1.0
    u = 0.0
    for steps in range(1, _NEWTON_MAX_STEPS + 1):
        slope = float(j_tails.dot(np.exp(powers * math.log1p(-p * u))))
        step = (eps - p * _complement_sum((j, tails), p, u)) / (p * p * slope)
        u += max(step, 0.0)
        if step <= 1e-15 * u:
            break
    else:
        raise NumericFault(f"Newton steps did not settle in {_NEWTON_MAX_STEPS} for d={d}, p={p}")
    residual = abs(cpgf_X_prime(d, p, u) - u)
    if residual > _RESIDUAL_BOUND:
        raise NumericFault(f"survival root residual {residual} exceeds bound")

    u_iter, _ = survival_fixed_point(lambda v: cpgf_X_prime(d, p, v))
    if abs(u_iter - u) > _RESIDUAL_BOUND:
        raise NumericFault(
            f"Newton ({1.0 - u}) and fixed-point ({1.0 - u_iter}) roots disagree for d={d}, p={p}"
        )
    return RootResult(psi=1.0 - u, u=u, iterations=steps, residual=residual)


def theta(d: int, p: float) -> float:
    """Survival probability theta(d, p) = 1 - G_{N'}(psi); 0 when subcritical.

    Evaluated as 1 - G_{N'}(1 - u) in the survival root u = 1 - psi of
    ``psi_root``, which keeps its relative precision just above p_c, where
    theta is O(p - p_c).  At and below p_c, u = 0 and theta is exactly 0.
    """
    u = psi_root(d, p).u
    return cpgf_N_prime(d, p, u) if u > 0.0 else 0.0


def theta_double_sum(d: int, p: float, psi: float | None = None) -> float:
    """The printed double-sum form of theta, regrouped to avoid 1/(1-p).

    Combining (p psi/(1-p))^i with (1-p)^k gives (p psi)^i (1-p)^(k-i), which
    is finite for all p in (0, 1]; the published expression is recovered
    verbatim for p < 1.  Its terms k k! C(k,i) C(d+1,k) / (d+1)^k overflow a
    float near d = 170, so each is carried as k a_k C(k,i) with
    a_k = (d+1)! / ((d+1-k)! (d+1)^k), a product of factors <= 1 as in
    ``pgf_N_prime``, and the inner sum walks k upward by term ratios.
    """
    _check_d(d)
    _check_p(p)
    if psi is None:
        psi = psi_root(d, p).psi
    q = 1.0 - p
    x = p * psi
    a = [1.0]
    for k in range(1, d + 2):
        a.append(a[-1] * (d + 2 - k) / (d + 1))
    total = 0.0
    for i in range(d + 2):
        k0 = max(i, 1)
        # term = x^i a_k C(k, i) q^(k-i) <= a_k (x + q)^k <= 1, so it cannot overflow
        term = x ** i * a[k0] * (q if i == 0 else 1.0)
        inner = k0 * term
        for k in range(k0 + 1, d + 2):
            term *= (d + 2 - k) / (d + 1) * k / (k - i) * q
            inner += k * term
        total += inner
    return 1.0 - total / (d + 1)


def alpha_critical(
    d: int, k: int, h: int, beta_form: str = "paper", exact: bool = False
) -> ThresholdReport:
    """alpha_c(d, k, h) = p_c(d) * beta(k-1)^(1-h).

    ``beta_form`` selects the published closed form ('paper', default) or the
    first-principles series ('series'); see the beta audit.  Values >= 1 are
    reported with feasible = False (the rumor dies for every alpha).  The
    product is a Fraction when p_c and beta both are, and a float otherwise;
    past the float range its float view is inf.
    """
    _check_d(d, minimum=3)
    check_at_least("k", k, 2)
    check_at_least("h", h, 1)
    if k >= d:
        warnings.warn(
            f"alpha_critical assumes k < d; got k={k}, d={d}", stacklevel=2
        )
    pc = p_critical(d, exact=exact).value
    beta = beta_value(k - 1, form=beta_form, exact=exact) if h > 1 else 1
    if beta == 0:
        # paper-form beta(1) = 0 (k = 2): no hub is ever reached through
        # a path, so the threshold is infinite for h >= 2.
        return ThresholdReport(
            value=None,
            float_value=math.inf,
            asymptotic_value=None,
            feasible=False,
        )
    value = math.inf  # stays if a float power or product overflows
    try:
        value = pc * beta ** (1 - h)
        float_value = float(value)
    except OverflowError:  # past the float range; an exact value keeps its Fraction
        float_value = math.inf
    return ThresholdReport(
        value=value,
        float_value=float_value,
        asymptotic_value=None,
        feasible=value < 1,
    )


def max_h(d: int, k: int, beta_form: str = "paper", exact: bool = False) -> int:
    """Largest h with alpha_c(d, k, h) < 1, i.e. h < log p_c / log beta(k-1) + 1.

    Evaluated by direct comparison (exact rationals when available) rather
    than through logs, so the strict inequality carries no float fuzz for
    moderate d.
    """
    _check_d(d, minimum=3)
    check_at_least("k", k, 2)
    pc = p_critical(d, exact=exact).value
    if not pc < 1:
        raise ValueError(f"p_c({d}) >= 1: no feasible h exists")
    beta = beta_value(k - 1, form=beta_form, exact=exact)
    if beta == 0:
        return 1  # paper-form beta(1) = 0: only h = 1 is feasible
    # alpha_c(h) < 1  <=>  p_c < beta^(h-1); beta < 1 so the power decreases
    h = 1
    power = beta
    while pc < power:
        h += 1
        power = power * beta
        if h > 10_000:  # pragma: no cover
            raise NumericFault("max_h failed to terminate")
    return h


def asymptotic_h_bound(d: int, k: int) -> float:
    """The large-d feasibility scale log d / log k for the path length h."""
    _check_d(d, minimum=3)
    check_at_least("k", k, 2)
    return math.log(d) / math.log(k)
