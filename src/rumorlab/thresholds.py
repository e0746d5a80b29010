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

import numpy as np

from .errors import NumericFault, _check_d, _check_p, check_at_least
from .laws import (
    _complement_sum,
    _log_mean_X,
    _masses,
    _mean_excess,
    _survival_root,
    _use_exact,
    beta_value,
    cpgf_N_prime,
    cpgf_X_prime,
    mean_X,
)

_RESIDUAL_BOUND = 1e-10
#: Newton steps from u = 0 take 3-16 for d up to 10^6; more means a fault
_NEWTON_MAX_STEPS = 30


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


def p_critical(d: int, exact: bool = False) -> Fraction | float:
    """p_c(d) = 1/E(X) = (d+1)^d / (d! S(d, d+1)).

    A Fraction where ``mean_X`` is exact, its reciprocal needing no further
    gcd, and past EXACT_LIMIT the float exp(-log E(X)) from ``mean_X``'s own
    log-space sum.  For d = 2 it is 9/8 >= 1: the rumor dies for every p,
    matching E(X) <= 1.
    """
    _check_d(d)
    return 1 / mean_X(d, exact=True) if _use_exact(d, exact) else math.exp(-_log_mean_X(d))


def pc_asymptotic(d: int) -> float:
    """The leading term sqrt(2/(pi d)) of p_c(d) as d grows."""
    _check_d(d)
    return math.sqrt(2.0 / (math.pi * d))


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
    a residual or a gap to the secant root ``laws._survival_root`` of the same
    masses beyond 1e-10, raise NumericFault.
    """
    _check_d(d)
    _check_p(p)
    eps = _mean_excess(d, p)
    if eps <= 0.0:
        return RootResult(psi=1.0, u=0.0, iterations=0, residual=0.0)
    mass = _masses(d, root=False)
    tails = np.cumsum(mass[:0:-1])[::-1]  # P(X > j) from j = 0
    # the slope's j = 0 term is 0; left in, it would move the dot's rounding
    j = np.arange(1.0, tails.size)
    j_tails, powers = j * tails[1:], j - 1.0
    u = 0.0
    for steps in range(1, _NEWTON_MAX_STEPS + 1):
        slope = float(j_tails.dot(np.exp(powers * math.log1p(-p * u))))
        step = (eps - p * _complement_sum(tails, p, u)) / (p * p * slope)
        u += max(step, 0.0)
        if step <= 1e-15 * u:
            break
    else:
        raise NumericFault(f"Newton steps did not settle in {_NEWTON_MAX_STEPS} for d={d}, p={p}")
    residual = abs(cpgf_X_prime(d, p, u) - u)
    if residual > _RESIDUAL_BOUND:
        raise NumericFault(f"survival root residual {residual} exceeds bound")

    u_iter = _survival_root(mass, p)
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


def theta_double_sum(d: int, p: float) -> float:
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
) -> Fraction | float:
    """alpha_c(d, k, h) = p_c(d) * beta(k-1)^(1-h).

    ``beta_form`` selects the published closed form ('paper', default) or the
    first-principles series ('series'); see the beta audit.  A value >= 1 is
    infeasible: the rumor dies for every alpha.  The product is a Fraction
    when p_c and beta both are, even past the float range, and a float
    otherwise; a float past that range is inf.  Paper-form
    beta(1) = 0 (k = 2) reaches no hub through a path, so for h >= 2 the
    value is inf.
    """
    _check_d(d, minimum=3)
    check_at_least("k", k, 2)
    check_at_least("h", h, 1)
    if k >= d:
        warnings.warn(
            f"alpha_critical assumes k < d; got k={k}, d={d}", stacklevel=2
        )
    pc = p_critical(d, exact=exact)
    beta = beta_value(k - 1, form=beta_form, exact=exact) if h > 1 else 1
    try:
        return pc * beta ** (1 - h)
    except (ZeroDivisionError, OverflowError):  # beta = 0, or a float power or product overflows
        return math.inf


def max_h(d: int, k: int, beta_form: str = "paper", exact: bool = False) -> int:
    """Largest h with alpha_c(d, k, h) < 1, i.e. h < log p_c / log beta(k-1) + 1.

    Evaluated by direct comparison (exact rationals when available) rather
    than through logs, so the strict inequality carries no float fuzz for
    moderate d.
    """
    _check_d(d, minimum=3)
    check_at_least("k", k, 2)
    if k >= d:
        warnings.warn(f"max_h assumes k < d; got k={k}, d={d}", stacklevel=2)
    pc = p_critical(d, exact=exact)
    beta = beta_value(k - 1, form=beta_form, exact=exact)
    # alpha_c(h) < 1  <=>  p_c < beta^(h-1); beta < 1 so the power decreases
    # (paper-form beta(1) = 0 leaves only h = 1)
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
