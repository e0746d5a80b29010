"""Independent cross-check oracles used only by the tests.

Each one reaches a quantity of the library by a different route: E(X) as
a sum of term ratios, the printed form of the N' law, a pgf summed from a
law's masses, brute-force enumeration of contact sequences for the
traversal probability, the binomial sum for the thinned laws, two samplers
of the X' law, the level-reach probability of a Cayley tree from iterated
pgfs, and the incomplete-gamma recurrence that the integer behind S(m, n)
must satisfy exactly.  The scalar log-space loops at the end are
the plain forms that the library's array kernels must reproduce bit for
bit; the scalar complement sum is the one they reproduce to summation
order.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rumorlab.errors import _check_d, _check_p
from rumorlab.laws import (
    _partial_exp_sum_scaled_int,
    law_X,
    law_X_prime,
    pgf_N_prime,
    pgf_X_prime,
)


def covers(est, value) -> bool:
    """Whether the CI of the estimate ``est`` contains ``value``."""
    return est.ci_low <= value <= est.ci_high


def mean_X_term_sum(d: int) -> Fraction:
    """E(X) = sum_{i<d} a_i, with a_(d-1) = d/(d+1) and a_(i-1) = a_i i/(d+1).

    Plain ``Fraction`` arithmetic term by term: no factorial, no power of
    d+1 and no shared integer with the library's Horner sum.
    """
    _check_d(d)
    term = Fraction(d, d + 1)
    total = term
    for i in range(d - 1, 0, -1):
        term = term * i / (d + 1)
        total += term
    return total


def law_N_prime_printed(d: int, p) -> tuple[Fraction, ...]:
    """Literal evaluation of the published N' formula (requires p < 1).

    P(N'=i) = (p/(1-p))^i (d+1)^{-1} sum_{k>=i} k k! C(k,i) C(d+1,k) ((1-p)/(d+1))^k.
    An independent cross-check of the regrouped form ``law_N_prime``.
    """
    _check_d(d)
    _check_p(p)
    if p == 1:
        raise ValueError("printed form is undefined at p = 1; use law_N_prime")
    pf = Fraction(p)
    ratio = pf / (1 - pf)
    probs = []
    for i in range(d + 2):
        inner = Fraction(0)
        for k in range(max(i, 1), d + 2):
            inner += (
                k
                * math.factorial(k)
                * math.comb(k, i)
                * math.comb(d + 1, k)
                * ((1 - pf) / (d + 1)) ** k
            )
        probs.append(ratio ** i * inner / (d + 1))
    return tuple(probs)


def thinned_binomial_sum(base: tuple, p) -> tuple:
    """Masses of the exact law ``base`` thinned by p on its support {0, ..., n}:
    P'(i) = sum_k C(k, i) p^i (1-p)^(k-i) P(k), one exact term at a time."""
    pf = Fraction(p)
    out = [Fraction(0)] * len(base)
    for k, mass in enumerate(base):
        for i in range(k + 1):
            out[i] += math.comb(k, i) * pf ** i * (1 - pf) ** (k - i) * mass
    return tuple(out)


def pmf_pgf(pmf: tuple, s: float) -> float:
    """E[s^V] by Horner's rule over the float masses of the law ``pmf``."""
    acc = 0.0
    for q in reversed(np.asarray(pmf, dtype=float)):
        acc = acc * s + q
    return float(acc)


def enumerate_traversal_probability(d: int) -> Fraction:
    """Brute-force oracle for beta(d): exhaust all contact sequences.

    A spreader has d+1 neighbors (one informer, d ignorants, one of them the
    designated target).  Contacts pick uniformly among the d+1 neighbors;
    the race ends at the first repeat/informer contact.  Sums the exact
    probability of every sequence that touches the target.  Linear recursion
    depth in d; intended for small d.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    total = Fraction(0)

    # state: number of fresh non-target ignorants remaining, target fresh
    def recurse(fresh_others: int, prob: Fraction) -> None:
        nonlocal total
        # contact the target now
        total += prob / (d + 1)
        # or contact one of the fresh others, then continue
        if fresh_others > 0:
            recurse(fresh_others - 1, prob * Fraction(fresh_others, d + 1))

    recurse(d - 1, Fraction(1))
    return total


def _support_and_pvals(law: tuple) -> tuple[np.ndarray, np.ndarray]:
    values = np.arange(len(law))
    pvals = np.asarray(law, dtype=float)
    return values, pvals / pvals.sum()


def sample_offspring(d: int, p: float, size: int, seed: int, mode: str = "cdf") -> np.ndarray:
    """Draw X' samples either by inverse CDF or by binomial thinning of X.

    The two modes must agree in distribution; 'thin' mirrors the coupling
    construction X' = sum of X Bernoulli(p) indicators.
    """
    rng = np.random.default_rng([seed])
    if mode == "cdf":
        values, pvals = _support_and_pvals(law_X_prime(d, p))
        cdf = np.cumsum(pvals)
        return values[np.searchsorted(cdf, rng.random(size), side="right")]
    if mode == "thin":
        values, pvals = _support_and_pvals(law_X(d))
        cdf = np.cumsum(pvals)
        x = values[np.searchsorted(cdf, rng.random(size), side="right")]
        return rng.binomial(x, p)
    raise ValueError(f"unknown sampling mode {mode!r}")


def reach_probability(d: int, p: float, level: int) -> float:
    """P(a spreader at graph level ``level``) on cayley(d): every non-root
    spreader has d free neighbors, so a subtree dies out within m
    generations with probability G_{X'} iterated m times from 0."""
    extinct = 0.0
    for _ in range(level - 1):
        extinct = pgf_X_prime(d, p, extinct)
    return 1.0 - pgf_N_prime(d, p, extinct)


def gamma_recurrence_residual(m: int, n: int) -> int:
    """Gamma(m+1, n) - m Gamma(m, n) - n^m e^(-n), scaled by e^n: exactly 0."""
    return _partial_exp_sum_scaled_int(m + 1, n) - m * _partial_exp_sum_scaled_int(m, n) - n**m


def _log_add(log_sum: float, log_term: float) -> float:
    hi = max(log_sum, log_term)
    return hi + math.log1p(math.exp(-abs(log_sum - log_term)))


def log_partial_exp_sum_loop(m: int, n: int) -> float:
    """log S(m, n), one term at a time: t_i = t_(i-1) + log n - log i."""
    if n == 0:
        return 0.0
    log_n = math.log(n)
    log_term = 0.0
    log_sum = 0.0
    for i in range(1, m):
        log_term += log_n - math.log(i)
        log_sum = _log_add(log_sum, log_term)
    return log_sum


def beta_series_log_loop(d: int) -> float:
    """log beta_series(d), one contact attempt at a time."""
    log_term = -math.log(d + 1)
    log_sum = log_term
    for i in range(2, d + 1):
        log_term += math.log(d - i + 1) - math.log(d + 1)
        log_sum = _log_add(log_sum, log_term)
    return log_sum


def complement_sum_loop(d: int, p: float, u: float, root: bool) -> float:
    """1 - G_{V'}(1 - u) with V = N if ``root`` else X, one term at a time."""
    g = [1.0 / (d + 1)]
    for n in range(1, d + 1):
        g.append(g[-1] * ((d - n + 1) / (d + 1)))
    if root:
        masses = [n * g[n - 1] for n in range(1, d + 2)]
    else:
        masses = [(n + 1) * g[n] for n in range(1, d + 1)]
    log_base = math.log1p(-p * u) if p * u < 1 else -math.inf
    return -sum(mass * math.expm1(n * log_base) for n, mass in enumerate(masses, start=1))
