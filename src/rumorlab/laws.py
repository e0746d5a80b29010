"""Closed-form offspring laws and generating functions for rumor spread on trees.

``X`` counts the new spreaders generated by a non-root spreader on the degree
``d+1`` tree; ``N`` the spreaders generated by the root.  Primed variants
thin every successful contact by the spread probability ``p``, so
G_{X'}(s) = G_X(1 - p + p s); one routine, ``_thin``, expands that
composition for every primed law.  Every law is one table of P(V = n)
from n = 0 that no type wraps: ``law_*`` give tuples of exact Fractions and
``law_*_float`` float arrays for the Monte Carlo engine.  The generating
functions are evaluated through their finite polynomial forms, which stay
bounded and well-defined at every point of ``[0, 1]`` (including s = 0 with
p = 1, where the closed gamma-function forms are singular).  One secant
routine, ``_survival_root``, solves u = 1 - G_{V'}(1 - u) on a mass table
for ``psi_root``'s cross-check and for both roots of the GW engine.

E(X), p_c = 1/E(X) and both traversal-probability forms come from one
integer, Sigma_d = (d-1)! S(d, d+1) with S(m, n) = sum_{i<m} n^i/i!.  ``d``
alone picks the arithmetic: exact Fractions up to ``EXACT_LIMIT`` (every d
with ``exact``), and beyond it floats summed in log space, up to
``LOG_LIMIT``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import NumericFault, _check_d, _check_p, check_unit_interval

#: ``_survival_root`` stops once its secant steps' geometric tail is below this
_SURVIVAL_TOL = 1e-12
_SURVIVAL_MAX_EVALS = 10_000
#: first and last fixed-point widths of ``_mean_excess``'s series
_EPS_BITS = 128
_EPS_MAX_BITS = 4096
#: largest d with exact rationals by default; beyond it, log-space floats
#: unless ``exact`` asks for rationals
EXACT_LIMIT = 500
#: largest d in log space: its ``log_ints(d - 1)`` table is 2^24 floats (128 MiB)
LOG_LIMIT = 2**24 + 1


def _use_exact(d: int, exact: bool) -> bool:
    """Exact rationals when asked for, or when ``d <= EXACT_LIMIT``."""
    return exact or d <= EXACT_LIMIT


def _partial_exp_sum_scaled_int(m: int, n: int) -> int:
    """``(m-1)! * S(m, n)`` as an exact integer, via a Horner recurrence.

    The coefficients ``(m-1)!/i!`` are built by the same descending product
    that Horner consumes, so no division or gcd happens until the caller
    normalizes the final Fraction.
    """
    acc = 1  # coefficient ladder starts at i = m-1
    coeff = 1
    for i in range(m - 2, -1, -1):
        coeff *= i + 1
        acc = acc * n + coeff
    return acc


@functools.lru_cache(maxsize=2)
def _log_ints(size: int) -> np.ndarray:
    logs = np.fromiter(map(math.log, range(1, size + 1)), dtype=float, count=size)
    logs.flags.writeable = False
    return logs


def log_ints(n: int) -> np.ndarray:
    """``log i`` for i = 1, ..., n as a read-only array, each bit-equal to
    ``math.log(i)``.

    numpy's vectorised ``log`` can differ from the C library's by one ulp
    (on AVX-512 hosts it does at i = 9170), which would move log-mode values
    off the scalar recurrences they reproduce.  Tables are built at powers
    of two, and only the two latest are kept.  Log space at d reads
    ``log_ints(d - 1)``, so past d = ``LOG_LIMIT`` a ValueError is raised
    before any table is built.
    """
    if n >= LOG_LIMIT:
        raise ValueError(f"d = {n + 1} exceeds {LOG_LIMIT}, the largest d evaluated in log space")
    return _log_ints(1 << max(n - 1, 0).bit_length())[:n]


def log_sum_exp_walk(start: float, steps: np.ndarray) -> float:
    """``log sum_k exp(t_k)`` for the walk t_0 = start, t_k = t_(k-1) + steps[k-1].

    The walk is one running sum and the fold one ``logaddexp`` per term,
    s <- max(s, t) + log1p(exp(-|s - t|)) with the C library's ``exp`` and
    ``log1p``: bit for bit the scalar recurrence, term after term.
    """
    walk = np.cumsum(np.concatenate(([start], steps)))
    return float(np.logaddexp.accumulate(walk)[-1])


def log_partial_exp_sum(m: int, n: int) -> float:
    """``log S(m, n)`` by stable log-space accumulation (n >= 1).

    The terms are t_i = sum_{j<=i} (log n - log j), folded in log space.
    """
    if n == 0:
        return 0.0
    return log_sum_exp_walk(0.0, math.log(n) - log_ints(m - 1))


def tv_distance(a: Sequence, b: Sequence) -> float:
    """Total-variation distance between two laws, each masses P(V = n) from
    n = 0, exact or float, the shorter one zero-filled."""
    return 0.5 * sum(abs(float(qa) - float(qb)) for qa, qb in zip_longest(a, b, fillvalue=0.0))


def law_X(d: int) -> tuple[Fraction, ...]:
    """Exact law of X on {0, ..., d}: P(X=i) = C(d,i) (i+1)! / (d+1)^(i+1)."""
    _check_d(d)
    return tuple(
        Fraction(math.comb(d, i) * math.factorial(i + 1), (d + 1) ** (i + 1))
        for i in range(d + 1)
    )


def _log_mean_X(d: int) -> float:
    """log E(X) = log d! + log S(d, d+1) - d log(d+1), summed in log space."""
    return math.lgamma(d + 1) + log_partial_exp_sum(d, d + 1) - d * math.log(d + 1)


def mean_X(d: int, exact: bool = False) -> Fraction | float:
    """E(X) = d Sigma_d / (d+1)^d, a Fraction for d <= EXACT_LIMIT or with
    ``exact``, a float from log space beyond; the integer
    Sigma_d = (d-1)! S(d, d+1) also gives both beta forms exactly."""
    _check_d(d)
    if _use_exact(d, exact):
        return Fraction(d * _partial_exp_sum_scaled_int(d, d + 1), (d + 1) ** d)
    return math.exp(_log_mean_X(d))


def _mean_excess(d: int, p) -> float:
    """eps = p E(X) - 1, correctly rounded, its sign exact.

    E(X) = sum_{i<d} a_i with a_(d-1) = d/(d+1) and a_(i-1) = a_i i/(d+1),
    summed in B-bit fixed point until a term floors to 0.  Each floor loses
    under one unit and the earlier losses carry forward scaled by ratios
    below 1, so after n terms the sum is low by under n(n+1)/2 units; the
    dropped tail is below (n+1) times a geometric factor (d+1)/(n+2).  So
    2^B E(X) lies in [total, total + n^2 + d + 1).  B doubles until both
    ends of the eps interval round to the same double, on the same side of
    0.  Only p E(X) = 1 exactly never settles; past ``_EPS_MAX_BITS`` the
    exact rational decides.
    """
    pf = Fraction(p)
    num, den = pf.numerator, pf.denominator
    bits = _EPS_BITS
    while bits <= _EPS_MAX_BITS:
        term = (d << bits) // (d + 1)
        total, n, i = 0, 0, d - 1
        while term:
            total += term
            n += 1
            term = term * i // (d + 1)
            i -= 1
        one = den << bits
        lo = num * total - one
        hi = num * (total + n * n + d + 1) - one
        if (lo > 0 or hi < 0) and lo / one == hi / one:
            return lo / one
        bits *= 2
    return float(pf * mean_X(d, exact=True) - 1)


def law_N(d: int) -> tuple[Fraction, ...]:
    """Exact law of N on {0, ..., d+1}: P(N=i) = i! C(d+1,i) i / (d+1)^(i+1),
    so P(N=0) = 0."""
    _check_d(d)
    return tuple(
        Fraction(math.factorial(i) * math.comb(d + 1, i) * i, (d + 1) ** (i + 1))
        for i in range(d + 2)
    )


def mean_N(d: int) -> Fraction:
    return sum(n * q for n, q in enumerate(law_N(d)))


def _thin(masses: np.ndarray, p) -> np.ndarray:
    """Masses of V' on {0, ..., n-1}: V on {0, ..., n-1} with masses
    ``masses``, each unit kept with probability p.

    These are the coefficients of G_V(1 - p + p s), expanded by Horner in
    t = 1 - p + p s: each step multiplies the running polynomial by t and
    adds the next mass down.  Every term is non-negative, so nothing cancels.
    Serves float64 masses with a float p and an object array of Fractions
    with a Fraction p alike; at p = 1 it returns the masses unchanged.
    """
    q = 1 - p
    out = masses[-1:]
    for mass in masses[-2::-1]:
        nxt = np.concatenate((q * out, p * out[-1:]))
        nxt[1:-1] += p * out[:-1]
        nxt[0] += mass
        out = nxt
    return out


def law_X_prime(d: int, p) -> tuple[Fraction, ...]:
    """Law of X' on {0, ..., d}: X given X=i thinned by Binomial(i, p)."""
    _check_d(d)
    _check_p(p)
    return tuple(_thin(np.array(law_X(d), dtype=object), Fraction(p)))


def law_N_prime(d: int, p) -> tuple[Fraction, ...]:
    """Law of N' on {0, ..., d+1}; at p = 1 this is law_N with P(N'=0) = 0.

    Computed by binomial thinning of law_N, which regroups the printed
    (p/(1-p))^i form into an expression that stays finite for every p.
    """
    _check_d(d)
    _check_p(p)
    return tuple(_thin(np.array(law_N(d), dtype=object), Fraction(p)))


def law_X_prime_float(d: int, p: float) -> np.ndarray:
    """Masses of X' on {0, ..., m} as floats, thinned from X's cached
    ``_masses`` table, which ends at X's last normal mass, and cut in turn
    at the last normal mass of X', so m = O(sqrt(d)) and falls with p.

    The Monte Carlo engines use this form: it costs O(L^2) float operations
    for a table of L masses, and O(L) memory, where ``law_X_prime`` costs
    O(d^2) big-rational ones, and it agrees with the exact law to about
    1e-16 in total variation.
    """
    _check_d(d)
    _check_p(p)
    return _normal_head(_thin(_masses(d, root=False), float(p)))


def law_N_prime_float(d: int, p: float) -> np.ndarray:
    """Masses of N' on {0, ..., m} as floats, thinned from N's cached
    ``_masses`` table and cut like ``law_X_prime_float``."""
    _check_d(d)
    _check_p(p)
    return _normal_head(_thin(_masses(d, root=True), float(p)))


def beta_paper(d: int, exact: bool = False) -> Fraction | float:
    """Published traversal probability (e^{d+1} Gamma(d, d+1) - Gamma(d)) / (d+1)^d.

    Equals (d-1)! (S(d, d+1) - 1) / (d+1)^d.  See ``beta_series`` for the
    first-principles contact-sequence sum; the two differ by the final term
    (d-1)!/(d+1)^d, and downstream thresholds default to this published form.
    A Fraction for d <= EXACT_LIMIT or with ``exact``.  Beyond, the float of
    ``beta_series``: the gap is below e^-d beta, far below its rounding.

    d = 1 (a path vertex of degree 2) is admitted for the hub-tree k = 2
    degenerate case; the closed form gives exactly 0 there.
    """
    _check_d(d, 1)
    if _use_exact(d, exact):
        return Fraction(_partial_exp_sum_scaled_int(d, d + 1) - math.factorial(d - 1), (d + 1) ** d)
    return beta_series(d)


def beta_series(d: int, exact: bool = False) -> Fraction | float:
    """First-principles traversal probability: sum over all d contact paths.

    P(first contact with the target on attempt i) = [(d-1)!/(d-i)!]/(d+1)^i,
    summed for i = 1..d.  Equals (d-1)! S(d, d+1) / (d+1)^d.
    """
    _check_d(d, 1)
    if _use_exact(d, exact):
        return Fraction(_partial_exp_sum_scaled_int(d, d + 1), (d + 1) ** d)
    # same series in log space: the log term walks from -log(d+1) by
    # log(d-i+1) - log(d+1) for i = 2..d
    log_d1 = math.log(d + 1)
    return math.exp(log_sum_exp_walk(-log_d1, log_ints(d - 1)[::-1] - log_d1))


def beta_value(d: int, form: str = "paper", exact: bool = False) -> Fraction | float:
    """Traversal probability in the requested form ('paper' or 'series')."""
    if form == "paper":
        return beta_paper(d, exact=exact)
    if form == "series":
        return beta_series(d, exact=exact)
    raise ValueError(f"unknown beta form {form!r}")


def beta_gap(d: int) -> Fraction | float:
    """Gap beta_series(d) - beta_paper(d) = (d-1)!/(d+1)^d: a Fraction for
    d <= EXACT_LIMIT, and beyond a float from log space."""
    _check_d(d, 1)
    if d <= EXACT_LIMIT:
        return Fraction(math.factorial(d - 1), (d + 1) ** d)
    return math.exp(math.lgamma(d) - d * math.log(d + 1))


@functools.lru_cache(maxsize=2)
def _masses(d: int, root: bool) -> np.ndarray:
    """P(V = n) for n = 0, 1, ... through the table's last normal mass, as
    one read-only float array, with V = N if ``root`` else X.

    Both come from g_n = d! / ((d-n)! (d+1)^(n+1)), a product of factors
    <= 1, so the table is stable for any d: P(X = n) = (n+1) g_n, so
    P(X = 0) = g_0 = 1/(d+1), and P(N = n) = n g_(n-1) with P(N = 0) = 0.
    Past d = 711 the true masses fall below the smallest normal float,
    tiny = e^-708.40, and the cumprod would leave fake subnormals there, so
    the table ends at its last mass >= tiny.  Only the first
    L = min(d, isqrt(1417 (d+1)) + 2) factors are built: log(1 - k/(d+1))
    <= -k/(d+1) gives log g_n <= -log(d+1) - n(n+1)/(2(d+1)), so a mass
    >= tiny needs n(n-1) < 1417 (d+1), and the table holds at most about
    37.6 sqrt(d) entries.
    """
    steps = min(d, math.isqrt(1417 * (d + 1)) + 2)
    g = np.cumprod(np.concatenate(([1.0 / (d + 1)], np.arange(d, d - steps, -1) / (d + 1))))
    n = np.arange(steps + 2.0) if root else np.arange(steps + 1.0)
    mass = n * np.concatenate(([0.0], g)) if root else (n + 1) * g
    mass = _normal_head(mass)
    mass.flags.writeable = False
    return mass


def _normal_head(mass: np.ndarray) -> np.ndarray:
    """``mass`` through its last entry >= tiny, the smallest normal float:
    past it a product of factors leaves fake subnormal masses."""
    return mass[: np.flatnonzero(mass >= np.finfo(float).tiny)[-1] + 1]


def _complement_sum(mass: np.ndarray, p: float, u: float) -> float:
    """sum_{n>=1} mass[n] (1 - (1 - p u)^n) for masses P(V=n) from n = 0,
    i.e. 1 - G_{V'}(1 - u); the exponents n are built here.

    Every term is positive and keeps full relative precision (log1p/expm1).
    The n = 0 term, always 0, is skipped: at p u = 1 it would be 0 * -inf.
    """
    log_base = math.log1p(-p * u) if p * u < 1 else -math.inf
    return -float(mass[1:].dot(np.expm1(np.arange(1.0, mass.size) * log_base)))


def _survival_root(mass: np.ndarray, p: float) -> float:
    """Largest fixed point u of H(u) = 1 - G_{V'}(1 - u) on [0, 1], for the
    masses P(V=n) from n = 0, with H the ``_complement_sum``.

    1 - u is the smallest fixed point of G_{V'}, the extinction probability.
    f(u) = H(u) - u is concave, negative above the root and zero at it, so
    secant steps on f from u = 1 and its image H(1) stay above the root and
    approach it superlinearly, where plain iteration u <- H(u) slows to the
    rate G'(1 - u), which tends to 1 near criticality.  The steps stop once
    their geometric tail step * r / (1 - r), with r the ratio of the last
    two steps, is below ``_SURVIVAL_TOL``.
    """
    u0, f0 = 1.0, _complement_sum(mass, p, 1.0) - 1.0
    u1 = 1.0 + f0
    prev_step = 0.0  # no ratio before the first secant step
    for _ in range(2, _SURVIVAL_MAX_EVALS + 1):
        f1 = _complement_sum(mass, p, u1) - u1
        if f1 >= 0.0 or f1 == f0:  # at the root to rounding
            return u1
        u2 = max(u1 - f1 * (u1 - u0) / (f1 - f0), 0.0)
        step = u1 - u2
        if step < prev_step:
            rate = step / prev_step
            if step * rate / (1.0 - rate) < _SURVIVAL_TOL:
                return u2
        u0, f0, u1, prev_step = u1, f1, u2, step
    raise NumericFault(f"fixed-point iteration did not converge in {_SURVIVAL_MAX_EVALS} steps")


def _pgf(mass: np.ndarray, p: float, s: float) -> float:
    """G_{V'}(s) = sum_n mass[n] (1 - p + p s)^n for masses P(V=n) from
    n = 0: P(V=0) plus the dot product of the rest with the powers."""
    return float(mass[0] + mass[1:].dot((s * p + 1.0 - p) ** np.arange(1.0, mass.size)))


def pgf_X_prime(d: int, p: float, s: float) -> float:
    """G_{X'}(s) = 1/(d+1) + sum_{n=1}^{d} P(X=n) (1 - p + p s)^n."""
    _check_d(d)
    _check_p(p)
    check_unit_interval("s", s)
    return _pgf(_masses(d, root=False), p, s)


def pgf_N_prime(d: int, p: float, s: float) -> float:
    """G_{N'}(s) = sum_{n=1}^{d+1} P(N=n) (1 - p + p s)^n.

    At p = 1 this is exactly the pgf of N; no separate branch is needed
    because the finite sum never divides by 1 - p.
    """
    _check_d(d)
    _check_p(p)
    check_unit_interval("s", s)
    return _pgf(_masses(d, root=True), p, s)


def cpgf_X_prime(d: int, p: float, u: float) -> float:
    """1 - G_{X'}(1 - u) = sum_{n=1}^{d} P(X=n) (1 - (1 - p u)^n).

    Near criticality the extinction probability lies within O(p - p_c) of 1,
    where G_{X'}(s) - s keeps only a few correct digits; in the survival
    variable u = 1 - s it keeps its relative precision.
    """
    _check_d(d)
    _check_p(p)
    check_unit_interval("u", u)
    return _complement_sum(_masses(d, root=False), p, u)


def cpgf_N_prime(d: int, p: float, u: float) -> float:
    """1 - G_{N'}(1 - u), the survival probability given survival root u."""
    _check_d(d)
    _check_p(p)
    check_unit_interval("u", u)
    return _complement_sum(_masses(d, root=True), p, u)

