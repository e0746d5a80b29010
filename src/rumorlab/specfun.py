"""Partial exponential sums and the integer-argument incomplete gamma function.

For integer arguments the incomplete gamma function factors as
``Gamma(m, n) = (m-1)! * exp(-n) * S(m, n)`` with ``S(m, n) = sum_{i<m} n^i/i!``.
Everything downstream (offspring means, critical thresholds, traversal
probabilities) consumes the *scaled* value ``exp(n) * Gamma(m, n)``.  This
module gives it as the exact integer ``(m-1)! * S(m, n)``, and ``log S(m, n)``
in log-space floats for the large arguments past ``EXACT_LIMIT``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: largest first argument with exact rationals by default; beyond it, log-space
#: floats unless ``exact`` asks for rationals
EXACT_LIMIT = 500


def _use_exact(m: int, exact: bool) -> bool:
    """Exact rationals when asked for, or when ``m <= EXACT_LIMIT``."""
    return exact or m <= EXACT_LIMIT


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
    of two, and only the two latest are kept.
    """
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
