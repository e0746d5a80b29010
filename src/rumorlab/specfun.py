"""Partial exponential sums and the integer-argument incomplete gamma function.

For integer arguments the incomplete gamma function factors as
``Gamma(m, n) = (m-1)! * exp(-n) * S(m, n)`` with ``S(m, n) = sum_{i<m} n^i/i!``.
Everything downstream (offspring means, critical thresholds, traversal
probabilities) consumes the *scaled* value ``exp(n) * Gamma(m, n)``, which is
rational, so this module works with exact rationals whenever feasible and
falls back to log-space floats for large arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import check_at_least

#: largest first argument with exact rationals by default; beyond it, log-space
#: floats unless ``exact`` asks for rationals
EXACT_LIMIT = 500

_LN2 = math.log(2.0)


def log_int(n: int) -> float:
    """Natural log of a positive integer, safe for arbitrarily large values."""
    if n <= 0:
        raise ValueError("log_int requires a positive integer")
    shift = max(n.bit_length() - 64, 0)
    return math.log(n >> shift) + shift * _LN2


def log_fraction(value: Fraction) -> float:
    """Natural log of a positive rational."""
    if value <= 0:
        raise ValueError("log_fraction requires a positive value")
    return log_int(value.numerator) - log_int(value.denominator)


@dataclass(frozen=True)
class ExactScalar:
    """A scalar carried as an exact rational, a log-space float, or both.

    ``fraction`` is the exact value when representable; ``log_value`` is its
    natural log when the value is positive.  Large-argument code paths drop
    the rational and keep only ``log_value``.
    """

    fraction: Fraction | None
    log_value: float | None

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "ExactScalar":
        fr = Fraction(value)
        log_value = log_fraction(fr) if fr > 0 else None
        return cls(fr, log_value)

    @classmethod
    def from_log(cls, log_value: float) -> "ExactScalar":
        return cls(None, float(log_value))

    @property
    def is_exact(self) -> bool:
        return self.fraction is not None

    @property
    def numerator(self) -> int:
        if self.fraction is None:
            raise ValueError("value is not held exactly")
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        if self.fraction is None:
            raise ValueError("value is not held exactly")
        return self.fraction.denominator

    def as_float(self) -> float:
        if self.fraction is not None:
            try:
                return float(self.fraction)
            except OverflowError:
                pass
        if self.log_value is not None:
            try:
                return math.exp(self.log_value)
            except OverflowError:
                return math.inf
        return 0.0 if self.fraction == 0 else float(self.fraction)  # pragma: no cover

    def __float__(self) -> float:
        return self.as_float()

    def _require_positive(self) -> float:
        if self.log_value is None:
            raise ValueError("operation requires a positive value")
        return self.log_value

    def __mul__(self, other: "ExactScalar | int | Fraction") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            other = ExactScalar.from_fraction(Fraction(other))
        if self.fraction is not None and other.fraction is not None:
            return ExactScalar.from_fraction(self.fraction * other.fraction)
        if self.fraction == 0 or other.fraction == 0:
            return ExactScalar.from_fraction(0)
        return ExactScalar.from_log(self._require_positive() + other._require_positive())

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactScalar | int | Fraction") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            other = ExactScalar.from_fraction(Fraction(other))
        if self.fraction is not None and other.fraction is not None:
            return ExactScalar.from_fraction(self.fraction / other.fraction)
        if self.fraction == 0:
            other._require_positive()
            return ExactScalar.from_fraction(0)
        return ExactScalar.from_log(self._require_positive() - other._require_positive())

    def __pow__(self, exponent: int) -> "ExactScalar":
        if self.fraction is not None:
            return ExactScalar.from_fraction(self.fraction ** exponent)
        return ExactScalar.from_log(self._require_positive() * exponent)

    def _cmp_key(self, other) -> tuple[Fraction, Fraction] | tuple[float, float]:
        """Comparable pair (self, other): both exact, or both logs."""
        if isinstance(other, ExactScalar):
            if self.fraction is not None and other.fraction is not None:
                return self.fraction, other.fraction
            return self._require_positive(), other._require_positive()
        other = Fraction(other)
        if self.fraction is not None:
            return self.fraction, other
        if other <= 0:
            return 1.0, 0.0  # log-mode values are positive
        return self._require_positive(), log_fraction(other)

    def __lt__(self, other) -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other) -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other) -> bool:
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other) -> bool:
        a, b = self._cmp_key(other)
        return a >= b

    def __repr__(self) -> str:  # pragma: no cover
        if self.fraction is not None:
            return f"ExactScalar({self.fraction})"
        return f"ExactScalar(log={self.log_value!r})"


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


def partial_exp_sum(m: int, n: int, exact: bool = False) -> ExactScalar:
    """``S(m, n) = sum_{i=0}^{m-1} n^i / i!`` as an ExactScalar.

    Exact rational for ``m <= EXACT_LIMIT`` or with ``exact``, log-space float
    otherwise.
    """
    check_at_least("m", m, 1)
    check_at_least("n", n, 0)
    if _use_exact(m, exact):
        scaled = _partial_exp_sum_scaled_int(m, n)
        return ExactScalar.from_fraction(Fraction(scaled, math.factorial(m - 1)))
    return ExactScalar.from_log(log_partial_exp_sum(m, n))
