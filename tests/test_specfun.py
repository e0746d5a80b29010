import math
from fractions import Fraction

import pytest

from rumorlab import laws
from rumorlab.laws import (
    EXACT_LIMIT,
    _partial_exp_sum_scaled_int,
    beta_paper,
    beta_series,
    log_ints,
    log_partial_exp_sum,
    mean_X,
)

from oracles import log_partial_exp_sum_loop


def brute_partial_exp_sum(m: int, n: int) -> Fraction:
    """Independent term-by-term oracle for S(m, n)."""
    return sum(Fraction(n**i, math.factorial(i)) for i in range(m))


def exact_partial_exp_sum(m: int, n: int) -> Fraction:
    """S(m, n) from the library's integer (m-1)! S(m, n)."""
    return Fraction(_partial_exp_sum_scaled_int(m, n), math.factorial(m - 1))


class TestPartialExpSum:
    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_single_term(self, n):
        assert exact_partial_exp_sum(1, n) == 1

    def test_small_values(self):
        assert exact_partial_exp_sum(3, 4) == 13
        assert exact_partial_exp_sum(4, 5) == Fraction(118, 3)

    @pytest.mark.parametrize("m,n", [(2, 3), (5, 5), (10, 11), (37, 12), (60, 61)])
    def test_matches_term_by_term_oracle(self, m, n):
        assert exact_partial_exp_sum(m, n) == brute_partial_exp_sum(m, n)

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_strictly_increasing_in_m(self, n):
        values = [exact_partial_exp_sum(m, n) for m in range(1, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_log_mode_matches_exact(self):
        # documented target: 1e-10 relative accuracy for the log fallback
        for m, n in [(50, 51), (200, 120), (300, 301)]:
            exact = exact_partial_exp_sum(m, n)
            exact_log = math.log(exact.numerator) - math.log(exact.denominator)
            assert log_partial_exp_sum(m, n) == pytest.approx(exact_log, rel=1e-12, abs=1e-12)

    def test_auto_mode_switches_at_limit(self):
        # the laws built on S(d, d+1) are Fractions up to EXACT_LIMIT and floats past it
        for law in (mean_X, beta_paper, beta_series):
            assert isinstance(law(EXACT_LIMIT), Fraction)
            assert isinstance(law(EXACT_LIMIT + 1), float)
            assert isinstance(law(EXACT_LIMIT + 1, exact=True), Fraction)


class TestLogModeBitIdentity:
    # the array kernel must return the scalar loop's bits: the benchmark pins
    # log-mode p_c(1000) to the loop's rounding (see test_thresholds.py)
    def test_m_m_plus_1(self):
        got = [log_partial_exp_sum(m, m + 1) for m in range(1, 3001)]
        assert got == [log_partial_exp_sum_loop(m, m + 1) for m in range(1, 3001)]

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 60, 499, 500, 501, 1000, 2999])
    def test_general_arguments(self, m):
        for n in (0, 1, 2, 3, m // 2, m - 1, m, m + 1, 3 * m, 10**4):
            assert log_partial_exp_sum(m, n) == log_partial_exp_sum_loop(m, n)

    def test_log_ints_are_math_log(self):
        # numpy's vectorised log differs from math.log at i = 9170 on some hosts
        logs = log_ints(20_000)
        assert logs.tolist() == [math.log(i) for i in range(1, 20_001)]
        assert log_ints(0).size == 0 and log_ints(5).tolist() == logs[:5].tolist()
        with pytest.raises(ValueError):
            logs[0] = 0.0

    def test_log_table_cache_is_bounded(self):
        # a table of 2^20 floats outlives p_critical(10^6) only until newer ones push it out
        for n in (3000, 70_000, 600_000, 20_000):
            assert log_ints(n).tolist() == [math.log(i) for i in range(1, n + 1)]
            assert laws._log_ints.cache_info().currsize <= 2


def gamma_recurrence_residual(m: int, n: int) -> int:
    """Gamma(m+1, n) - m Gamma(m, n) - n^m e^(-n), scaled by e^n: exactly 0."""
    return _partial_exp_sum_scaled_int(m + 1, n) - m * _partial_exp_sum_scaled_int(m, n) - n**m


class TestScaledIncompleteGamma:
    # e^n Gamma(m, n) = (m-1)! S(m, n), the integer behind every exact threshold
    def test_examples(self):
        assert _partial_exp_sum_scaled_int(3, 4) == 26
        assert _partial_exp_sum_scaled_int(1, 9) == 1
        assert _partial_exp_sum_scaled_int(4, 5) == 236

    def test_is_factorial_times_sum(self):
        for m, n in [(2, 2), (6, 7), (19, 20)]:
            expected = math.factorial(m - 1) * brute_partial_exp_sum(m, n)
            assert _partial_exp_sum_scaled_int(m, n) == expected

    def test_log_mode(self):
        # past EXACT_LIMIT, lgamma(m) + log S(m, n) is the log of the same integer
        m = 2 * EXACT_LIMIT
        got = math.lgamma(m) + log_partial_exp_sum(m, m + 1)
        assert got == pytest.approx(math.log(_partial_exp_sum_scaled_int(m, m + 1)), rel=1e-12)


class TestRecurrenceResidual:
    @pytest.mark.parametrize("m,n", [(3, 4), (1, 5), (7, 8), (12, 0), (40, 33)])
    def test_exactly_zero(self, m, n):
        assert gamma_recurrence_residual(m, n) == 0

    def test_zero_on_small_grid(self):
        for m in range(1, 41):
            for n in range(0, 41):
                assert gamma_recurrence_residual(m, n) == 0
