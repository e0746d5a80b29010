import math
from fractions import Fraction

import pytest

from rumorlab import specfun
from rumorlab.specfun import (
    EXACT_LIMIT,
    ExactScalar,
    _partial_exp_sum_scaled_int,
    log_fraction,
    log_int,
    log_ints,
    log_partial_exp_sum,
    partial_exp_sum,
)

from oracles import log_partial_exp_sum_loop


def brute_partial_exp_sum(m: int, n: int) -> Fraction:
    """Independent term-by-term oracle for S(m, n)."""
    return sum(Fraction(n**i, math.factorial(i)) for i in range(m))


class TestPartialExpSum:
    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_single_term(self, n):
        assert partial_exp_sum(1, n).fraction == 1

    def test_small_values(self):
        assert partial_exp_sum(3, 4).fraction == 13
        assert partial_exp_sum(4, 5).fraction == Fraction(118, 3)

    @pytest.mark.parametrize("m,n", [(2, 3), (5, 5), (10, 11), (37, 12), (60, 61)])
    def test_matches_term_by_term_oracle(self, m, n):
        assert partial_exp_sum(m, n).fraction == brute_partial_exp_sum(m, n)

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            partial_exp_sum(0, 4)
        with pytest.raises(ValueError):
            partial_exp_sum(3, -1)

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_strictly_increasing_in_m(self, n):
        values = [partial_exp_sum(m, n).fraction for m in range(1, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_log_mode_matches_exact(self):
        # documented target: 1e-10 relative accuracy for the log fallback
        for m, n in [(50, 51), (200, 120), (300, 301)]:
            exact_log = log_fraction(partial_exp_sum(m, n, exact=True).fraction)
            assert log_partial_exp_sum(m, n) == pytest.approx(exact_log, rel=1e-12, abs=1e-12)

    def test_auto_mode_switches_at_limit(self):
        assert partial_exp_sum(EXACT_LIMIT, 10).is_exact
        assert not partial_exp_sum(EXACT_LIMIT + 1, 10).is_exact


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
            assert specfun._log_ints.cache_info().currsize <= 2


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
        got = math.lgamma(m) + partial_exp_sum(m, m + 1).log_value
        assert got == pytest.approx(log_int(_partial_exp_sum_scaled_int(m, m + 1)), rel=1e-12)


class TestRecurrenceResidual:
    @pytest.mark.parametrize("m,n", [(3, 4), (1, 5), (7, 8), (12, 0), (40, 33)])
    def test_exactly_zero(self, m, n):
        assert gamma_recurrence_residual(m, n) == 0

    def test_zero_on_small_grid(self):
        for m in range(1, 41):
            for n in range(0, 41):
                assert gamma_recurrence_residual(m, n) == 0


class TestExactScalar:
    def test_lowest_terms_and_log_consistency(self):
        v = partial_exp_sum(4, 5)
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.log_value == pytest.approx(math.log(118 / 3), rel=1e-13)

    def test_zero_has_no_log(self):
        z = ExactScalar.from_fraction(0)
        assert z.log_value is None
        assert z.as_float() == 0.0

    def test_arithmetic_exact(self):
        a = ExactScalar.from_fraction(Fraction(3, 4))
        b = ExactScalar.from_fraction(Fraction(2, 5))
        assert (a * b).fraction == Fraction(3, 10)
        assert (a / b).fraction == Fraction(15, 8)
        assert (a ** -2).fraction == Fraction(16, 9)

    def test_arithmetic_log_mode(self):
        a = ExactScalar.from_log(2.0)
        b = ExactScalar.from_fraction(Fraction(1, 2))
        assert (a * b).log_value == pytest.approx(2.0 + math.log(0.5))
        assert (a ** 3).log_value == pytest.approx(6.0)

    def test_comparisons(self):
        small = ExactScalar.from_fraction(Fraction(1, 3))
        big = ExactScalar.from_log(1.0)
        assert small < 1
        assert big > 1
        assert small < big
        assert ExactScalar.from_log(-0.1) < 1

    def test_comparisons_below_float_range(self):
        # the difference, 1e-400, underflows a float
        a = ExactScalar.from_fraction(Fraction(1, 10**400))
        b = ExactScalar.from_fraction(Fraction(2, 10**400))
        assert a < b and a <= b and b > a and not a >= b
        assert a < Fraction(2, 10**400)

    def test_as_float_overflow_falls_back_to_log(self):
        huge = ExactScalar.from_fraction(_partial_exp_sum_scaled_int(400, 401))
        assert huge.as_float() == math.inf or huge.as_float() > 1e300

    def test_gamma_args_validation(self):
        with pytest.raises(ValueError, match="m must be at least 1, got 0"):
            partial_exp_sum(0, 3)
        with pytest.raises(ValueError, match="n must be at least 0, got -1"):
            partial_exp_sum(2, -1)
