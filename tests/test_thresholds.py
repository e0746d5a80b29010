import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from rumorlab import laws, thresholds
from rumorlab.errors import NumericFault
from rumorlab.laws import cpgf_N_prime, law_X_prime, law_X_prime_float, mean_X, pgf_N_prime
from rumorlab.gw import extinction_by_iteration
from rumorlab.thresholds import (
    alpha_critical,
    asymptotic_h_bound,
    is_subcritical,
    max_h,
    p_critical,
    pc_asymptotic,
    psi_root,
    theta,
    theta_double_sum,
)

from oracles import mean_X_term_sum

F = Fraction

# 4-decimal reference values for p_c(d), d = 3..11 (truncated, matching the
# exact fractions below)
PC_TABLE = ["0.8205", "0.6620", "0.5634", "0.4955", "0.4454", "0.4067", "0.3759", "0.3505", "0.3293"]

# smallest pgf fixed point at d = 3, p = 1, frozen from iterating
# s <- sum_i P(X=i) s^i from 0 until the step vanished
PSI_3_1 = 0.5819888974715749
THETA_3_1 = 0.6612889232198165


def truncate4(x: float) -> str:
    return f"{math.floor(x * 10000) / 10000:.4f}"


class TestPCritical:
    def test_exact_fractions(self):
        assert p_critical(3) == F(32, 39)
        assert p_critical(4) == F(625, 944)
        assert p_critical(11) == F(35831808, 108788009)

    def test_reference_table(self):
        got = [truncate4(float(p_critical(d))) for d in range(3, 12)]
        assert got == PC_TABLE

    def test_d2_infeasible(self):
        pc = p_critical(2)
        assert pc == F(9, 8)
        assert not pc < 1

    @pytest.mark.parametrize("d", [3, 7, 30])
    def test_asymptotic_field(self, d):
        assert pc_asymptotic(d) == pytest.approx(math.sqrt(2 / (math.pi * d)))

    def test_float_agrees_with_exact(self):
        for d in (3, 20, 100):
            pc = p_critical(d)
            assert isinstance(pc, F) and float(pc) == pytest.approx(1 / float(mean_X(d)), rel=1e-12)

    @pytest.mark.parametrize("d", [41, 100, 257, 499, 500])
    def test_exact_range_matches_term_sum(self, d):
        reference = 1 / mean_X_term_sum(d)
        pc = p_critical(d)
        assert isinstance(pc, F) and pc == reference
        assert math.gcd(pc.numerator, pc.denominator) == 1
        assert float(pc) == float(reference)
        assert pc < 1

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            p_critical(1)

    def test_log_mode_p_critical_1000_is_pinned(self):
        # perfbench/run.py checks pc-table's p_c(1000) against this constant at
        # rel_tol 1e-12.  It carries the log-mode rounding: the 50-digit value
        # 0.0260939749000265767 lies 1.02e-12 relative above it, so a more
        # accurate log-mode formula would fail that check.
        assert p_critical(1000) == 0.026093974900000025

    def test_log_mode_large_d(self):
        pc = p_critical(10**4)
        assert isinstance(pc, float)
        assert 0 < pc < 0.01


class TestPsiRoot:
    def test_subcritical_returns_one(self):
        root = psi_root(3, 0.5)
        assert root.psi == 1.0
        assert root.residual == 0.0

    def test_supercritical_fixed_point(self):
        root = psi_root(3, 1.0)
        assert root.psi == pytest.approx(PSI_3_1, abs=1e-10)
        assert root.residual <= 1e-10
        assert root.iterations > 0

    def test_carries_survival_root(self):
        for d, p in [(3, 1.0), (10, 0.3509), (4, 0.5)]:
            root = psi_root(d, p)
            assert root.psi == 1.0 - root.u
        assert psi_root(4, 0.5).u == 0.0

    def test_exactly_critical_p(self):
        # p = p_c as an exact rational: the process is critical, psi = 1
        pc = p_critical(3)
        assert psi_root(3, pc).psi == 1.0

    def test_agrees_with_pmf_iteration(self):
        for d, p in [(3, 1.0), (4, 0.9), (6, 0.55), (10, 0.5)]:
            psi = psi_root(d, p).psi
            oracle = extinction_by_iteration(law_X_prime(d, p))
            assert abs(psi - oracle) <= 1e-10

    @pytest.mark.parametrize("d", [10, 100, 1000])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_just_above_critical(self, d, k):
        p = float(p_critical(d)) * (1 + 10.0 ** -k)
        assert theta(d, p) > 0.0
        law = law_X_prime_float(d, p)
        assert abs(psi_root(d, p).psi - extinction_by_iteration(law)) <= 1e-10

    def test_peak_memory_is_sublinear_in_d(self):
        # d = 10^7 tables of all d + 1 masses would take 80 MB each; the
        # normal prefix holds about 1.2e5.  p is 1.5 times p_c's asymptote
        # sqrt(2/(pi d)), 0.034% below 1.5 p_c, so no log-mode table is built
        d = 10**7
        p = 1.5 * math.sqrt(2.0 / (math.pi * d))
        laws._masses.cache_clear()
        tracemalloc.start()
        try:
            root = psi_root(d, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < root.u < 1.0
        assert peak < 16 * 2**20

    def test_root_closer_to_one_than_old_bracket(self):
        # 1 - psi is about 2e-10 here, inside the former bracket end 1 - 1e-9
        p = float(p_critical(10)) * (1 + 1e-10)
        assert 0.0 < 1.0 - psi_root(10, p).psi < 1e-9

    def test_cli_example_just_above_critical(self):
        assert psi_root(10, 0.3509).psi == pytest.approx(0.99830229189, abs=1e-10)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(thresholds, "_NEWTON_MAX_STEPS", 2)
        with pytest.raises(NumericFault):
            psi_root(3, 1.0)


class TestTheta:
    def test_subcritical_is_exactly_zero(self):
        assert theta(4, 0.5) == 0.0
        assert theta(3, 0.8) == 0.0  # 0.8 < 32/39

    def test_value_at_p_one(self):
        assert theta(3, 1.0) == pytest.approx(THETA_3_1, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 6, 9])
    def test_double_sum_agrees(self, d):
        for p in (0.5, 0.7, 0.9, 0.99, 0.999):
            assert theta_double_sum(d, p) == pytest.approx(theta(d, p), abs=1e-10)

    @pytest.mark.parametrize("d", [180, 500])
    def test_double_sum_large_d(self, d):
        for p in (0.3, 0.9):
            psi = psi_root(d, p).psi
            assert theta_double_sum(d, p) == pytest.approx(1.0 - pgf_N_prime(d, p, psi), abs=1e-10)

    def test_positive_iff_supercritical(self):
        for d in (3, 5, 8):
            pc = p_critical(d)
            for ip in range(1, 101):
                p = ip / 100
                if F(p) <= pc:
                    assert theta(d, p) == 0.0
                else:
                    assert theta(d, p) > 0.0

    @pytest.mark.parametrize("d", range(3, 51))
    def test_positive_at_p_one(self, d):
        assert theta(d, 1.0) > 0.0

    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_nondecreasing_in_p(self, d):
        values = [theta(d, ip / 100) for ip in range(1, 101)]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
    def test_relative_precision_just_above_critical(self, eps):
        # theta is O(p - p_c) here; compare with 60-digit arithmetic at the
        # same binary p, solving u = 1 - G_X'(1 - u) by Newton from psi_root
        d = 1000
        p = float(p_critical(d)) * (1 + eps)
        with mpmath.workdps(60):
            pm = mpmath.mpf(p)
            g = [mpmath.mpf(1) / (d + 1)]  # g_n = d! / ((d-n)! (d+1)^(n+1))
            for n in range(1, d + 1):
                g.append(g[-1] * (d - n + 1) / (d + 1))

            def survival(u, masses):
                return mpmath.fsum(m * (1 - (1 - pm * u) ** n) for n, m in masses)

            x_masses = [(n, (n + 1) * g[n]) for n in range(1, d + 1)]
            n_masses = [(n, n * g[n - 1]) for n in range(1, d + 2)]
            u = mpmath.findroot(lambda v: survival(v, x_masses) - v, mpmath.mpf(psi_root(d, p).u))
            reference = survival(u, n_masses)
            assert abs(theta(d, p) - reference) <= 1e-9 * reference


def just_above_critical(d, k):
    return float(p_critical(d)) * (1 + 10.0 ** -k)


class TestNearCriticalProperties:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(d=st.integers(3, 10_000), k1=st.integers(1, 8), k2=st.integers(1, 8))
    @example(d=10_000, k1=8, k2=7)
    def test_theta_nondecreasing_in_p(self, d, k1, k2):
        p_lo, p_hi = sorted((just_above_critical(d, k1), just_above_critical(d, k2)))
        assert 0.0 < theta(d, p_lo) <= theta(d, p_hi)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(d=st.integers(3, 10_000), k=st.integers(1, 10), far=st.floats(0.0, 1.0))
    @example(d=10_000, k=10, far=0.0)
    @example(d=10_000, k=1, far=1.0)
    def test_newton_iterates_rise(self, d, k, far):
        # each Newton step evaluates C at the current iterate, starting at 0
        iterates = []

        def recording(law, p, u):
            iterates.append(u)
            return complement_sum(law, p, u)

        complement_sum = thresholds._complement_sum
        p_near = just_above_critical(d, k)
        with mock.patch.object(thresholds, "_complement_sum", recording):
            root = psi_root(d, p_near + far * (1.0 - p_near))
        assert iterates[0] == 0.0 and len(iterates) == root.iterations <= 20
        assert all(a <= b for a, b in zip(iterates, iterates[1:]))
        assert iterates[-1] <= root.u

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(d=st.integers(3, 10_000), k=st.integers(1, 10))
    def test_theta_is_complement_at_the_root(self, d, k):
        p = just_above_critical(d, k)
        assert theta(d, p) == cpgf_N_prime(d, p, psi_root(d, p).u)

    # law_X_prime_float takes O(d^2) time, so d stays at or below 1000
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(d=st.integers(3, 1000), k=st.integers(1, 8))
    def test_psi_root_agrees_with_iteration(self, d, k):
        p = just_above_critical(d, k)
        law = law_X_prime_float(d, p)
        assert abs(psi_root(d, p).psi - extinction_by_iteration(law)) <= 1e-10


class TestAlphaCritical:
    @pytest.mark.parametrize("d,k", [(5, 3), (10, 4), (50, 6)])
    def test_h_one_equals_p_critical(self, d, k):
        assert alpha_critical(d, k, 1) == p_critical(d)

    def test_infeasible_example(self):
        alpha_c = alpha_critical(5, 3, 2)
        assert alpha_c == 3 * F(324, 575)
        assert float(alpha_c) == pytest.approx(1.690435, abs=1e-5)
        assert not alpha_c < 1

    def test_large_d_feasibility_boundary(self):
        assert alpha_critical(1000, 10, 3) < 1
        assert not alpha_critical(1000, 10, 4) < 1

    def test_k2_paper_form_is_infinite_beyond_h1(self):
        alpha_c = alpha_critical(5, 2, 2)
        assert alpha_c == math.inf and isinstance(alpha_c, float)
        assert not alpha_c < 1

    def test_series_form_differs(self):
        paper = alpha_critical(50, 4, 2, beta_form="paper")
        series = alpha_critical(50, 4, 2, beta_form="series")
        # series beta is larger, so its threshold is smaller
        assert series < paper

    def test_value_is_exact_only_when_both_factors_are(self):
        # p_c(d) and beta(k - 1) are Fractions up to EXACT_LIMIT = 500
        assert isinstance(alpha_critical(500, 10, 3), F)
        assert isinstance(alpha_critical(501, 10, 3), float)
        assert isinstance(alpha_critical(1000, 600, 2), float)
        exact = alpha_critical(1000, 600, 2, exact=True)
        assert isinstance(exact, F)
        assert alpha_critical(1000, 600, 2) == pytest.approx(float(exact), rel=1e-11)

    @pytest.mark.parametrize("d,k,h", [(50, 4, 1000), (1000, 10, 1000), (1000, 600, 2000)])
    def test_beyond_float_range_is_inf(self, d, k, h):
        # an exact product past the float range keeps its Fraction, which the
        # CLI prints as inf; a float one is inf
        alpha_c = alpha_critical(d, k, h)
        assert not alpha_c < 1
        if d <= laws.EXACT_LIMIT:
            assert isinstance(alpha_c, F) and alpha_c > 2**1024
        else:
            assert alpha_c == math.inf

    def test_warns_when_k_not_below_d(self):
        with pytest.warns(UserWarning):
            alpha_critical(5, 5, 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_critical(2, 3, 1)
        with pytest.raises(ValueError):
            alpha_critical(5, 1, 1)
        with pytest.raises(ValueError):
            alpha_critical(5, 3, 0)


class TestMaxH:
    def test_examples(self):
        assert max_h(5, 3) == 1
        assert max_h(3, 2) == 1  # paper-form beta(1) = 0: only h = 1 works
        assert max_h(1000, 10) == 3

    def test_consistency_with_alpha_critical(self):
        import random

        rng = random.Random(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(50):
                d = rng.randint(5, 200)
                k = rng.randint(3, min(d - 1, 40))
                hm = max_h(d, k)
                assert hm >= 1
                assert alpha_critical(d, k, hm) < 1
                assert not alpha_critical(d, k, hm + 1) < 1

    def test_warns_when_k_not_below_d(self):
        # the warning names this file's line, as alpha_critical's does
        with pytest.warns(UserWarning, match="max_h assumes k < d") as record:
            max_h(5, 5)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("beta_form", ["paper", "series"])
    def test_grows_like_log_d_over_log_log_d(self, beta_form):
        # the abstract's h_max = Theta(log d / log log d) at k = ceil(ln d)
        ds = [10**e for e in range(2, 7)]
        hs = [max_h(d, math.ceil(math.log(d)), beta_form=beta_form) for d in ds]
        assert hs == [3, 4, 4, 5, 6]
        ratios = [h / (math.log(d) / math.log(math.log(d))) for d, h in zip(ds, hs)]
        assert all(0.95 <= r <= 1.15 for r in ratios), ratios

    def test_series_form(self):
        hm = max_h(50, 2, beta_form="series")
        assert alpha_critical(50, 2, hm, beta_form="series") < 1
        assert not alpha_critical(50, 2, hm + 1, beta_form="series") < 1


class TestAsymptoticHBound:
    def test_value(self):
        assert asymptotic_h_bound(10**6, 14) == pytest.approx(math.log(10**6) / math.log(14))

    def test_monotone_in_d(self):
        values = [asymptotic_h_bound(d, 5) for d in (10, 100, 1000, 10**4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_k_one(self):
        with pytest.raises(ValueError):
            asymptotic_h_bound(100, 1)


class TestSubcriticalPredicate:
    def test_exact_boundary(self):
        pc = p_critical(3)
        assert is_subcritical(3, pc)
        assert not is_subcritical(3, pc + F(1, 10**9))

    def test_log_mode(self):
        assert is_subcritical(10**3, 0.001)
        assert not is_subcritical(10**3, 0.9)

    @pytest.mark.parametrize("d", list(range(3, 61)) + [500, 501, 1000, 3000])
    def test_matches_exact_comparison_around_p_c(self, d):
        mean = mean_X(d, exact=True)
        pc = 1 / mean
        below = math.nextafter(float(pc), 0.0)
        above = math.nextafter(below, 1.0)
        if above <= pc:
            below, above = above, math.nextafter(above, 1.0)
        for p in (below, above, pc):
            assert is_subcritical(d, p) == (F(p) * mean <= 1)
        assert is_subcritical(d, below) and not is_subcritical(d, above)
        assert theta(d, pc) == 0.0 and psi_root(d, pc).psi == 1.0
        assert theta(d, above) > 0.0
