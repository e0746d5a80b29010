import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rumorlab import laws
from rumorlab.laws import (
    beta_gap,
    beta_paper,
    beta_series,
    beta_value,
    cpgf_N_prime,
    cpgf_X_prime,
    law_N,
    law_N_prime,
    law_N_prime_float,
    law_X,
    law_X_prime,
    law_X_prime_float,
    mean_N,
    mean_X,
    pgf_N_prime,
    pgf_X_prime,
    tv_distance,
)

from oracles import (
    beta_series_log_loop,
    complement_sum_loop,
    enumerate_traversal_probability,
    law_N_prime_printed,
    mean_X_term_sum,
    pmf_pgf,
    thinned_binomial_sum,
)

F = Fraction


class TestLawX:
    def test_d3(self):
        assert law_X(3) == (F(1, 4), F(3, 8), F(9, 32), F(3, 32))

    def test_d2(self):
        assert law_X(2) == (F(1, 3), F(4, 9), F(2, 9))

    @pytest.mark.parametrize("d", [2, 3, 7, 20])
    def test_top_mass(self, d):
        assert law_X(d)[d] == F(math.factorial(d), (d + 1) ** d)

    @pytest.mark.parametrize("d", [2, 3, 10, 50, 100])
    def test_sums_to_one_exactly(self, d):
        assert sum(law_X(d)) == 1

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            law_X(1)


class TestMeanX:
    def test_exact_values(self):
        assert mean_X(3) == F(78, 64)
        assert mean_X(2) == F(8, 9)
        assert mean_X(4) == F(944, 625)

    @pytest.mark.parametrize("d", [2, 3, 5, 12, 40])
    def test_equals_first_moment_of_law(self, d):
        assert mean_X(d) == sum(n * q for n, q in enumerate(law_X(d)))

    def test_supercritical_iff_d_at_least_3(self):
        for d in range(2, 101):
            assert (mean_X(d) > 1) == (d >= 3)


#: spread over the exact range d <= EXACT_LIMIT = 500, up to its last value
EXACT_RANGE_DS = [41, 100, 257, 499, 500]


class TestExactRange:
    @pytest.mark.parametrize("d", EXACT_RANGE_DS)
    def test_mean_matches_term_sum(self, d):
        mean = mean_X_term_sum(d)
        for got in (mean_X(d), mean_X(d, exact=True)):
            assert isinstance(got, F) and got == mean
            assert math.gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize("d", EXACT_RANGE_DS)
    def test_both_betas_match_term_sum(self, d):
        series = mean_X_term_sum(d) / d
        assert beta_series(d) == series
        assert beta_paper(d) == series - beta_gap(d)
        for got in (beta_series(d), beta_paper(d)):
            assert isinstance(got, F)
            assert math.gcd(got.numerator, got.denominator) == 1


class TestMeanExcess:
    @pytest.mark.parametrize("d", list(range(2, 61)) + [100, 500, 1000, 3000])
    def test_correctly_rounded(self, d):
        mean = mean_X(d, exact=True)
        pc = float(1 / mean)
        points = [pc * (1 + e) for e in (1e-10, -1e-10, 1e-3, -1e-3)]
        for p in points + [0.3, 0.9, 1.0, F(1, 3)]:
            if p <= 1:
                assert laws._mean_excess(d, p) == float(F(p) * mean - 1), p

    @pytest.mark.parametrize("d", [3, 10, 500, 501])
    def test_exactly_critical_is_zero(self, d):
        assert laws._mean_excess(d, 1 / mean_X(d, exact=True)) == 0.0

    def test_within_one_ulp_of_mpmath_at_large_d(self):
        import mpmath

        d = 10**5
        with mpmath.workdps(60):
            term, total = mpmath.mpf(d) / (d + 1), mpmath.mpf(0)
            for i in range(d - 1, -1, -1):
                total += term
                term = term * i / (d + 1)
                if term < mpmath.mpf(10) ** -70:
                    break
            pc = 0.00253163462228  # p_c(10^5) to 12 digits
            for p in (0.9, pc * (1 + 1e-6), pc * (1 - 1e-6), pc * (1 + 1e-10)):
                reference = float(mpmath.mpf(p) * total - 1)
                assert abs(laws._mean_excess(d, p) - reference) <= math.ulp(reference)


class TestBeta:
    def test_paper_values(self):
        assert beta_paper(3) == F(24, 64)
        assert beta_paper(2) == F(1, 3)
        assert beta_paper(1) == 0

    def test_series_values(self):
        assert beta_series(2) == F(4, 9)
        assert beta_series(3) == F(26, 64)
        assert beta_series(1) == F(1, 2)

    @pytest.mark.parametrize("d", range(2, 30))
    def test_gap_identity(self, d):
        # the series keeps the final contact path that the closed form drops
        gap = beta_series(d) - beta_paper(d)
        assert gap == F(math.factorial(d - 1), (d + 1) ** d)
        assert gap == beta_gap(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_series_matches_exhaustive_enumeration(self, d):
        assert beta_series(d) == enumerate_traversal_probability(d)

    def test_series_closed_form_identity(self):
        for d in (2, 5, 17):
            s = sum(F((d + 1) ** i, math.factorial(i)) for i in range(d))  # S(d, d+1)
            assert beta_series(d) == math.factorial(d - 1) * s / (d + 1) ** d

    def test_log_mode_matches_exact(self):
        # log mode serves d > EXACT_LIMIT = 500 only
        for d in (501, 1000):
            for fn in (beta_paper, beta_series):
                exact = fn(d, exact=True)
                logged = fn(d)
                assert isinstance(exact, F) and isinstance(logged, float)
                assert logged == pytest.approx(float(exact), rel=1e-10)

    def test_log_mode_series_is_bit_identical_to_scalar_loop(self):
        got = [beta_series(d) for d in range(501, 3001)]
        assert got == [math.exp(beta_series_log_loop(d)) for d in range(501, 3001)]

    def test_log_mode_paper_form_is_the_series_walk(self):
        # the forms differ by (d-1)!/(d+1)^d < e^-d beta, below any rounding
        for d in [*range(501, 1201), 2000, 5000, 10**4]:
            assert beta_paper(d) == beta_series(d)
            assert beta_paper(d) == pytest.approx(float(beta_paper(d, exact=True)), rel=2e-13)

    def test_form_selector(self):
        assert beta_value(3, "paper") == F(24, 64)
        assert beta_value(3, "series") == F(26, 64)
        with pytest.raises(ValueError):
            beta_value(3, "closed")

    def test_large_d_scaling(self):
        # beta(d) * sqrt(2 d / pi) -> 1 from below
        d = 10**4
        ratio = beta_paper(d) * math.sqrt(2 * d / math.pi)
        assert abs(ratio - 1) < 0.02


class TestPgfXPrime:
    @pytest.mark.parametrize("d,p", [(3, 1.0), (2, 0.5), (10, 0.25), (150, 0.8)])
    def test_normalized_at_one(self, d, p):
        assert pgf_X_prime(d, p, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_collapses_to_constant_at_zero(self):
        assert pgf_X_prime(3, 1.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_derivative_at_one_is_mean(self):
        h = 1e-6
        quotient = (pgf_X_prime(3, 1.0, 1.0) - pgf_X_prime(3, 1.0, 1.0 - h)) / h
        assert quotient == pytest.approx(1.21875, abs=1e-4)

    @pytest.mark.parametrize("d,p", [(3, 1.0), (4, 0.9), (6, 0.4)])
    def test_matches_pmf_reconstruction(self, d, p):
        pmf = law_X_prime(d, p)
        for j in range(20):
            s = j / 19
            assert pgf_X_prime(d, p, s) == pytest.approx(pmf_pgf(pmf, s), abs=1e-12)

    @pytest.mark.parametrize("d,p", [(3, 1.0), (5, 0.6)])
    def test_convex_and_nondecreasing(self, d, p):
        grid = [pgf_X_prime(d, p, i / 99) for i in range(100)]
        first = [b - a for a, b in zip(grid, grid[1:])]
        second = [b - a for a, b in zip(first, first[1:])]
        assert all(x >= -1e-12 for x in first)
        assert all(x >= -1e-12 for x in second)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            pgf_X_prime(3, 1.0, 1.5)
        with pytest.raises(ValueError):
            pgf_X_prime(3, 0.0, 0.5)


class TestCpgfXPrime:
    @pytest.mark.parametrize("d,p", [(3, 1.0), (4, 0.9), (10, 0.25), (150, 0.8)])
    def test_is_complement_of_pgf(self, d, p):
        for j in range(20):
            u = j / 19
            assert cpgf_X_prime(d, p, u) == pytest.approx(1.0 - pgf_X_prime(d, p, 1.0 - u), abs=1e-14)

    def test_relative_precision_at_small_u(self):
        # 1 - G(1 - u) = E(X') u + O(u^2), with E(X') = p E(X) = 0.9 * 1.5104 at d = 4
        u = 1e-12
        assert cpgf_X_prime(4, 0.9, u) / u == pytest.approx(0.9 * 1.5104, rel=1e-10)


class TestComplementSumOrder:
    # every term is positive, so summing in another order moves the result by
    # at most about d roundings
    @pytest.mark.parametrize("d", [2, 3, 10, 150, 1000, 3000])
    def test_matches_scalar_loop(self, d):
        for p in (0.05, 0.5, 1.0):
            for u in (0.0, 1e-12, 1e-6, 0.3, 1.0):
                for root, cpgf in ((False, cpgf_X_prime), (True, cpgf_N_prime)):
                    expected = complement_sum_loop(d, p, u, root)
                    assert cpgf(d, p, u) == pytest.approx(expected, rel=2 * d * 2.0**-52, abs=0.0)


class TestCpgfNPrime:
    @pytest.mark.parametrize("d,p", [(2, 0.5), (3, 1.0), (10, 0.25), (150, 0.8)])
    def test_is_complement_of_pgf(self, d, p):
        for j in range(20):
            u = j / 19
            assert cpgf_N_prime(d, p, u) == pytest.approx(1.0 - pgf_N_prime(d, p, 1.0 - u), abs=1e-14)

    def test_relative_precision_at_small_u(self):
        # 1 - G_{N'}(1 - u) = p E(N) u + O(u^2)
        u = 1e-12
        assert cpgf_N_prime(4, 0.9, u) / u == pytest.approx(0.9 * float(mean_N(4)), rel=1e-10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            cpgf_N_prime(1, 0.5, 0.5)
        with pytest.raises(ValueError):
            cpgf_N_prime(3, 0.0, 0.5)
        with pytest.raises(ValueError):
            cpgf_N_prime(3, 0.5, 1.5)


class TestMassLadderCache:
    def test_keeps_only_the_two_ladders_of_one_d(self):
        # a table ends at its last normal mass: at d = 10^5 it holds about
        # 11,650 floats (93 KB), so the X and N tables of one d hold about
        # two tables' worth, and a cache of sixteen tables would hold eight
        # times that; the bound allows four
        bound = 4 * laws._masses(100_000, False).nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in range(100_000, 100_008):
                cpgf_X_prime(d, 0.5, 0.5)
                cpgf_N_prime(d, 0.5, 0.5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < bound
        info = laws._masses.cache_info()
        assert info.maxsize == 2 and info.currsize == 2


def _full_ladder(d: int, root: bool) -> np.ndarray:
    """P(V = n) for every n the law allows, from the whole g_n ladder as one
    cumprod; past d = 711 its tail holds subnormal plateaus and zeros."""
    g = np.cumprod(np.concatenate(([1.0 / (d + 1)], np.arange(d, 0, -1) / (d + 1))))
    n = np.arange(d + 2.0) if root else np.arange(d + 1.0)
    return n * np.concatenate(([0.0], g)) if root else (n + 1) * g


TINY = np.finfo(float).tiny


@pytest.mark.parametrize("root", [False, True], ids=["X", "N"])
class TestNormalMassTables:
    @pytest.mark.parametrize("d", [711, 712, 1000, 10**5, 10**8])
    def test_no_subnormal_and_sqrt_d_long(self, d, root):
        mass = laws._masses(d, root)
        # N's n = 0 term is exactly 0
        assert np.all(mass[1:] >= TINY) and (mass[0] == 0.0 if root else mass[0] >= TINY)
        assert mass.size <= math.isqrt(1417 * (d + 1)) + 3
        assert not mass.flags.writeable

    @pytest.mark.parametrize("d", [2, 3, 10, 100, 500, 711])
    def test_small_d_keeps_the_whole_ladder(self, d, root):
        np.testing.assert_array_equal(laws._masses(d, root), _full_ladder(d, root))

    @pytest.mark.parametrize("d", [712, 1000, 30_000])
    def test_large_d_is_the_ladders_normal_prefix(self, d, root):
        mass, full = laws._masses(d, root), _full_ladder(d, root)
        assert mass.size < full.size
        assert mass.tobytes() == full[: mass.size].tobytes()
        assert full[mass.size :].max() < TINY


class TestExactLaws:
    @pytest.mark.parametrize("d", [2, 3, 5, 10, 30])
    @pytest.mark.parametrize("p", [F(1, 3), F(1, 2), F(0.7), 1], ids=["1/3", "1/2", "0.7", "1"])
    def test_masses_are_an_exact_law(self, d, p):
        # each builder returns P(V = n) for every n of its support as a tuple
        # of non-negative rationals that sums to exactly 1
        for law, size in ((law_X(d), d + 1), (law_N(d), d + 2), (law_X_prime(d, p), d + 1), (law_N_prime(d, p), d + 2)):
            assert type(law) is tuple and len(law) == size
            assert all(isinstance(q, (F, int)) and q >= 0 for q in law)
            assert sum(law) == 1


class TestThinnedLawsMatchBinomialSum:
    @pytest.mark.parametrize("d", [2, 3, 4, 10, 30])
    @pytest.mark.parametrize("p", [F(1, 1000), F(3, 10), F(9, 10), 1, 0.9], ids=["1e-3", "0.3", "0.9", "1", "0.9f"])
    def test_exact(self, d, p):
        assert law_X_prime(d, p) == thinned_binomial_sum(law_X(d), p)
        assert law_N_prime(d, p) == thinned_binomial_sum(law_N(d), p)


class TestFloatLaws:
    @pytest.mark.parametrize("d", [2, 3, 4, 10, 50, 100, 150])
    # short rationals keep the exact reference fast; the float law rounds p
    @pytest.mark.parametrize("p", [F(1, 1000), F(3, 10), F(9, 10), 1], ids=["1e-3", "0.3", "0.9", "1"])
    def test_match_exact_laws(self, d, p):
        # the exact laws come from math.comb and factorials, the float ones
        # from the _masses ladder that psi_root and the GW engine share
        assert tv_distance(law_X_prime(d, p), law_X_prime_float(d, p)) <= 1e-15
        assert tv_distance(law_N_prime(d, p), law_N_prime_float(d, p)) <= 1e-15

    def test_large_d_is_a_law(self):
        for law in (law_X_prime_float(1000, 0.05), law_N_prime_float(1000, 0.05)):
            assert np.all(law >= 0)
            assert abs(law.sum() - 1.0) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            law_X_prime_float(1, 0.5)
        with pytest.raises(ValueError):
            law_N_prime_float(3, 0.0)


class TestThinnedFloatBlocks:
    def test_peak_memory_is_linear_in_d(self):
        # a whole (d+1)^2 grid of thinning terms would take about 100 MB
        law_X_prime_float(10, 0.5)
        tracemalloc.start()
        try:
            law_X_prime_float(2000, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestLawN:
    def test_d2(self):
        assert law_N(2) == (F(0), F(1, 3), F(4, 9), F(2, 9))

    @pytest.mark.parametrize("d", [2, 3, 9, 33])
    def test_mass_at_one(self, d):
        assert law_N(d)[1] == F(1, d + 1)

    @pytest.mark.parametrize("d", [2, 3, 10, 100])
    def test_sums_to_one_exactly(self, d):
        assert sum(law_N(d)) == 1


class TestLawNPrime:
    def test_p_one_extends_law_N(self):
        assert law_N_prime(2, 1) == (F(0), F(1, 3), F(4, 9), F(2, 9))

    def test_zero_mass_example(self):
        assert law_N_prime(2, F(1, 2))[0] == F(11, 36)

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    @pytest.mark.parametrize("p", [F(1, 10), F(1, 3), F(7, 10), 0.45, 1])
    def test_wald_identity(self, d, p):
        # E(N') = p E(N) holds exactly in rational arithmetic
        pf = F(p)
        assert sum(n * q for n, q in enumerate(law_N_prime(d, p))) == pf * mean_N(d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(9, 10)])
    def test_matches_printed_form(self, d, p):
        assert law_N_prime(d, p) == law_N_prime_printed(d, p)

    def test_printed_form_rejects_p_one(self):
        with pytest.raises(ValueError):
            law_N_prime_printed(2, 1)

    @pytest.mark.parametrize("d", [2, 5, 25, 100])
    @pytest.mark.parametrize("ip", range(1, 11))
    def test_sums_to_one_exactly(self, d, ip):
        p = ip / 10
        assert sum(law_N_prime(d, p)) == 1

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            law_N_prime(3, 0)
        with pytest.raises(ValueError):
            law_N_prime(3, 1.2)


class TestPgfNPrime:
    @pytest.mark.parametrize("d,p", [(2, 0.5), (3, 1.0), (8, 0.33), (200, 0.7)])
    def test_normalized_at_one(self, d, p):
        assert pgf_N_prime(d, p, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_at_p_one(self):
        # the root always informs someone when every contact spreads
        assert pgf_N_prime(3, 1.0, 0.0) == 0.0

    def test_matches_law_at_zero(self):
        assert pgf_N_prime(2, 0.5, 0.0) == pytest.approx(11 / 36, abs=1e-15)

    @pytest.mark.parametrize("d,p", [(2, 0.5), (4, 0.9), (6, 1.0)])
    def test_matches_pmf_reconstruction(self, d, p):
        pmf = law_N_prime(d, p)
        for j in range(20):
            s = j / 19
            assert pgf_N_prime(d, p, s) == pytest.approx(pmf_pgf(pmf, s), abs=1e-12)


class TestTvDistance:
    def test_tv_distance(self):
        assert tv_distance(law_X(2), law_X(2)) == 0
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
