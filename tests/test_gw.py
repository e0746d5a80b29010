import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rumorlab import gw
from rumorlab.gw import (
    _BLOCK,
    DEFAULT_POPULATION_CAP,
    EstimateCI,
    _cap_for,
    _draw_keys,
    _fold_laws,
    _survival_block,
    coupled_monotonicity_trial,
    extinction_by_iteration,
    survival_mc,
    wilson_interval,
)
from rumorlab.laws import law_X, law_X_prime, law_X_prime_float, tv_distance
from rumorlab.thresholds import p_critical, psi_root, theta

from oracles import sample_offspring

F = Fraction

DELTA_0 = (F(1),)


def run_block(init, off, seed, cap=10**7, n=100):
    """(survivors, cap hits, unresolved) of one block of the survival_mc kernel.

    ``init`` and ``off`` are the masses of the initial and offspring laws
    on {0, 1, ...}; the block draws from a table where survival_mc would.
    """
    init_pvals = np.asarray(init, dtype=float)
    off_pvals = np.asarray(off, dtype=float)
    return _survival_block((seed, 0, n, init_pvals, off_pvals, _draw_keys(off_pvals, cap), cap))


def normalised_offspring(d, p):
    """The offspring masses survival_mc samples."""
    off = law_X_prime_float(d, p)
    return off / off.sum()


def se_of(est):
    return math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.replicas)


class TestWilson:
    def test_against_direct_formula(self):
        z = 1.959963984540054
        n, k = 10, 3
        phat = k / n
        denom = 1 + z * z / n
        center = (phat + z * z / (2 * n)) / denom
        half = z / denom * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
        low, high = wilson_interval(k, n)
        assert low == pytest.approx(center - half)
        assert high == pytest.approx(center + half)

    def test_degenerate_counts(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and 0 < high < 0.1
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and 0.9 < low < 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_all_or_nothing_ends_are_exact(self):
        # center - half rounds to a positive value (3.47e-18 at n = 100) for
        # thousands of n, and center + half to one below 1
        for n in range(1, 20_001):
            low, high = wilson_interval(0, n)
            assert low == 0.0 and 0.0 < high < 1.0
            low, high = wilson_interval(n, n)
            assert high == 1.0 and 0.0 < low < 1.0


class TestSimulateGw:
    """Degenerate laws run through the block kernel of survival_mc."""

    @pytest.mark.parametrize("seed", range(10))
    def test_delta0_offspring_dies_immediately(self, seed):
        assert run_block([0, 1], [1], seed) == (0, 0, 0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_deterministic_line_survives(self, seed, monkeypatch):
        # a line of one spreader never dies out nor grows: the generation
        # guard stops it, and it counts as an unresolved survivor
        monkeypatch.setattr(gw, "_GENERATION_GUARD", 50)
        assert run_block([0, 1], [0, 1], seed) == (100, 0, 100)

    def test_zero_initial_is_extinct_at_generation_zero(self):
        # a cap of one would stop any replica that started with a spreader
        assert run_block([1], [0, 0, 1], 3, cap=1) == (0, 0, 0)

    def test_cap_counts_as_survival(self):
        # deterministic doubling passes a cap of 1000 after ten generations,
        # drawing multinomials, and one of 100 after seven, from a table
        for cap, table in ((1000, False), (100, True)):
            assert (_draw_keys(np.array([0.0, 0.0, 1.0]), cap) is not None) == table
            assert run_block([0, 1], [0, 0, 1], 5, cap=cap) == (100, 100, 0)

    def test_bitwise_determinism(self):
        a = survival_mc(4, 0.9, replicas=300, seed=123)
        b = survival_mc(4, 0.9, replicas=300, seed=123)
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            survival_mc(4, 0.9, replicas=0)


class TestSurvivalMc:
    def test_deep_subcritical(self):
        est = survival_mc(3, 0.1, replicas=10_000, seed=21)
        assert est.estimate < 0.01

    def test_matches_analytic_theta(self):
        est = survival_mc(4, 0.9, replicas=20_000, seed=17)
        target = theta(4, 0.9)
        se = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.replicas)
        assert abs(est.estimate - target) <= 3 * se

    def test_matches_analytic_theta_p_one(self):
        est = survival_mc(3, 1.0, replicas=20_000, seed=23)
        target = theta(3, 1.0)
        se = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.replicas)
        assert abs(est.estimate - target) <= 3 * se

    def test_single_replica(self):
        est = survival_mc(3, 0.9, replicas=1, seed=4)
        assert est.estimate in (0.0, 1.0)

    def test_deterministic_and_schedule_independent(self):
        # 2,000 replicas fill one block and part of a second
        assert 2_000 % _BLOCK
        a = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=1)
        b = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=2)
        c = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=3)
        assert a == b == c

    def test_pool_matches_inline(self, pool_only):
        inline = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=1)
        for workers in (2, 3):
            pooled = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=workers)
            assert pooled == inline
            assert (pooled.cap_hits, pooled.unresolved) == (inline.cap_hits, inline.unresolved)

    def test_unbiased_across_seeds(self):
        target = theta(4, 0.9)
        z = [
            (est.estimate - target) / se_of(est)
            for est in (survival_mc(4, 0.9, replicas=20_000, seed=s) for s in range(20))
        ]
        assert abs(sum(z) / len(z)) < 0.5

    def test_large_d_runs_in_seconds(self):
        start = time.perf_counter()
        est = survival_mc(500, 0.5, replicas=10_000, seed=31)
        assert time.perf_counter() - start < 10.0
        assert abs(est.estimate - theta(500, 0.5)) <= 5 * se_of(est)

    @pytest.mark.parametrize(
        "d,p,replicas", [(10, 0.3509, 4_000), (1000, 0.0262, 20_000)], ids=["d10", "d1000"],
    )
    def test_near_critical_targets_theta(self, d, p, replicas):
        # p = p_c(d)(1 + 9e-4) and p_c(d)(1 + 4e-3), where the fraction of
        # replicas still alive after 60 generations lies 11 and 19 SE above
        # theta at this seed, so only a run to extinction or the cap passes
        est = survival_mc(d, p, replicas, seed=1)
        assert est.unresolved == 0
        assert abs(est.estimate - theta(d, p)) <= 4 * se_of(est)

    def test_block_memory_is_bounded_at_large_d(self):
        # one multinomial call over a block's live replicas would hold a
        # live x 3,001 int64 matrix at d = 3,000 (about 15 MB here); row
        # slices under _DRAW_CELLS hold a small part of it
        p = 1.05 * float(p_critical(3000))
        tracemalloc.start()
        try:
            survival_mc(3000, p, 1_024, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_row_slices_draw_as_one_call(self, monkeypatch):
        # numpy's multinomial takes the same draws for row slices as for one
        # call over all rows, so slicing leaves every estimate unchanged; the
        # law near p_c(10) draws multinomials under either _DRAW_CELLS
        whole = survival_mc(10, 0.3509, 4_000, seed=3)
        monkeypatch.setattr(gw, "_DRAW_CELLS", 7 * 11)  # 7 rows of the 11-point support
        assert survival_mc(10, 0.3509, 4_000, seed=3).__dict__ == whole.__dict__

    def test_estimate_ci_shape(self):
        est = survival_mc(3, 1.0, replicas=500, seed=2)
        assert isinstance(est, EstimateCI)
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.method == "wilson"


class TestDrawTable:
    """Populations below the cap draw from z-fold cdfs when they fit."""

    @pytest.mark.parametrize("d,p", [(4, 0.9), (10, 0.5)])
    def test_rows_match_exact_convolutions(self, d, p):
        # row z is the law of z offspring counts, within 1e-14 of each
        # exact mass of the z-fold convolution of law_X_prime(d, p)
        cap = survival_mc(d, p, 10_000, seed=1).cap
        exact = law_X_prime(d, p)
        fold = exact
        rows = _fold_laws(normalised_offspring(d, p), cap - 1)
        assert len(rows) == cap - 1 >= 7
        for z, row in enumerate(rows, 1):
            if z > 1:
                fold = [sum(fold[i] * exact[n - i] for i in range(max(0, n - d), min(n, len(fold) - 1) + 1))
                        for n in range(len(fold) + d)]
            assert len(row) == len(fold) == z * d + 1
            for mass, truth in zip(row, fold):
                assert abs(F(mass) - truth) <= F(1, 10**14) * truth

    @pytest.mark.parametrize("d,p", [(4, 0.9), (100, 0.126), (1000, 0.05)])
    def test_keys_search_like_the_cdf(self, d, p):
        # every uniform of numpy's 53-bit grid at and next to a cdf entry
        # draws the next population np.searchsorted(cdf_z[:-1], u) would
        off = normalised_offspring(d, p)
        cap = survival_mc(d, p, 10_000, seed=1).cap
        keys = _draw_keys(off, cap)
        m = off.size - 1
        assert keys.size == m * cap * (cap - 1) // 2 and np.all(np.diff(keys) >= 0)
        for z, law in enumerate(_fold_laws(off, cap - 1), 1):
            cdf = np.cumsum(law)[:-1]
            grid = np.floor(cdf * 2.0**53)
            grid = np.concatenate(([0.0, 2.0**53 - 1], grid - 1, grid, grid + 1))
            grid = grid[(grid >= 0) & (grid < 2.0**53)]
            u = grid / 2.0**53
            drawn = np.searchsorted(keys, grid.astype(np.int64) + ((z - 1) << 53), side="right")
            assert np.array_equal(drawn - m * z * (z - 1) // 2, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize(
        "d,p,replicas,table",
        [(4, 0.9, 10_000, True), (1000, 0.05, 10_000, True), (10, 0.3509, 4_000, False),
         (3000, 1.05 * float(p_critical(3000)), 1_024, False)],
        ids=["d4", "d1000", "near-pc10", "near-pc3000"],
    )
    def test_gate_reads_the_law_and_the_cap(self, monkeypatch, d, p, replicas, table):
        built = []

        def recording_draw_keys(off_pvals, cap):
            built.append(_draw_keys(off_pvals, cap))
            return built[-1]

        monkeypatch.setattr(gw, "_draw_keys", recording_draw_keys)
        survival_mc(d, p, replicas, seed=1)
        assert [keys is not None for keys in built] == [table]

    def test_wide_table_matches_analytic_theta(self):
        # cap 20: 19 rows over a support of 101, 19,000 keys
        est = survival_mc(100, 0.126, replicas=10_000, seed=17)
        assert est.cap == 20
        assert abs(est.estimate - theta(100, 0.126)) <= 3 * se_of(est)

    def test_delta0_law_at_the_default_cap_draws_multinomials(self):
        # no offspring gives rows without keys, but still one cell per row
        assert _draw_keys(np.array([1.0]), DEFAULT_POPULATION_CAP) is None


class TestDefaultCap:
    """A replica stops at the smallest c with psi^c <= 0.1 / replicas."""

    @pytest.mark.parametrize(
        "d,p,replicas",
        [(4, 0.9, 10_000), (150, 0.9, 200), (10, float(p_critical(10)) * 1.015, 1_000)],
        ids=["d4", "d150", "near-pc10"],
    )
    def test_smallest_cap_within_bound(self, d, p, replicas):
        # psi from psi_root, the closed-form root that the engine's rule never calls
        psi = psi_root(d, p).psi
        est = survival_mc(d, p, replicas, seed=1)
        bound = 0.1 / replicas
        assert psi**est.cap <= bound < psi ** (est.cap - 1)
        assert est.psi_pow_cap == pytest.approx(psi**est.cap, rel=1e-6)

    # the log estimate of c is 159, 18, 2 and 1 here: the first two settle
    # down, the last two up
    @pytest.mark.parametrize(
        "psi,replicas,cap",
        [(0.9787034771742481, 3, 158), (0.5080218046913021, 10_000, 17),
         (0.316227766016838, 1, 3), (0.10000000000000002, 1, 2)],
    )
    def test_cap_settles_on_the_powers(self, psi, replicas, cap):
        assert _cap_for(psi, replicas) == cap
        assert psi**cap <= 0.1 / replicas < psi ** (cap - 1)

    def test_subcritical_law_keeps_default_cap(self):
        est = survival_mc(3, 0.3, 1_000, seed=1)
        assert (est.cap, est.psi_pow_cap) == (DEFAULT_POPULATION_CAP, 1.0)

    def test_report_is_worker_independent(self, pool_only):
        reports = [survival_mc(4, 0.9, 3_000, seed=5, workers=w).__dict__ for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["cap"] < DEFAULT_POPULATION_CAP


class TestExtinctionIteration:
    def test_delta0_is_one(self):
        assert extinction_by_iteration(DELTA_0) == 1.0

    def test_subcritical_is_one(self):
        assert extinction_by_iteration(law_X_prime(3, 0.5)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_bisection_root(self):
        psi = psi_root(3, 1.0).psi
        assert abs(extinction_by_iteration(law_X(3)) - psi) <= 1e-10

    @pytest.mark.parametrize("d,p", [(3, 1.0), (4, 0.9), (10, 0.5), (40, 0.2)])
    def test_float_law_matches_exact_law(self, d, p):
        # an exact law enters as the floats of its masses, bit for bit; the
        # float build of the same law gives one root to 1e-12
        exact = extinction_by_iteration(law_X_prime(d, p))
        assert exact == extinction_by_iteration([float(q) for q in law_X_prime(d, p)])
        assert abs(extinction_by_iteration(law_X_prime_float(d, p)) - exact) <= 1e-12


class TestOffspringSampling:
    def test_modes_agree_in_distribution(self):
        n = 10**6
        a = np.bincount(sample_offspring(3, 0.7, n, seed=1, mode="cdf"), minlength=4) / n
        b = np.bincount(sample_offspring(3, 0.7, n, seed=2, mode="thin"), minlength=4) / n
        assert tv_distance(a, b) < 0.005

    def test_both_modes_match_law(self):
        n = 10**6
        law = law_X_prime(3, 0.7)
        for mode, seed in (("cdf", 3), ("thin", 4)):
            emp = np.bincount(sample_offspring(3, 0.7, n, seed=seed, mode=mode), minlength=4) / n
            assert tv_distance(emp, law) < 0.005

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sample_offspring(3, 0.5, 10, seed=0, mode="exact")


class TestMonotoneCoupling:
    def test_equal_probabilities_trivially_dominate(self):
        assert coupled_monotonicity_trial(3, 0.7, 0.7, seed=0)

    @pytest.mark.parametrize("seed", range(300))
    def test_domination_holds(self, seed):
        assert coupled_monotonicity_trial(4, 0.5, 0.9, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extreme_gap(self, seed):
        assert coupled_monotonicity_trial(3, 0.01, 1.0, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_d(self, seed):
        # d = 3,000 samples from the float mass ladders in well under a second
        assert coupled_monotonicity_trial(3000, 0.02, 0.5, seed=seed)

    @pytest.mark.parametrize("d", [1000, 3000])
    def test_default_guard_bounds_memory(self, d):
        # one generation near 10^6 contacts would allocate tens of MB; the
        # contact guard stops the trial before that generation is drawn
        tracemalloc.start()
        try:
            assert coupled_monotonicity_trial(d, 0.5, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            coupled_monotonicity_trial(3, 0.9, 0.5)
