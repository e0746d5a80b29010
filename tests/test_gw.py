import math
from fractions import Fraction

import numpy as np
import pytest

from rumorlab.gw import (
    EstimateCI,
    GwOutcome,
    GwSpec,
    coupled_monotonicity_trial,
    extinction_by_iteration,
    sample_offspring,
    simulate_gw,
    survival_mc,
    wilson_interval,
)
from rumorlab.laws import Pmf, law_N_prime, law_X, law_X_prime, tv_distance
from rumorlab.thresholds import psi_root, theta

F = Fraction

DELTA_0 = Pmf(0, (F(1),))
DELTA_1 = Pmf(1, (F(1),))


def spec_for(d, p, horizon=60, cap=10**7):
    return GwSpec(law_N_prime(d, p), law_X_prime(d, p), horizon, cap)


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


class TestSimulateGw:
    @pytest.mark.parametrize("seed", range(10))
    def test_delta0_offspring_dies_immediately(self, seed):
        out = simulate_gw(GwSpec(DELTA_1, DELTA_0), seed)
        assert not out.survived_to_horizon
        assert out.extinction_generation == 1

    @pytest.mark.parametrize("seed", [0, 7])
    def test_deterministic_line_survives(self, seed):
        out = simulate_gw(GwSpec(DELTA_1, DELTA_1, max_generations=500), seed)
        assert out.survived_to_horizon
        assert out.extinction_generation is None
        assert out.peak_population == 1

    def test_zero_initial_is_extinct_at_generation_zero(self):
        two = Pmf(2, (F(1),))
        out = simulate_gw(GwSpec(Pmf(0, (F(1),)), two), 3)
        assert out == GwOutcome(False, 0, 0, False)

    def test_cap_counts_as_survival(self):
        two = Pmf(2, (F(1),))  # deterministic doubling
        out = simulate_gw(GwSpec(DELTA_1, two, max_generations=200, population_cap=1000), 5)
        assert out.survived_to_horizon
        assert out.capped
        assert out.extinction_generation is None

    def test_bitwise_determinism(self):
        spec = spec_for(4, 0.9)
        a = simulate_gw(spec, 123)
        b = simulate_gw(spec, 123)
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GwSpec(DELTA_1, DELTA_0, max_generations=0)
        with pytest.raises(ValueError):
            GwSpec(DELTA_1, DELTA_0, population_cap=0)


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
        est = survival_mc(3, 1.0, replicas=20_000, horizon=60, seed=23)
        target = theta(3, 1.0)
        se = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.replicas)
        assert abs(est.estimate - target) <= 3 * se

    def test_single_replica(self):
        est = survival_mc(3, 0.9, replicas=1, seed=4)
        assert est.estimate in (0.0, 1.0)

    def test_deterministic_and_schedule_independent(self):
        a = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=1)
        b = survival_mc(3, 0.9, replicas=2_000, seed=9, workers=2)
        assert a == b

    def test_horizon_monotone(self):
        short = survival_mc(4, 0.9, replicas=10_000, horizon=20, seed=5)
        long = survival_mc(4, 0.9, replicas=10_000, horizon=60, seed=5)
        assert long.estimate <= short.estimate
        # and the two differ by at most the combined MC noise
        se = math.sqrt(2 * short.estimate * (1 - short.estimate) / short.replicas)
        assert short.estimate - long.estimate <= 3 * se + 1e-9

    def test_cap_hits_reported(self):
        # a cap of one stops every trajectory that starts with a spreader
        est = survival_mc(4, 0.9, replicas=500, cap=1, seed=3)
        assert est.cap_hits == round(est.estimate * est.replicas) > 0
        # five generations cannot grow past the default cap
        assert survival_mc(4, 0.9, replicas=500, horizon=5, seed=3).cap_hits == 0
        # capping changes the record, not the estimate
        capped = survival_mc(4, 0.9, replicas=500, cap=1000, seed=3, workers=2)
        uncapped = survival_mc(4, 0.9, replicas=500, seed=3)
        assert capped.estimate == uncapped.estimate
        assert capped.cap_hits > uncapped.cap_hits

    def test_estimate_ci_shape(self):
        est = survival_mc(3, 1.0, replicas=500, seed=2)
        assert isinstance(est, EstimateCI)
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.method == "wilson"


class TestExtinctionIteration:
    def test_delta0_is_one(self):
        assert extinction_by_iteration(DELTA_0) == 1.0

    def test_subcritical_is_one(self):
        assert extinction_by_iteration(law_X_prime(3, 0.5)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_bisection_root(self):
        psi = psi_root(3, 1.0).psi
        assert abs(extinction_by_iteration(law_X(3), tol=1e-12) - psi) <= 1e-10

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            extinction_by_iteration(DELTA_0, tol=0)


class TestOffspringSampling:
    def test_modes_agree_in_distribution(self):
        n = 10**6
        a = np.bincount(sample_offspring(3, 0.7, n, seed=1, mode="cdf"), minlength=4) / n
        b = np.bincount(sample_offspring(3, 0.7, n, seed=2, mode="thin"), minlength=4) / n
        assert tv_distance(a, b) < 0.005

    def test_both_modes_match_law(self):
        n = 10**6
        law = law_X_prime(3, 0.7).to_floats()
        for mode, seed in (("cdf", 3), ("thin", 4)):
            emp = np.bincount(sample_offspring(3, 0.7, n, seed=seed, mode=mode), minlength=4) / n
            assert tv_distance(emp, law) < 0.005

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sample_offspring(3, 0.5, 10, seed=0, mode="exact")


class TestMonotoneCoupling:
    def test_equal_probabilities_trivially_dominate(self):
        assert coupled_monotonicity_trial(3, 0.7, 0.7, horizon=15, seed=0)

    @pytest.mark.parametrize("seed", range(300))
    def test_domination_holds(self, seed):
        assert coupled_monotonicity_trial(4, 0.5, 0.9, horizon=15, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extreme_gap(self, seed):
        assert coupled_monotonicity_trial(3, 0.01, 1.0, horizon=15, seed=seed)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            coupled_monotonicity_trial(3, 0.9, 0.5)
