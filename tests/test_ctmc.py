import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import pytest

from rumorlab import ctmc
from rumorlab._seeds import substream
from rumorlab.ctmc import (
    SimOutcome,
    SurvivalEstimate,
    estimate_survival_ctmc,
    estimate_survival_levels,
    offspring_empirical,
    path_traversal_empirical,
    simulate_mt,
)
from rumorlab.gw import EstimateCI
from rumorlab.laws import beta_series, law_X, law_X_prime, mean_X, tv_distance
from rumorlab.treegen import cayley, hub_path

from oracles import reach_probability

F = Fraction


def mc_se(estimate: float, n: int) -> float:
    return math.sqrt(max(estimate * (1 - estimate), 1e-12) / n)


class TestSimulateMt:
    @pytest.mark.parametrize("seed", range(20))
    def test_root_always_informs_someone_at_p_one(self, seed):
        out = simulate_mt(cayley(3), 1.0, target_level=50, seed=seed)
        assert out.informed_total >= 2

    def test_deterministic(self):
        a = simulate_mt(cayley(4), 0.9, target_level=12, seed=99)
        b = simulate_mt(cayley(4), 0.9, target_level=12, seed=99)
        assert a == b

    def test_absorbed_has_no_active_spreaders(self):
        # nothing is left to explore, so a deeper target changes nothing
        for seed in range(30):
            out = simulate_mt(cayley(3), 0.2, target_level=20, seed=seed)
            assert out.stop_reason == "absorbed"
            assert out.reached_level < 20
            assert simulate_mt(cayley(3), 0.2, target_level=10**6, seed=seed) == out

    def test_level_reached_stops_at_target(self):
        reasons = set()
        for seed in range(30):
            out = simulate_mt(cayley(3), 1.0, target_level=5, seed=seed)
            reasons.add(out.stop_reason)
            if out.stop_reason == "level_reached":
                assert out.reached_level == 5
            else:
                assert out.stop_reason == "absorbed"
                assert out.reached_level < 5
        assert reasons == {"level_reached", "absorbed"}

    def test_exploration_order_ignores_target(self, monkeypatch):
        # a run to a deeper level passes through the states of a shallower
        # run; on the hub trees a leaf's contact is counted when the leaf is
        # made, and the guard, lowered to the cap, falls on such a contact in
        # a few of these runs
        cases = [
            (cayley(4), 0.9, 400),
            (hub_path(20, 4, 0.9, 2), 1.0, 200),
            (hub_path(20, 3, 1.0, 2), 0.9, 200),
        ]
        for topology, p, cap in cases:
            monkeypatch.setattr(ctmc, "_EVENT_GUARD", cap)
            reasons = set()
            for seed in range(40):
                deep, shallow = (simulate_mt(topology, p, level, seed=seed) for level in (12, 6))
                reasons.add(deep.stop_reason)
                if deep.stop_reason == "event_cap":
                    assert deep.events_processed == cap
                if deep.reached_level >= 6:
                    assert shallow.stop_reason == "level_reached"
                    assert shallow.reached_level == 6
                    assert shallow.events_processed <= deep.events_processed
                else:
                    assert shallow == deep
            if topology.kind == "hub_path":
                assert reasons == {"absorbed", "level_reached", "event_cap"}

    def test_work_is_linear_in_level(self):
        level, n = 200, 4000
        events = sum(
            simulate_mt(cayley(4), 0.9, target_level=level, seed=substream(21, r)).events_processed
            for r in range(n)
        )
        assert events / n <= 10 * level

    def test_deep_subcritical_rarely_reaches(self):
        reached = sum(
            simulate_mt(cayley(3), 0.2, target_level=20, seed=s).stop_reason == "level_reached"
            for s in range(10**4)
        )
        assert reached / 10**4 < 0.01

    def test_event_cap_stop(self, monkeypatch):
        monkeypatch.setattr(ctmc, "_EVENT_GUARD", 5)
        out = simulate_mt(cayley(3), 1.0, target_level=10**6, seed=0)
        assert out.stop_reason == "event_cap"
        assert out.events_processed == 5

    def test_informs_bounded_by_contacts(self):
        out = simulate_mt(cayley(4), 0.8, target_level=8, seed=10)
        assert out.informed_total <= out.events_processed + 1

    def test_hub_level_unit_default(self):
        out = simulate_mt(hub_path(5, 4, 0.8, 2), 1.0, target_level=3, seed=2)
        assert out.level_unit == "hub"
        out = simulate_mt(cayley(4), 1.0, target_level=3, seed=2)
        assert out.level_unit == "graph"

    def test_seed_must_be_an_integer(self):
        with pytest.raises(TypeError):
            simulate_mt(cayley(4), 0.9, 30, seed=7.7)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            simulate_mt(cayley(3), 0.0, target_level=5)
        with pytest.raises(ValueError):
            simulate_mt(cayley(3), 0.5, target_level=0)


class CountingRandom(random.Random):
    """A Mersenne Twister that counts its uniforms."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class TestDraws:
    def test_leaves_and_unthinned_contacts_take_no_draw(self, monkeypatch):
        # alpha tiny and p = 1: every child of the root is a leaf, so a run
        # draws one neighbor uniform per root contact and one role uniform
        # per child, with no thinning uniform and none for the leaves
        streams = []

        def counting_substream_random(*key):
            streams.append(CountingRandom(substream(*key)))
            return streams[-1]

        monkeypatch.setattr(ctmc, "substream_random", counting_substream_random)
        topology = hub_path(5, 4, 1e-12, 1)
        for seed in range(200):
            out = simulate_mt(topology, 1.0, 2, seed=seed)
            children = out.informed_total - 1
            assert streams[-1].calls == (children + 1) + children
        assert len(streams) == 200

    def test_thinned_cayley_run_is_pinned(self):
        # at p < 1 a cayley tree has no leaves, so a run keeps every draw
        out = simulate_mt(cayley(4), 0.9, target_level=30, seed=9192)
        assert out == SimOutcome(30, 100, 64, "level_reached", "graph")

    def test_thinned_cayley_estimate_is_pinned(self):
        est = estimate_survival_ctmc(cayley(4), 0.9, 30, replicas=500, seed=9190)
        assert (est.estimate, est.cap_hits) == (377 / 500, 0)

    def test_outcome_grid_is_pinned(self, monkeypatch):
        # every draw, its order and each stop rule show in this digest: both
        # families, role draws at h = 1, 2, 3, p = 1 and p < 1, and guards,
        # the last the default, that fall on every kind of contact
        topologies = [
            cayley(3), cayley(4),
            hub_path(10, 4, 0.7, 1), hub_path(10, 4, 0.7, 2), hub_path(10, 3, 0.9, 3),
        ]
        grid = itertools.product(topologies, (1.0, 0.85), (1, 5, 37, ctmc._EVENT_GUARD))
        outcomes = []
        for topology, p, cap in grid:
            monkeypatch.setattr(ctmc, "_EVENT_GUARD", cap)
            outcomes += [astuple(simulate_mt(topology, p, 6, seed=seed)) for seed in range(50)]
        assert {o[3] for o in outcomes} == {"absorbed", "level_reached", "event_cap"}
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == "34e19d6873a6587a4438ab75e08ab60d4d28a98b1e7bc017485ba3d6ca9012ee"

    @pytest.mark.parametrize(
        "topology,p,top,cap",
        [
            (cayley(4), 0.9, 14, 60),
            (hub_path(10, 4, 0.7, 2), 1.0, 8, 80),
            (hub_path(10, 3, 0.9, 3), 0.85, 12, 10**8),
        ],
        ids=["cayley", "hub_path", "hub_path_h3"],
    )
    def test_survival_chunk_counts_single_runs(self, monkeypatch, topology, p, top, cap):
        monkeypatch.setattr(ctmc, "_EVENT_GUARD", cap)
        seed, lo, hi = 31, 64, 128
        ended, capped = Counter(), Counter()
        for r in range(lo, hi):
            out = simulate_mt(topology, p, top, seed=substream(seed, "survival", r))
            ended[out.reached_level] += 1
            if out.stop_reason == "event_cap":
                capped[out.reached_level] += 1
        assert len(ended) > 1
        assert ctmc._survival_chunk((topology, p, top, cap, seed, lo, hi)) == (ended, capped)


class TestOffspringEmpirical:
    def test_matches_exact_law_at_p_one(self):
        emp = offspring_empirical(3, 1.0, 200_000, seed=5)
        assert tv_distance(emp, law_X(3)) < 0.01

    def test_thinned_mean(self):
        emp = offspring_empirical(3, 0.5, 200_000, seed=6)
        mean = sum(v * q for v, q in enumerate(emp))
        # E(X') = p E(X) = 0.609375; allow 3 standard errors of the mean
        second = sum(v * v * q for v, q in enumerate(emp))
        se = math.sqrt(max(second - mean * mean, 1e-12) / 200_000)
        assert abs(mean - 0.609375) <= 3 * se

    def test_d2_mean(self):
        emp = offspring_empirical(2, 1.0, 100_000, seed=7)
        mean = sum(v * q for v, q in enumerate(emp))
        second = sum(v * v * q for v, q in enumerate(emp))
        se = math.sqrt(max(second - mean * mean, 1e-12) / 100_000)
        assert abs(mean - float(mean_X(2))) <= 3 * se

    def test_support(self):
        emp = offspring_empirical(4, 0.9, 1000, seed=8)
        assert len(emp) == 5

    def test_deterministic(self):
        a = offspring_empirical(3, 0.7, 5000, seed=9)
        b = offspring_empirical(3, 0.7, 5000, seed=9)
        assert a == b

    def test_seeded_counts_are_pinned(self):
        # the draws of each replica, and so these counts, are fixed by the seed
        emp = offspring_empirical(4, 0.8, 20_000, seed=2718)
        assert [q * 20_000 for q in emp] == [5521, 7447, 4957, 1800, 275]


class TestPathTraversal:
    def test_k3_separates_the_two_forms(self):
        est = path_traversal_empirical(3, 200_000, seed=12)
        assert est.ci_low <= 4 / 9 <= est.ci_high
        assert not (est.ci_low <= 1 / 3 <= est.ci_high)

    def test_k4_matches_series_value(self):
        est = path_traversal_empirical(4, 200_000, seed=13)
        se = mc_se(est.estimate, est.replicas)
        assert abs(est.estimate - 26 / 64) <= 3 * se

    def test_seeded_hits_are_pinned(self):
        # the draws of each replica, and so the hits, are fixed by the seed
        assert path_traversal_empirical(5, 20_000, seed=2718).estimate * 20_000 == 7600

    def test_single_replica(self):
        est = path_traversal_empirical(3, 1, seed=14)
        assert est.estimate in (0.0, 1.0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            path_traversal_empirical(1, 100)


class TestCensusRows:
    """The census on the hub_path rows that neither experiment reads: the
    alpha draw of a hub row and the thinned path row."""

    def test_non_root_hub_row_is_x_thinned_by_p_alpha(self):
        topology = hub_path(10, 3, 0.6, 2)
        counts = ctmc._census(topology.role_table()[0], topology.alpha, 0.8, 200_000, 2201, "census")
        assert tv_distance([counts[n] / 200_000 for n in range(max(counts) + 1)], law_X_prime(10, F(12, 25))) < 0.01

    def test_thinned_path_row_makes_a_child_with_p_beta(self):
        topology = hub_path(10, 5, 0.6, 3)
        counts = ctmc._census(topology.role_table()[1], topology.alpha, 0.8, 200_000, 2202, "census")
        assert set(counts) <= {0, 1}  # one onward slot
        target = 0.8 * beta_series(4)
        assert abs(counts[1] / 200_000 - target) <= 4 * mc_se(target, 200_000)


class TestEstimateSurvival:
    def test_matches_theta_on_cayley(self):
        from rumorlab.thresholds import theta

        est = estimate_survival_ctmc(cayley(4), 0.9, target_level=30, replicas=4000, seed=15)
        se = mc_se(est.estimate, est.replicas)
        assert abs(est.estimate - theta(4, 0.9)) <= 3 * se + 1e-9

    def test_deep_level_matches_theta_on_cayley(self):
        from rumorlab.thresholds import theta

        est = estimate_survival_ctmc(cayley(4), 0.9, target_level=200, replicas=4000, seed=22)
        se = mc_se(est.estimate, est.replicas)
        assert abs(est.estimate - theta(4, 0.9)) <= 3 * se + 1e-9

    def test_deterministic_and_worker_independent(self):
        a = estimate_survival_ctmc(cayley(3), 0.9, target_level=10, replicas=400, seed=16, workers=1)
        b = estimate_survival_ctmc(cayley(3), 0.9, target_level=10, replicas=400, seed=16, workers=2)
        assert a == b

    def test_hub_tree_worker_independent(self):
        topology = hub_path(20, 4, 0.6, 2)
        a = estimate_survival_ctmc(topology, 1.0, target_level=6, replicas=300, seed=23, workers=1)
        b = estimate_survival_ctmc(topology, 1.0, target_level=6, replicas=300, seed=23, workers=2)
        assert a == b

    @pytest.mark.parametrize(
        "topology,p,level,replicas,seed",
        [
            (cayley(3), 0.9, 10, 400, 16),
            (hub_path(20, 4, 0.6, 2), 1.0, 6, 300, 23),
            (hub_path(20, 4, 0.6, 3), 0.9, 6, 300, 26),
        ],
        ids=["cayley", "hub_path", "hub_path_h3"],
    )
    def test_pool_matches_inline(self, pool_only, topology, p, level, replicas, seed):
        kwargs = dict(target_level=level, replicas=replicas, seed=seed)
        inline = estimate_survival_ctmc(topology, p, workers=1, **kwargs)
        assert estimate_survival_ctmc(topology, p, workers=2, **kwargs) == inline

    def test_levels_on_the_pool_match_inline(self, pool_only, monkeypatch):
        # the guard goes to the workers in each job
        monkeypatch.setattr(ctmc, "_EVENT_GUARD", 60)
        kwargs = dict(replicas=400, seed=24)
        inline = estimate_survival_levels(cayley(4), 0.9, [2, 5, 9, 14], workers=1, **kwargs)
        assert estimate_survival_levels(cayley(4), 0.9, [2, 5, 9, 14], workers=2, **kwargs) == inline
        assert 0 < inline[-1].cap_hits < 400

    @pytest.mark.parametrize("workers", [1, 2])
    def test_levels_in_one_pass_match_separate_runs(self, monkeypatch, workers):
        # a small guard stops some replicas below some of the levels
        monkeypatch.setattr(ctmc, "_EVENT_GUARD", 60)
        levels = [2, 5, 9, 14]
        kwargs = dict(replicas=400, seed=24, workers=workers)
        swept = estimate_survival_levels(cayley(4), 0.9, levels, **kwargs)
        separate = [
            estimate_survival_ctmc(cayley(4), 0.9, target_level=level, **kwargs) for level in levels
        ]
        assert swept == separate
        assert 0 < swept[-1].cap_hits < 400
        assert swept[0].cap_hits < swept[-1].cap_hits

    @pytest.mark.parametrize(
        "d,k,alpha,h,p,level,closed_form,seed",
        [
            (50, 4, 0.5, 2, 1.0, 20, 0.58367, 9201),
            (20, 3, 1.0, 2, 0.8, 10, 0.42582, 9202),
            (10, 4, 0.7, 2, 0.9, 8, 0.02297, 9203),
            (50, 3, 1.0, 3, 1.0, 10, 0.56099, 9204),
            (100, 2, 1.0, 4, 1.0, 3, 0.56528, 9205),
        ],
        ids=["hub_leaves_p1", "path_leaves_thinned", "near_critical", "supercritical_h3", "leafless_paths_h4"],
    )
    def test_hub_reach_matches_closed_form(self, d, k, alpha, h, p, level, closed_form, seed):
        # in hub units the hubs form a Galton-Watson process with the cayley
        # laws at retention q = p alpha (p beta_series(k-1))^(h-1)
        q = p * alpha * (p * float(beta_series(k - 1))) ** (h - 1)
        reach = reach_probability(d, q, level)
        assert reach == pytest.approx(closed_form, abs=1e-5)
        n = 20_000
        est = estimate_survival_ctmc(hub_path(d, k, alpha, h), p, level, replicas=n, seed=seed)
        assert est.level_unit == "hub"
        assert abs(est.estimate - reach) <= 4 * math.sqrt(reach * (1 - reach) / n)

    def test_deep_level_memory_is_bounded_by_replicas(self):
        # every replica dies at once, far below the level: the reach counts
        # must not grow with it
        tracemalloc.start()
        try:
            estimate_survival_levels(cayley(3), 0.2, [10**5], replicas=640, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_levels_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            estimate_survival_levels(cayley(3), 0.5, [], replicas=10)
        with pytest.raises(ValueError):
            estimate_survival_levels(cayley(3), 0.5, [3, 0], replicas=10)

    @pytest.mark.parametrize("p,replicas", [(1.5, 100), (0.0, 100)])
    def test_levels_rejects_bad_p_and_cap_before_any_run(self, monkeypatch, p, replicas):
        def no_runs(*args, **kwargs):
            raise AssertionError("replicas started")

        monkeypatch.setattr(ctmc, "run_jobs", no_runs)
        with pytest.raises(ValueError):
            estimate_survival_levels(cayley(3), p, [5], replicas=replicas, workers=2)

    def test_nonincreasing_in_level(self):
        lo = estimate_survival_ctmc(cayley(3), 1.0, target_level=5, replicas=3000, seed=17)
        hi = estimate_survival_ctmc(cayley(3), 1.0, target_level=25, replicas=3000, seed=17)
        assert hi.estimate <= lo.estimate

    def test_hub_tree_alpha_at_most_one_over_d_plus_one_runs(self):
        # alpha ranges over (0, 1]: at alpha (d+1) <= 1 the runner still counts
        # exactly the simulate_mt runs, on the same substreams, that reach the level
        tree, n, seed = hub_path(5, 3, 0.1, 2), 2000, 28
        est = estimate_survival_levels(tree, 1.0, [3], replicas=n, seed=seed)[0]
        runs = [simulate_mt(tree, 1.0, 3, seed=substream(seed, "survival", r)) for r in range(n)]
        reached = sum(o.reached_level >= 3 or o.stop_reason == "event_cap" for o in runs)
        assert reached > 0
        assert est.estimate == reached / n

    def test_subcritical_hub_tree_deep_levels(self):
        # alpha far below the (20, 4, 2) threshold: hub generations die out
        est = estimate_survival_ctmc(
            hub_path(20, 4, 0.2, 2), 1.0, target_level=60, replicas=10**4, seed=25
        )
        assert est.estimate < 0.01

    def test_alpha_one_h_one_indistinguishable_from_cayley(self):
        d, level, n = 4, 15, 3000
        hub = estimate_survival_ctmc(hub_path(d, 3, 1.0, 1), 1.0, target_level=level, replicas=n, seed=18)
        cay = estimate_survival_ctmc(cayley(d), 1.0, target_level=level, replicas=n, seed=19)
        gap = abs(hub.estimate - cay.estimate)
        assert gap <= 3 * math.sqrt(mc_se(hub.estimate, n) ** 2 + mc_se(cay.estimate, n) ** 2)

    def test_result_type(self):
        est = estimate_survival_ctmc(cayley(3), 0.5, target_level=5, replicas=100, seed=20)
        assert isinstance(est, SurvivalEstimate)
        assert isinstance(est, EstimateCI)
        assert est.cap_hits == 0
        assert est.target_level == 5
