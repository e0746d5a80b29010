"""The tree families: parameter checks, the role table, and the child-role
law that the simulator draws as it goes, checked through ``simulate_mt``
itself."""

import pytest

from rumorlab.ctmc import estimate_survival_ctmc, simulate_mt
from rumorlab.laws import beta_series, law_N, pgf_N_prime, tv_distance
from rumorlab.treegen import TreeTopology, cayley, hub_path

from oracles import covers, reach_probability


class TestTopology:
    def test_cayley_rejects_hub_params(self):
        with pytest.raises(ValueError):
            TreeTopology("cayley", 3, k=2)

    def test_hub_path_requires_all_params(self):
        with pytest.raises(ValueError):
            TreeTopology("hub_path", 5, k=4, alpha=0.5)  # missing h

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            hub_path(5, 4, 0.0, 2)
        with pytest.raises(ValueError):
            hub_path(5, 4, 1.1, 2)
        with pytest.raises(ValueError):
            hub_path(5, 1, 0.5, 2)
        with pytest.raises(ValueError):
            hub_path(5, 4, 0.5, 0)
        with pytest.raises(ValueError):
            cayley(1)

    def test_warns_when_k_not_below_d(self):
        # the warning names this file's line, not the dataclass's __init__
        for build in (lambda: hub_path(4, 4, 0.5, 2), lambda: TreeTopology("hub_path", 4, 4, 0.5, 2)):
            with pytest.warns(UserWarning) as record:
                build()
            assert record[0].filename == __file__


class TestRoleTable:
    def test_cayley_has_one_hub_row(self):
        assert cayley(4).role_table() == ((5.0, 5.0, 5.0, False, True),)

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_hub_path_has_a_hub_row_then_path_rows(self, h):
        table = hub_path(6, 4, 0.5, h).role_table()
        assert len(table) == h
        assert table[0][:4] == (7.0, 7.0, 7.0, True)
        assert [row[:4] for row in table[1:]] == [(4.0, 1.0, 0.0, False)] * (h - 1)
        # only the last row's children are hubs
        assert [row[4] for row in table] == [False] * (h - 1) + [True]
        assert all(type(slots) is float for row in table for slots in row[:3])


class TestCayleyChildren:
    def test_root_has_d_plus_one_children(self):
        # with p tiny no informed neighbor spreads, so a run is the root's
        # race alone: it informs N neighbors, then one more contact stifles it
        d, n = 4, 4000
        counts = [0] * (d + 2)
        for seed in range(n):
            out = simulate_mt(cayley(d), 1e-12, 2, seed=seed)
            assert out.stop_reason == "absorbed"
            assert out.events_processed == out.informed_total
            counts[out.informed_total - 1] += 1
        assert counts[0] == 0 and counts[d + 1] > 0
        assert tv_distance([c / n for c in counts], law_N(d)) < 0.02

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_nonroot_has_d_children(self, level):
        est = estimate_survival_ctmc(cayley(4), 0.7, target_level=level, replicas=20_000, seed=level)
        assert covers(est, reach_probability(4, 0.7, level))


class TestHubPathStructure:
    def test_path_vertices_have_degree_k(self):
        # alpha = 1, h = 2, p = 1: a root child is a degree-k path vertex that
        # reaches the next hub iff it contacts its onward neighbor before
        # stifling, which has probability beta_series(k - 1)
        for k in (3, 4):
            est = estimate_survival_ctmc(hub_path(6, k, 1.0, 2), 1.0, target_level=1, replicas=20_000, seed=k)
            beta = float(beta_series(k - 1))
            assert covers(est, 1.0 - pgf_N_prime(6, 1.0, 1.0 - beta))

    def test_nonroot_hub_has_d_free_slots(self):
        est = estimate_survival_ctmc(hub_path(5, 4, 1.0, 1), 0.7, target_level=2, replicas=20_000, seed=5)
        assert covers(est, reach_probability(5, 0.7, 2))

    def test_leaves_have_no_children(self):
        # alpha tiny: every child of the root is a leaf, which has only its
        # informer to contact, so each costs one event and informs no one;
        # no hub is made, so the run stays at level 0
        topo = hub_path(5, 4, 1e-12, 1)
        for seed in range(200):
            out = simulate_mt(topo, 1.0, 2, seed=seed)
            assert out.stop_reason == "absorbed"
            assert out.reached_level == 0
            assert out.events_processed == 2 * out.informed_total - 1


class TestDeterminism:
    def test_same_seed_same_tree(self):
        topo = hub_path(6, 4, 0.55, 3)
        assert simulate_mt(topo, 0.9, 5, seed=42) == simulate_mt(topo, 0.9, 5, seed=42)

    def test_different_seeds_differ(self):
        topo = hub_path(6, 4, 0.55, 3)
        assert len({simulate_mt(topo, 0.9, 5, seed=s) for s in range(8)}) > 1


class TestDegreeLaw:
    def test_root_path_starts_are_binomial(self):
        # h = 1, p = 1: each of the root's N children is a hub with
        # probability alpha, so hub level 1 is reached w.p. 1 - G_N(1 - alpha)
        est = estimate_survival_ctmc(hub_path(6, 4, 0.3, 1), 1.0, target_level=1, replicas=40_000)
        assert covers(est, 1.0 - pgf_N_prime(6, 1.0, 0.7))
