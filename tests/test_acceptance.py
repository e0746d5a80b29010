"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  The heavy Monte Carlo criteria (5, 7, 8, 9, 10) take a few
minutes combined; every stated runtime budget is asserted.
"""

import csv
import io
import json
import math
import random
import time
import warnings
from fractions import Fraction

import pytest

import rumorlab as rl
from rumorlab.cli import main as cli_main
from rumorlab.laws import law_X_prime, log_partial_exp_sum

from oracles import gamma_recurrence_residual

F = Fraction

PC_TABLE_4DP = [
    "0.8205", "0.6620", "0.5634", "0.4955", "0.4454",
    "0.4067", "0.3759", "0.3505", "0.3293",
]


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, number: int, message: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"criterion {number} exceeded {self.limit}s ({elapsed:.1f}s)"
        print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) - {message}")


def truncate4(x: float) -> str:
    return f"{math.floor(x * 10000) / 10000:.4f}"


def mc_se(estimate: float, n: int) -> float:
    return math.sqrt(max(estimate * (1 - estimate), 1e-12) / n)


def test_criterion_1_pc_table(tmp_path, capsys):
    budget = Budget(1.0)
    out = tmp_path / "pc.csv"
    code = cli_main(
        ["pc-table", "--d-min", "3", "--d-max", "11", "--seed", "1", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    got = [truncate4(float(r["pc_float"])) for r in rows]
    assert got == PC_TABLE_4DP
    budget.done(1, f"pc-table d=3..11 reproduces the reference 4-decimal values {got}")


def test_criterion_2_exact_identities():
    budget = Budget(1.0)
    assert rl.p_critical(3) == F(32, 39)
    assert rl.mean_X(3) == F(78, 64)
    for d in range(2, 101):
        assert (rl.mean_X(d) > 1) == (d >= 3)
    budget.done(2, "p_c(3) = 32/39, E(X)(3) = 78/64, and E(X) > 1 iff d >= 3 for d <= 100")


def test_criterion_3_asymptotics():
    budget = Budget(5.0)
    span = (10, 10**2, 10**3, 10**4)

    pc_gaps = []
    beta_gaps = []
    for d in span:
        log_s = log_partial_exp_sum(d, d + 1)
        log_pc = -(math.lgamma(d + 1) + log_s - d * math.log(d + 1))
        pc_gaps.append(abs(math.exp(log_pc) * math.sqrt(math.pi * d / 2) - 1))
        beta_gaps.append(abs(float(rl.beta_paper(d)) * math.sqrt(2 * d / math.pi) - 1))
    assert all(a > b for a, b in zip(pc_gaps, pc_gaps[1:]))
    assert pc_gaps[-1] < 0.02
    assert all(a > b for a, b in zip(beta_gaps, beta_gaps[1:]))
    assert beta_gaps[-1] < 0.02
    # the log-mode p_c path must agree with the library's own report
    assert float(rl.p_critical(10**4)) * math.sqrt(math.pi * 10**4 / 2) == pytest.approx(
        1 + pc_gaps[-1], abs=1e-9
    )
    budget.done(
        3,
        f"p_c sqrt(pi d/2) gaps {['%.4f' % g for g in pc_gaps]} and "
        f"beta sqrt(2d/pi) gaps {['%.4f' % g for g in beta_gaps]} decrease, final < 0.02",
    )


def test_criterion_4_gamma_identity_grid():
    budget = Budget(10.0)
    for m in range(1, 201):
        for n in range(1, 201):
            assert gamma_recurrence_residual(m, n) == 0
    budget.done(4, "recurrence residual exactly 0 for all 1 <= m, n <= 200")


def test_criterion_5_offspring_oracle():
    budget = Budget(120.0)
    emp = rl.offspring_empirical(3, 1.0, 10**6, seed=501)
    tv = rl.tv_distance(emp, rl.law_X(3))
    assert tv < 0.005
    assert rl.law_X(3) == (F(1, 4), F(3, 8), F(9, 32), F(3, 32))

    emp_half = rl.offspring_empirical(3, 0.5, 10**6, seed=502)
    mean = sum(v * q for v, q in enumerate(emp_half))
    second = sum(v * v * q for v, q in enumerate(emp_half))
    se = math.sqrt(max(second - mean * mean, 1e-12) / 10**6)
    assert abs(mean - 0.609375) <= 3 * se
    budget.done(
        5, f"TV(empirical, law) = {tv:.5f} < 0.005; thinned mean {mean:.6f} within 3 SE of 0.609375"
    )


def test_criterion_6_psi_theta_consistency():
    budget = Budget(30.0)
    worst_psi = 0.0
    worst_theta = 0.0
    for d in range(3, 11):
        pc = rl.p_critical(d)
        for ip in range(1, 21):
            p = ip * 0.05
            root = rl.psi_root(d, p)
            assert root.residual <= 1e-10
            oracle = rl.extinction_by_iteration(law_X_prime(d, p))
            worst_psi = max(worst_psi, abs(root.psi - oracle))
            if F(p) <= pc:
                assert rl.theta(d, p) == 0.0
            if p <= 0.999:
                gap = abs(rl.theta_double_sum(d, p) - (1.0 - rl.pgf_N_prime(d, p, root.psi)))
                worst_theta = max(worst_theta, gap)
        gap999 = abs(rl.theta_double_sum(d, 0.999) - rl.theta(d, 0.999))
        worst_theta = max(worst_theta, gap999)
    assert worst_psi <= 1e-10
    assert worst_theta <= 1e-10
    budget.done(
        6,
        f"Newton root vs pmf fixed point worst gap {worst_psi:.2e}; "
        f"double-sum vs pgf worst gap {worst_theta:.2e}; theta = 0 exactly below threshold",
    )


def test_criterion_7_triple_cross_validation():
    budget = Budget(600.0)
    d, p = 4, 0.9
    analytic = rl.theta(d, p)
    gw_est = rl.survival_mc(d, p, replicas=10**5, seed=701)
    ctmc_est = rl.estimate_survival_ctmc(
        rl.cayley(d), p, target_level=30, replicas=10**5, seed=702
    )
    se_gw = mc_se(gw_est.estimate, gw_est.replicas)
    se_ctmc = mc_se(ctmc_est.estimate, ctmc_est.replicas)
    assert abs(gw_est.estimate - analytic) <= 3 * se_gw
    assert abs(ctmc_est.estimate - analytic) <= 3 * se_ctmc
    assert abs(gw_est.estimate - ctmc_est.estimate) <= 3 * math.hypot(se_gw, se_ctmc)
    budget.done(
        7,
        f"theta={analytic:.4f}, gw={gw_est.estimate:.4f}, ctmc={ctmc_est.estimate:.4f} "
        "mutually within 3 combined SE",
    )


def test_criterion_8_monotone_coupling():
    budget = Budget(120.0)
    for d, p1, p2 in ((3, 0.5, 0.9), (4, 0.3, 1.0), (6, 0.45, 0.5)):
        for seed in range(10**4):
            assert rl.coupled_monotonicity_trial(d, p1, p2, seed=seed), (
                f"domination violated at d={d}, p1={p1}, p2={p2}, seed={seed}"
            )
    for d in (3, 6, 10):
        values = [rl.theta(d, ip / 100) for ip in range(1, 101)]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
    budget.done(8, "pathwise domination for 3 x 10^4 coupled seeds; analytic theta nondecreasing in p")


def test_criterion_9_hub_tree_thresholds():
    budget = Budget(900.0)
    # h = 1 collapses to the homogeneous threshold, exactly
    for d, k in ((5, 3), (20, 5), (100, 12)):
        assert rl.alpha_critical(d, k, 1) == rl.p_critical(d)

    rng = random.Random(901)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            d = rng.randint(5, 200)
            k = rng.randint(3, min(d - 1, 40))
            hm = rl.max_h(d, k)
            assert rl.alpha_critical(d, k, hm) < 1
            assert not rl.alpha_critical(d, k, hm + 1) < 1

    # feasibility trend tracks log d / log k for k near log d
    trend = [rl.max_h(d, math.ceil(math.log(d))) for d in (10**2, 10**3, 10**4)]
    bounds = [rl.asymptotic_h_bound(d, math.ceil(math.log(d))) for d in (10**2, 10**3, 10**4)]
    assert all(a <= b for a, b in zip(trend, trend[1:]))
    assert all(abs(t - b) <= 2 for t, b in zip(trend, bounds))

    d, k, h = 50, 4, 2
    alpha_c = float(rl.alpha_critical(d, k, h))
    sub = rl.estimate_survival_ctmc(
        rl.hub_path(d, k, 0.5 * alpha_c, h), 1.0, target_level=20, replicas=10**4, seed=902
    )
    assert sub.estimate < 0.01
    sup = rl.estimate_survival_ctmc(
        rl.hub_path(d, k, min(1.0, 1.5 * alpha_c), h), 1.0, target_level=20, replicas=400, seed=903
    )
    assert sup.ci_low > 0.0
    budget.done(
        9,
        f"alpha_c consistency on 50 random pairs; max_h trend {trend} vs bounds "
        f"{['%.2f' % b for b in bounds]}; sub-threshold reach {sub.estimate:.4f} < 0.01, "
        f"supercritical CI ({sup.ci_low:.3f}, {sup.ci_high:.3f}) excludes 0",
    )


def test_criterion_10_beta_audit(capsys):
    budget = Budget(120.0)
    est = rl.path_traversal_empirical(3, 10**6, seed=1001)
    series = 4 / 9
    paper = 1 / 3
    se = mc_se(est.estimate, est.replicas)
    assert est.ci_low <= series <= est.ci_high
    assert not (est.ci_low <= paper <= est.ci_high)
    assert abs(est.estimate - paper) > 10 * se

    # the audit command must print the exact gap (k-2)!/k^(k-1)
    code = cli_main(["audit-beta", "3", "--replicas", "1000", "--seed", "1002", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_gap"] == "1/9"

    # for k >= 30 the two forms agree to 1e-10 relative, so large-d
    # conclusions are unaffected by the audit discrepancy
    for k in (30, 40):
        m = k - 1
        rel = rl.beta_gap(m) / rl.beta_series(m)
        assert float(rel) < 1e-10
    budget.done(
        10,
        f"traversal estimate {est.estimate:.5f} covers 4/9, excludes 1/3 by >10 SE; "
        "audit prints exact gap; forms agree to 1e-10 for k >= 30",
    )
