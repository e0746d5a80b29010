import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from rumorlab import cli, ctmc, laws, thresholds
from rumorlab.cli import build_parser, main
from rumorlab.errors import NumericFault
from rumorlab.laws import beta_paper, law_X_prime

from oracles import mean_X_term_sum


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def manifest_of(text):
    for line in text.splitlines():
        if line.startswith("# manifest: "):
            return json.loads(line[len("# manifest: "):])
    raise AssertionError("no manifest preamble found")


class TestPcTable:
    def test_reference_values_csv(self, capsys):
        code, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "11", "--seed", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["d"] for r in rows] == [str(d) for d in range(3, 12)]
        truncated = [
            f"{math.floor(float(r['pc_float']) * 10000) / 10000:.4f}" for r in rows
        ]
        assert truncated == [
            "0.8205", "0.6620", "0.5634", "0.4955", "0.4454",
            "0.4067", "0.3759", "0.3505", "0.3293",
        ]
        assert rows[0]["pc_numerator"] == "32"
        assert rows[0]["pc_denominator"] == "39"

    def test_json_single_record(self, capsys):
        code, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "3", "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["rows"]
        assert (row["pc_numerator"], row["pc_denominator"]) == ("32", "39")
        assert doc["manifest"]["command"] == "pc-table"

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pc-table", "--d-min", "4", "--d-max", "3", "--seed", "1"])
        assert exc.value.code == 2

    def test_d_below_three_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pc-table", "--d-min", "2", "--seed", "1"])
        assert exc.value.code == 2

    def test_exact_rows_stop_at_exact_limit(self, capsys):
        code, out = run_cli(["pc-table", "--d-min", "495", "--d-max", "505", "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["d"] for row in rows] == list(range(495, 506))
        for row in rows:
            num, den = row["pc_numerator"], row["pc_denominator"]
            if row["d"] > 500:
                assert (num, den) == ("", "")
                continue
            assert math.gcd(int(num), int(den)) == 1
            assert Fraction(int(num), int(den)) == 1 / mean_X_term_sum(row["d"])
            assert float(Fraction(int(num), int(den))) == row["pc_float"]

    def test_float_mode_omits_fractions(self, capsys):
        # past EXACT_LIMIT = 500 the rows carry only the log-space float
        code, out = run_cli(["pc-table", "--d-min", "501", "--d-max", "501", "--seed", "1"], capsys)
        rows = parse_csv(out)
        assert rows[0]["pc_numerator"] == ""
        assert float(rows[0]["pc_float"]) == pytest.approx(float(1 / mean_X_term_sum(501)), rel=1e-12)


class TestTheta:
    def test_subcritical_analytic(self, capsys):
        code, out = run_cli(["theta", "4", "0.5", "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["analytic"] == 0.0

    def test_analytic_p_one(self, capsys):
        code, out = run_cli(["theta", "3", "1.0", "--seed", "1", "--format", "json"], capsys)
        assert json.loads(out)["analytic"] == pytest.approx(0.6612889232198165, abs=1e-10)

    def test_all_methods_cover_analytic(self, capsys):
        code, out = run_cli(
            ["theta", "4", "0.9", "--method", "all", "--replicas", "4000",
             "--seed", "7", "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        analytic = doc["analytic"]
        for key in ("gw_mc", "ctmc_mc"):
            assert doc[key]["ci_low"] - 0.01 <= analytic <= doc[key]["ci_high"] + 0.01

    def test_monte_carlo_interval_holds_zero_when_nothing_survives(self, capsys):
        code, out = run_cli(["theta", "2", "0.5", "--method", "all", "--replicas", "100", "--seed", "1"], capsys)
        assert code == 0
        for row in parse_csv(out)[1:]:
            assert (row["estimate"], row["ci_low"]) == ("0.0", "0.0")

    def test_rejects_bad_p(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "4", "1.5", "--seed", "1"])
        assert exc.value.code == 2

    def test_just_below_critical_at_large_d(self, capsys):
        # p lies 1e-12 relative below the exact p_c(1000) = 0.0260939749000265767...
        p = "0.0260939749000133"
        code, out = run_cli(["theta", "1000", p, "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["analytic"] == 0.0
        code, out = run_cli(["psi", "1000", p, "--seed", "1"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["psi"] == "1.0"


class TestPsiAlphaMaxH:
    def test_psi_report(self, capsys):
        code, out = run_cli(["psi", "3", "1.0", "--seed", "1"], capsys)
        rows = parse_csv(out)
        assert float(rows[0]["psi"]) == pytest.approx(0.5819888974715749, abs=1e-10)
        assert float(rows[0]["residual"]) <= 1e-10

    def test_alpha_c_h1_equals_pc(self, capsys):
        _, out_a = run_cli(["alpha-c", "5", "3", "1", "--seed", "1"], capsys)
        rows = parse_csv(out_a)
        assert rows[0]["alpha_c_numerator"] == "324"
        assert rows[0]["alpha_c_denominator"] == "575"
        assert rows[0]["feasible"] == "True"

    def test_alpha_c_infeasible(self, capsys):
        _, out = run_cli(["alpha-c", "5", "3", "2", "--seed", "1"], capsys)
        rows = parse_csv(out)
        assert float(rows[0]["alpha_c_float"]) == pytest.approx(1.690435, abs=1e-5)
        assert rows[0]["feasible"] == "False"

    @pytest.mark.parametrize(
        "argv", [["50", "4", "1000"], ["1000", "10", "1000"], ["1000", "600", "2000"], ["50", "2", "2"]], ids="-".join
    )
    def test_alpha_c_beyond_float_range_is_inf(self, capsys, argv):
        # k = 2 has paper-form beta(1) = 0, so alpha_c is infinite
        code, out = run_cli(["alpha-c", *argv, "--seed", "1"], capsys)
        assert code == 0
        (row,) = parse_csv(out)
        assert (row["alpha_c_float"], row["feasible"]) == ("inf", "False")
        code, out = run_cli(["alpha-c", *argv, "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert (row["alpha_c_float"], row["feasible"]) == (None, False)

    def test_max_h(self, capsys):
        code, out = run_cli(["max-h", "5", "3", "--seed", "1", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["h_max"] == 1
        assert doc["asymptotic_bound_logd_logk"] == pytest.approx(math.log(5) / math.log(3))

    def test_max_h_annotates_log_regime(self, capsys):
        # k within [0.5 log d, 2 log d] triggers the log d / log log d note
        _, out = run_cli(["max-h", "1000", "10", "--seed", "1", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["h_max"] == 3
        assert doc["k_theta_logd"] is True
        assert doc["asymptotic_bound_logd_loglogd"] == pytest.approx(
            math.log(1000) / math.log(math.log(1000))
        )


class TestLogSpaceLimit:
    @pytest.mark.parametrize(
        "argv,d",
        [
            (["pc-table", "--d-min", "1000000000", "--d-max", "1000000000"], 10**9),
            (["alpha-c", "1000000000", "5", "2"], 10**9),
            (["audit-beta", "1000000000", "--replicas", "10"], 10**9 - 1),  # beta at k - 1
            (["max-h", "100000000000", "30"], 10**11),
        ],
        ids=["pc-table", "alpha-c", "audit-beta", "max-h"],
    )
    def test_past_the_limit_is_usage_error(self, capsys, argv, d):
        # log space at these d would need a table of 8 GiB or more
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert f"d = {d} exceeds 16777217, the largest d evaluated in log space" in capsys.readouterr().err
        assert peak < 5_000_000

    def test_pc_table_range_past_the_limit_computes_no_row(self, capsys, monkeypatch):
        # every row below the limit would cost up to 0.3 s and stay in memory
        calls = []
        p_critical = thresholds.p_critical
        monkeypatch.setattr(thresholds, "p_critical", lambda *a, **kw: calls.append(a) or p_critical(*a, **kw))
        with pytest.raises(SystemExit) as exc:
            main(["pc-table", "--d-min", "16777000", "--d-max", "1000000000", "--seed", "1"])
        assert exc.value.code == 2
        assert "d = 1000000000 exceeds 16777217, the largest d evaluated in log space" in capsys.readouterr().err
        assert calls == []


class TestAuditBeta:
    def test_k3_report(self, capsys):
        code, out = run_cli(
            ["audit-beta", "3", "--replicas", "100000", "--seed", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["beta_paper"] == pytest.approx(1 / 3)
        assert doc["beta_series"] == pytest.approx(4 / 9)
        assert doc["exact_gap"] == "1/9"
        emp = doc["empirical"]
        assert emp["ci_low"] <= 4 / 9 <= emp["ci_high"]
        assert doc["empirical_covers"] == "series"

    def test_k30_forms_agree(self, capsys):
        _, out = run_cli(["audit-beta", "30", "--replicas", "1000", "--seed", "3", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["beta_paper"] == pytest.approx(doc["beta_series"], rel=1e-10)

    def test_k2_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit-beta", "2", "--seed", "1"])
        assert exc.value.code == 2


class TestOffspring:
    def test_report(self, capsys):
        code, out = run_cli(
            ["offspring", "3", "1.0", "--replicas", "50000", "--seed", "4", "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["tv_distance"] < 0.02
        assert doc["analytic_mean"] == pytest.approx(1.21875)
        assert len(doc["rows"]) == 4

    def test_analytic_column_matches_exact_law(self, capsys):
        _, out = run_cli(["offspring", "5", "0.7", "--replicas", "100", "--seed", "4", "--format", "json"], capsys)
        exact = law_X_prime(5, 0.7)
        rows = json.loads(out)["rows"]
        assert [row["i"] for row in rows] == list(range(len(exact)))
        for row in rows:
            assert row["analytic"] == pytest.approx(float(exact[row["i"]]), rel=1e-12)


    def test_one_row_per_count_past_the_normal_masses(self, capsys):
        # X's float table at d = 800 ends at its last normal mass, and the
        # rows end with it, not at d
        _, out = run_cli(["offspring", "800", "1.0", "--replicas", "200", "--seed", "4", "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        cut = laws._masses(800, False).size
        assert cut < 801
        assert [row["i"] for row in rows] == list(range(cut))
        assert all(row["analytic"] > 0.0 for row in rows)

    def test_memory_does_not_grow_with_d(self, capsys):
        # the census, the frequencies and the total variation hold only the
        # counts seen and the O(sqrt(d)) float law, not d + 1 entries each
        tracemalloc.start()
        try:
            code, _ = run_cli(["offspring", "100000", "0.01", "--replicas", "100", "--seed", "4"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5_000_000


_HUB_TREE = ["--tree", "hub_path", "--d", "20", "--k", "4", "--alpha", "0.6", "--h", "2", "--p", "0.9"]


class TestSimulate:
    def test_json_report_and_determinism(self, capsys, tmp_path):
        argv = [
            "simulate", "--tree", "cayley", "--d", "4", "--p", "0.9",
            "--level", "10", "--replicas", "500", "--seed", "5", "--format", "json",
        ]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1["manifest"].pop("duration_s")
        doc2["manifest"].pop("duration_s")
        assert doc1 == doc2
        assert {"estimate", "ci_low", "ci_high", "replicas", "cap_hits"} <= set(doc1)

    def test_writes_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(
            ["simulate", "--tree", "cayley", "--d", "3", "--p", "1.0", "--level", "5",
             "--replicas", "200", "--seed", "6", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["manifest"]["seed"] == 6

    def test_hub_path_flags(self, capsys):
        code, out = run_cli(
            ["simulate", "--tree", "hub_path", "--d", "5", "--k", "4", "--alpha", "0.9",
             "--h", "4", "--p", "1.0", "--level", "3", "--replicas", "300",
             "--seed", "7", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["level_unit"] == "hub"

    def test_hub_path_alpha_below_one_over_d_plus_one(self, capsys):
        code, _ = run_cli(
            ["simulate", "--tree", "hub_path", "--d", "5", "--k", "3", "--alpha", "0.1",
             "--h", "2", "--replicas", "2000", "--seed", "1"],
            capsys,
        )
        assert code == 0

    def test_alpha_without_hub_path_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "cayley", "--d", "4", "--alpha", "0.5", "--seed", "1"])
        assert exc.value.code == 2

    def test_hub_path_missing_params_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "hub_path", "--d", "5", "--k", "4", "--seed", "1"])
        assert exc.value.code == 2

    def test_level_sweep_csv(self, capsys):
        code, out = run_cli(
            ["simulate", "--tree", "cayley", "--d", "3", "--p", "1.0",
             "--level-sweep", "2:6:2", "--replicas", "300", "--seed", "8"],
            capsys,
        )
        rows = parse_csv(out)
        assert [r["level"] for r in rows] == ["2", "4", "6"]
        estimates = [float(r["estimate"]) for r in rows]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    # (tree, sweep, event guard): the two hub-tree runs, at h = 2 and 3, are
    # mostly leaves, and a guard lowered to 150 contacts stops some replicas
    # below some of the levels
    SWEEPS = [
        (["--tree", "cayley", "--d", "4", "--p", "0.9"], "5:40:5", ctmc._EVENT_GUARD),
        (_HUB_TREE, "1:8:1", 150),
        (["--tree", "hub_path", "--d", "20", "--k", "4", "--alpha", "0.6", "--h", "3", "--p", "0.9"], "1:6:1", 150),
    ]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_level_sweep_matches_separate_levels(self, capsys, monkeypatch, threads):
        for tree, sweep, guard in self.SWEEPS:
            monkeypatch.setattr(ctmc, "_EVENT_GUARD", guard)
            common = ["simulate", *tree, "--replicas", "300", "--seed", "10", "--threads", threads]
            _, out = run_cli(common + ["--level-sweep", sweep], capsys)
            swept = parse_csv(out)
            lo, hi, step = (int(x) for x in sweep.split(":"))
            assert [r["level"] for r in swept] == [str(level) for level in range(lo, hi + 1, step)]
            if guard == 150:
                assert 0 < int(swept[-1]["cap_hits"]) < 300
            for row in swept:
                _, out = run_cli(common + ["--level", row["level"]], capsys)
                (single,) = parse_csv(out)
                assert single["target_level"] == row["level"]
                for key in ("estimate", "ci_low", "ci_high", "cap_hits"):
                    assert single[key] == row[key]

    def test_level_sweep_on_the_pool_matches_inline(self, capsys, monkeypatch, pool_only):
        # the guard goes to the workers in each job
        for tree, sweep, guard in self.SWEEPS:
            monkeypatch.setattr(ctmc, "_EVENT_GUARD", guard)
            common = ["simulate", *tree, "--replicas", "300", "--seed", "10", "--level-sweep", sweep]
            _, inline = run_cli(common + ["--threads", "1"], capsys)
            _, pooled = run_cli(common + ["--threads", "2"], capsys)
            assert parse_csv(pooled) == parse_csv(inline)

    def test_threads_capped_at_core_count(self, capsys, pool_only, recording_pool):
        # pool_only reports two cores; 200 replicas make four jobs
        run_cli(["simulate", "--tree", "cayley", "--d", "4", "--p", "0.9", "--level", "5",
                 "--replicas", "200", "--seed", "3", "--threads", "10000"], capsys)
        assert [pool.max_workers for pool in recording_pool] == [2]

    def test_level_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "cayley", "--d", "3", "--level", "0", "--seed", "1"])
        assert exc.value.code == 2

    def test_level_with_level_sweep_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "cayley", "--d", "3", "--level", "5",
                  "--level-sweep", "2:6:2", "--seed", "1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bad_sweep_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "cayley", "--d", "3", "--level-sweep", "5", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sweep", ["5:3:1", "0:3:1", "1:3:0"])
    def test_sweep_bounds_are_usage_errors(self, capsys, sweep):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tree", "cayley", "--d", "3", "--level-sweep", sweep, "--seed", "1"])
        assert exc.value.code == 2
        assert "--level-sweep expects 1 <= MIN <= MAX and STEP >= 1" in capsys.readouterr().err


class TestGwCommand:
    def test_report(self, capsys):
        code, out = run_cli(
            ["gw", "4", "0.9", "--replicas", "2000", "--seed", "9", "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert 0.6 < doc["estimate"] < 0.9
        assert doc["method"] == "wilson"
        assert 0 <= doc["cap_hits"] <= doc["estimate"] * doc["replicas"]

    def test_theta_gw_mc_reports_cap_hits(self, capsys):
        tail = ["--replicas", "500", "--seed", "9", "--format", "json"]
        _, out = run_cli(["gw", "4", "0.9"] + tail, capsys)
        _, theta_out = run_cli(["theta", "4", "0.9", "--method", "gw_mc"] + tail, capsys)
        assert json.loads(theta_out)["gw_mc"]["cap_hits"] == json.loads(out)["cap_hits"] > 0


class TestPlumbing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "4", "P"],
            ["theta", "4", "P", "--method", "ctmc_mc", "--replicas", "10", "--threads", "2"],
            ["psi", "4", "P"],
            ["offspring", "4", "P", "--replicas", "10"],
            ["simulate", "--d", "4", "--p", "P", "--replicas", "10", "--threads", "2"],
            ["gw", "4", "P", "--replicas", "10", "--threads", "2"],
        ],
        ids=["theta", "theta-ctmc_mc", "psi", "offspring", "simulate", "gw"],
    )
    @pytest.mark.parametrize("p", ["0", "1.5"])
    def test_p_outside_unit_interval_is_usage_error(self, capsys, argv, p):
        with pytest.raises(SystemExit) as exc:
            main([p if a == "P" else a for a in argv] + ["--seed", "1"])
        assert exc.value.code == 2
        assert "p must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "threads,message", [("0", "must be at least 1"), ("-1", "must be at least 1"), ("two", "invalid int value")]
    )
    def test_bad_thread_count_is_usage_error(self, capsys, threads, message):
        with pytest.raises(SystemExit) as exc:
            main(["gw", "4", "0.9", "--replicas", "10", "--seed", "1", "--threads", threads])
        assert exc.value.code == 2
        assert f"--threads: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 1361129467683753853853498429727072845824])
    @pytest.mark.parametrize("command", [["gw", "4", "0.9"], ["simulate", "--d", "4", "--p", "0.9"]])
    def test_out_of_range_seed_is_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--replicas", "10", "--seed", str(seed)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "[-2**127, 2**127)" in err and f"got '{seed}'" in err

    @pytest.mark.parametrize("value", ["abc", "1.5", str(2**127)])
    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RUMORLAB_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["gw", "4", "0.9", "--replicas", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "RUMORLAB_SEED" in err and repr(value) in err

    def test_flag_seed_overrides_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("RUMORLAB_SEED", "abc")
        code, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "3", "--seed", "5", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["manifest"]["seed"] == 5

    @pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
    def test_seed_range_ends_run_by_flag_and_env(self, capsys, monkeypatch, seed):
        argv = ["gw", "4", "0.9", "--replicas", "50", "--format", "json"]
        _, by_flag = run_cli(argv + ["--seed", str(seed)], capsys)
        monkeypatch.setenv("RUMORLAB_SEED", str(seed))
        _, by_env = run_cli(argv, capsys)
        docs = [json.loads(out) for out in (by_flag, by_env)]
        for doc in docs:
            doc["manifest"].pop("duration_s")
        assert docs[0] == docs[1]
        assert docs[0]["manifest"]["seed"] == seed

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        with pytest.raises(SystemExit) as exc:
            main(["pc-table", "--seed", "1", "--out", str(path)])
        assert exc.value.code == 2
        assert f"cannot write --out {path}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RUMORLAB_SEED", "4242")
        _, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "3", "--format", "json"], capsys)
        assert json.loads(out)["manifest"]["seed"] == 4242

    def test_seed_always_echoed(self, capsys):
        _, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "3"], capsys)
        assert "seed" in manifest_of(out)

    def test_csv_has_lf_endings_and_header(self, capsys):
        _, out = run_cli(["pc-table", "--d-min", "3", "--d-max", "4"], capsys)
        assert "\r" not in out
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header.split(",")[0] == "d"

    def test_numeric_fault_exit_code(self, capsys, monkeypatch):
        import rumorlab.cli as cli_mod

        def boom(*a, **k):
            raise NumericFault("synthetic fault")

        monkeypatch.setattr(cli_mod.thresholds, "psi_root", boom)
        code = main(["psi", "3", "1.0", "--seed", "1"])
        assert code == 3


_DIGIT_LIMIT = sys.get_int_max_str_digits()


@contextlib.contextmanager
def all_int_digits():
    """Lift the interpreter's limit on int/str conversion, to read back a
    report's long integers, after checking that the report left it as it was."""
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)


class TestLongExactValues:
    # each value has more than 4,300 digits, the interpreter's default limit
    # on converting an int to a string

    def test_pc_table_exact(self, capsys):
        code, out = run_cli(["pc-table", "--d-min", "1372", "--d-max", "1372", "--exact", "--format", "json"], capsys)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        with all_int_digits():
            num, den = int(row["pc_numerator"]), int(row["pc_denominator"])
        assert math.gcd(num, den) == 1
        assert Fraction(num, den) == 1 / mean_X_term_sum(1372)

    def test_alpha_c_exact(self, capsys):
        code, out = run_cli(["alpha-c", "2000", "10", "2", "--exact", "--format", "json"], capsys)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        with all_int_digits():
            value = Fraction(int(row["alpha_c_numerator"]), int(row["alpha_c_denominator"]))
        assert value == 1 / mean_X_term_sum(2000) / beta_paper(9)

    def test_audit_beta_gap(self, capsys):
        # the gap (k-2)!/k^(k-1) is printed exactly while its d = k - 1 is at
        # most EXACT_LIMIT, and beyond only as a float
        for k in (laws.EXACT_LIMIT + 1, laws.EXACT_LIMIT + 2):
            code, out = run_cli(["audit-beta", str(k), "--replicas", "100", "--seed", "1", "--format", "json"], capsys)
            assert code == 0
            doc, gap = json.loads(out), Fraction(math.factorial(k - 2), k ** (k - 1))
            if k - 1 <= laws.EXACT_LIMIT:
                assert doc["exact_gap"] == f"{gap.numerator}/{gap.denominator}"
                assert doc["gap_float"] == float(gap)
            else:
                assert doc["exact_gap"] == ""
                assert doc["gap_float"] == pytest.approx(float(gap), rel=1e-12)


_COMMON = {"-h", "--help", "--seed", "--format", "--out"}
_THREADS = {"--threads"}
_MODE = {"--exact"}

# each command's option strings: --threads only where replica jobs run,
# --exact only where exact rationals are printed
FLAGS = {
    "pc-table": _COMMON | _MODE | {"--d-min", "--d-max"},
    "theta": _COMMON | _THREADS | {"--method", "--replicas", "--level"},
    "psi": _COMMON,
    "alpha-c": _COMMON | _MODE | {"--beta-form"},
    "max-h": _COMMON | _MODE | {"--beta-form"},
    "audit-beta": _COMMON | {"--replicas"},
    "offspring": _COMMON | {"--replicas"},
    "simulate": _COMMON | _THREADS | {
        "--tree", "--d", "--k", "--alpha", "--h", "--p", "--level", "--level-sweep", "--replicas",
    },
    "gw": _COMMON | _THREADS | {"--replicas"},
}

QUICK_RUNS = {
    "pc-table": ["--d-max", "3"],
    "theta": ["4", "0.9"],
    "psi": ["3", "1.0"],
    "alpha-c": ["5", "3", "1"],
    "max-h": ["5", "3"],
    "audit-beta": ["3", "--replicas", "100"],
    "offspring": ["3", "1.0", "--replicas", "100"],
    "simulate": ["--d", "3", "--level", "3", "--replicas", "50"],
    "gw": ["4", "0.9", "--replicas", "100"],
}


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_command_takes_only_its_flags(self, command):
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands) == set(FLAGS)
        assert {flag for action in commands[command]._actions for flag in action.option_strings} == FLAGS[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "3", "1.0", "--threads", "2"], ["gw", "4", "0.9", "--exact"], ["audit-beta", "3", "--float"],
            ["pc-table", "--float"], ["alpha-c", "5", "3", "1", "--float"], ["max-h", "5", "3", "--float"],
            ["gw", "4", "0.9", "--cap", "5"], ["gw", "4", "0.9", "--horizon", "60"],
            ["simulate", "--d", "4", "--event-cap", "5"], ["simulate", "--d", "4", "--level-unit", "graph"],
        ],
        ids=["psi-threads", "gw-exact", "audit-beta-float", "pc-table-float", "alpha-c-float", "max-h-float", "gw-cap",
             "gw-horizon", "simulate-event-cap", "simulate-level-unit"],
    )
    def test_flag_the_command_ignores_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(QUICK_RUNS))
    def test_parameters_repeat_no_manifest_key(self, capsys, command):
        code, out = run_cli([command, *QUICK_RUNS[command], "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == command
        assert not set(manifest["parameters"]) & set(manifest)


def _tree_main(argv):
    """The reference ``main`` for calls that end in help or a usage error:
    the full tree parses every call, and reports a command's ValueError."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


def _run_to_exit(entry, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        entry(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# name: (argv, exit code, the usage line of the help or the error line printed)
USAGE_CASES = {
    "no-command": ([], 2, "rumorlab: error: the following arguments are required: command"),
    "bogus": (["bogus"], 2, "rumorlab: error: argument command: invalid choice: 'bogus'"),
    "help": (["-h"], 0, "usage: rumorlab [-h]"),
    "theta-help": (["theta", "-h"], 0, "usage: rumorlab theta [-h]"),
    "missing-positional": (["theta"], 2, "rumorlab theta: error: the following arguments are required: d, p"),
    "bad-int": (["theta", "x", "0.5"], 2, "rumorlab theta: error: argument d: invalid int value: 'x'"),
    "unrecognized": (["gw", "4", "0.9", "--cap", "5"], 2, "rumorlab: error: unrecognized arguments: --cap 5"),
    "command-value-error": (
        ["pc-table", "--d-min", "5", "--d-max", "3"], 2, "rumorlab: error: empty range: d-min=5 > d-max=3",
    ),
    "seed-range": (["gw", "4", "0.9", "--seed", str(2**127)], 2, "rumorlab gw: error: argument --seed: a seed"),
}


class TestCommandParser:
    """``main`` builds only the invoked command's parser; the full tree
    reports top-level help and errors."""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_matches_the_tree_subparser(self, monkeypatch, command):
        monkeypatch.setenv("RUMORLAB_SEED", "12345")
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        tree, alone = commands[command], cli._command_parser(command)

        def surface(parser):
            actions = [
                (type(a), {key: value for key, value in vars(a).items() if key != "container"})
                for a in parser._actions
            ]
            groups = [[a.dest for a in g._group_actions] for g in parser._mutually_exclusive_groups]
            return actions, groups, parser._defaults

        assert surface(alone) == surface(tree)
        assert alone.get_default("seed") == "12345"
        assert alone.format_help() == tree.format_help()

    @pytest.mark.parametrize("argv,code,line", list(USAGE_CASES.values()), ids=list(USAGE_CASES))
    def test_usage_errors_match_the_tree(self, capsys, monkeypatch, argv, code, line):
        monkeypatch.setenv("COLUMNS", "80")
        result = _run_to_exit(main, argv, capsys)
        assert result == _run_to_exit(_tree_main, argv, capsys)
        assert result[0] == code
        assert line in (result[2] if code else result[1])

    @pytest.mark.parametrize("command", sorted(QUICK_RUNS))
    def test_valid_call_builds_no_full_tree(self, capsys, monkeypatch, command):
        argv = [command, *QUICK_RUNS[command], "--seed", "1", "--format", "json"]
        _, usual = run_cli(argv, capsys)

        def no_tree():
            raise AssertionError("a valid call built the full parser tree")

        monkeypatch.setattr(cli, "build_parser", no_tree)
        code, out = run_cli(argv, capsys)
        assert code == 0
        reports = [json.loads(text) for text in (usual, out)]
        for doc in reports:
            del doc["manifest"]["duration_s"]
        assert reports[0] == reports[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# every command once, an infinite alpha_c, and a theta = 0 run
JSON_RUNS = [[command, *QUICK_RUNS[command]] for command in sorted(QUICK_RUNS)] + [
    ["alpha-c", "50", "2", "2"], ["alpha-c", "50", "4", "1000"], ["theta", "2", "0.5", "--method", "all", "--replicas", "100"],
]


@pytest.mark.parametrize("argv", JSON_RUNS, ids="-".join)
def test_json_report_is_strict_json(capsys, argv):
    # RFC 8259 has no Infinity or NaN: a non-finite float is written as null
    code, out = run_cli(argv + ["--seed", "1", "--format", "json"], capsys)
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", JSON_RUNS, ids="-".join)
def test_json_report_matches_round_trip(capsys, monkeypatch, argv):
    # the report's bytes equal those of a dumps/loads round trip that reads
    # every Infinity or NaN constant back as null
    emitted = []

    def emit(args, manifest, rows, payload=None):
        emitted.append((manifest, rows, payload))
        real_emit(args, manifest, rows, payload)

    real_emit = cli._emit
    monkeypatch.setattr(cli, "_emit", emit)
    code, out = run_cli(argv + ["--seed", "1", "--format", "json"], capsys)
    assert code == 0
    ((manifest, rows, payload),) = emitted
    doc = {"manifest": manifest, **(payload or {})}
    if rows:
        doc["rows"] = rows
    doc = json.loads(json.dumps(doc, default=str), parse_constant=lambda _: None)
    assert out == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _hub_runs(command, ds):
    """alpha-c (h = 1, 2, 3) or max-h at d in ``ds``, with p_c(d) and beta(k-1)
    on both sides of EXACT_LIMIT = 500."""
    grid = [(d, k) for d in (50, 499, 500, 501, 1000) for k in (3, 10, 40)]
    grid += [(1000, k) for k in (501, 502, 600)]
    hs = [[str(h)] for h in (1, 2, 3)] if command == "alpha-c" else [[]]
    for d, k in grid:
        if d in ds:
            for form in ("paper", "series"):
                for h in hs:
                    yield [command, str(d), str(k), *h, "--beta-form", form]


# SHA-256 of the CSV report bodies, manifest line dropped, of each group of
# runs (all at --seed 1; k < d, so alpha-c warns nowhere); they pin every
# digit of the exact rows (d <= 500, or --exact) and the bits of the
# log-space rows beyond.  hub-alpha-log holds alpha_c = p_c(d) beta^(1-h)
# for d in {501, 1000} as one float product (p_c from log space, beta an
# exact rational up to k - 1 = 500); it lies within 1.1e-12 of the exact value
REPORT_DIGESTS = {
    "pc-table": (
        [["pc-table", "--d-min", "3", "--d-max", "1000"]],
        "b8d385e2b0638e30370c7d94734d68daa3504bfe58516e70b50cb693e08b2997",
    ),
    "pc-table-exact": (
        [["pc-table", "--d-min", "495", "--d-max", "600", "--exact"]],
        "94ddaba1ca701d8cb2cd56c7f199949c27cff8a156de3ff9fc86bf43deb786d1",
    ),
    "hub-alpha-exact": (
        list(_hub_runs("alpha-c", (50, 499, 500))),
        "e32242ebfb1ba5b2d6d5b0eee06a07120350e5166556647ac0cb0274750b6623",
    ),
    "hub-alpha-log": (
        list(_hub_runs("alpha-c", (501, 1000))),
        "d012a0e564884344144b225810a3fb7c1e96caa11443552bbfdfc9663f3910fc",
    ),
    "hub-max-h": (
        list(_hub_runs("max-h", (50, 499, 500, 501, 1000))),
        "45a61161ed20d54fb7b96f24db8af0f6ded252ef8cb85f4062e8fa3af33382de",
    ),
    "audit-beta": (
        [["audit-beta", str(k), "--replicas", "20000"] for k in (3, 30, 501, 800)],
        "65d14b238457a6416bca6772ba1f31e70412511418c425595be169b9022cf9f4",
    ),
    # the reports that read the offspring mass tables; gw 4 0.9 draws from
    # its z-fold table, theta's GW row near p_c(10) draws multinomials
    "gw": (
        [["gw", "4", "0.9", "--replicas", "2000"]],
        "7efbbb64576665e6258909a92e5496a7c948f79c0adfcf97439f434dd0e816c9",
    ),
    "theta": (
        [["theta", "10", "0.3509", "--method", "all", "--replicas", "2000"], ["theta", "1000", "0.0262"]],
        "5c3ceb15d2f503667891e2c77c84f9583ad8dae89dc3c8901fee67c6e4982448",
    ),
    "psi": (
        [["psi", "4", "0.9"], ["psi", "100000", "0.0026"]],
        "1e96a9a06efa498a9aa579efbe9110b49fcb45a222e7df1e37a21dddeb12418c",
    ),
    "offspring": (
        [["offspring", "5", "0.7", "--replicas", "20000"]],
        "3bbc207614140e32d9aec22a984e1f01114793f25dac8f8de4a2de33cbec4a64",
    ),
    # the dynamics engine: one level and a sweep on each family, hub trees
    # at h = 2 and at h = 3 with p < 1
    "simulate": (
        [
            ["simulate", "--tree", "cayley", "--d", "4", "--p", "0.9", "--level", "12", "--replicas", "2000"],
            ["simulate", "--tree", "cayley", "--d", "3", "--p", "0.95", "--level-sweep", "2:20:3", "--replicas", "2000"],
            ["simulate", "--tree", "hub_path", "--d", "20", "--k", "4", "--alpha", "0.6", "--h", "2", "--p", "1.0",
             "--level", "6", "--replicas", "2000"],
            ["simulate", "--tree", "hub_path", "--d", "50", "--k", "4", "--alpha", "0.9", "--h", "3", "--p", "0.95",
             "--level-sweep", "1:10:1", "--replicas", "2000"],
        ],
        "77c82313a86ff44377d0efb1bee612798ba0c9163f71119ab998e3ff89cc1a6d",
    ),
}


class TestReportDigests:
    @pytest.mark.parametrize("group", sorted(REPORT_DIGESTS))
    def test_report_bodies_are_pinned(self, capsys, group):
        runs, digest = REPORT_DIGESTS[group]
        sha = hashlib.sha256()
        for argv in runs:
            code, out = run_cli(argv + ["--seed", "1"], capsys)
            assert code == 0
            body = "".join(ln for ln in out.splitlines(keepends=True) if not ln.startswith("# manifest: "))
            sha.update(f"{' '.join(argv)}\n{body}".encode())
        assert sha.hexdigest() == digest
