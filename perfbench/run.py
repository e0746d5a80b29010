#!/usr/bin/env python3
"""The rumorlab benchmark.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It drives the ``rumorlab`` CLI
from outside, as a user does: every invocation is a fresh interpreter
(``perfbench/child.py``) that imports ``rumorlab`` from ``src/``.  One
repetition issues the workload's CLI calls once; repetitions continue until
S seconds are used, and every output is checked.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: a Monte Carlo estimate fails its check beyond this many standard errors,
#: plus 1/R for the discreteness near theta = 1 (under the normal
#: approximation a correct estimate fails once in about 1.7 million calls)
SE_MULTIPLE = 5.0
#: an invocation that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 60.0
#: a numeric fault is the CLI's documented exit code 3
EXIT_NUMERIC_FAULT = 3

#: On a shared 2-vCPU VM the same CLI call ran up to twice as long from one
#: call to the next.  So a fixed loop that does not touch rumorlab times
#: the host before and after every untraced invocation, and each timing is
#: scaled by CALIBRATION_NOMINAL_S / (mean of its two calibrations): it reads
#: as seconds on a host where the loop takes CALIBRATION_NOMINAL_S.
CALIBRATION_NOMINAL_S = 0.06

#: closed-form values, fixed so that the inputs and the oracle stay the same
#: whatever a later change does to the analytic layer
THETA_4_09 = 0.7511438564991588  # theta(4, 0.9)
THETA_150_09 = 0.9991082598746543  # theta(150, 0.9)
P_C = {10: 0.3505854012773308, 100: 0.08871208387120914, 1000: 0.026093974900000025}
#: theta for d up to this is also checked against the pmf fixed point
REFERENCE_MAX_D = 100
THETA_REFERENCE_ATOL = 1e-8

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "specfun.partial_exp_sum.calls": "count",
    "specfun.partial_exp_sum.s": "s",
    "specfun.log_mode_frac": "ratio",
    "laws.law_X_prime.s": "s",
    "laws.law_N_prime.s": "s",
    "laws.pgf_X_prime.calls": "count",
    "laws.pgf_X_prime.us_per_call": "us",
    "thresholds.psi_root.self_s": "s",
    "thresholds.psi_root.pgf_evals_per_root": "count",
    "thresholds.psi_root.faults": "count",
    "thresholds.p_critical.s": "s",
    "gw.survival_mc.self_s": "s",
    "gw.us_per_replica": "us",
    "gw.capped_frac": "ratio",
    "ctmc.estimate_survival_ctmc.self_s": "s",
    "ctmc.us_per_replica": "us",
    "ctmc.events_per_replica": "count",
    "ctmc.informed_per_replica": "count",
    "ctmc.events_per_s": "1/s",
    "ctmc.cap_hits": "count",
    "treegen.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# one CLI invocation


@dataclass
class Call:
    """One CLI invocation of a repetition and the check of its report."""

    argv: list[str]
    check: Callable[[dict], str | None]  # returns why the report is wrong
    replicas: int = 0


@dataclass
class Outcome:
    call: Call
    rc: int | None = None
    setup_s: float | None = None
    wall_s: float = 0.0
    report: dict | None = None
    spans: list = field(default_factory=list)
    failure: str | None = None
    wrong: bool = False  # a report that fails its check, or a crash
    host_s: float | None = None  # mean calibration around an untraced call

    def scale(self) -> float:
        """Factor that turns this call's seconds into nominal-host seconds."""
        return CALIBRATION_NOMINAL_S / self.host_s

    def fail(self, reason: str, wrong: bool) -> None:
        if self.failure is None:
            self.failure = reason
        self.wrong = self.wrong or wrong


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RUMORLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the invocation's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(call: Call, traced: bool) -> Outcome:
    """Run one invocation in a fresh interpreter and collect its result."""
    outcome = Outcome(call)
    cmd = [sys.executable, str(BENCH / "child.py"), "1" if traced else "0", *call.argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        proc.communicate()
        outcome.wall_s = time.monotonic() - spawned
        outcome.fail(f"killed after {CHILD_TIMEOUT_S:.0f} s", wrong=False)
        return outcome
    except BaseException:
        _stop_group(proc)
        proc.wait()
        raise
    _stop_group(proc)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        outcome.rc = proc.returncode
        outcome.fail(f"no result (exit {proc.returncode}): {err.strip()[-300:]}", wrong=True)
        return outcome
    outcome.rc = result["rc"]
    outcome.setup_s = result["ready"] - spawned
    outcome.wall_s = result["wall_s"]
    outcome.spans = result.get("spans", [])
    if outcome.rc == EXIT_NUMERIC_FAULT:
        outcome.fail(f"exit 3: {err.strip()[-300:]}", wrong=False)
    elif outcome.rc != 0:
        outcome.fail(f"exit {outcome.rc}: {err.strip()[-300:]}", wrong=True)
    else:
        try:
            outcome.report = json.loads(result["report"])
        except ValueError:
            outcome.fail("report is not JSON", wrong=True)
    return outcome


def calibration_s() -> float:
    """Time a fixed pure-Python and numpy loop in this process."""
    start = time.monotonic()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    np.sort(np.random.default_rng(total).random(400_000))
    return time.monotonic() - start


# --------------------------------------------------------------------------
# correctness checks


def estimate_near(theta: float, replicas: int) -> Callable[[dict], str | None]:
    """The estimate lies within SE_MULTIPLE standard errors of theta."""

    def check(report: dict) -> str | None:
        if report.get("replicas") != replicas:
            return f"replicas {report.get('replicas')} != {replicas}"
        est = report["estimate"]
        se = math.sqrt(theta * (1.0 - theta) / replicas)
        if abs(est - theta) > SE_MULTIPLE * se + 1.0 / replicas:
            return f"estimate {est} is more than {SE_MULTIPLE:g} SE from theta {theta}"
        return None

    return check


def hub_survives(replicas: int) -> Callable[[dict], str | None]:
    """alpha = 0.5 > alpha_c(50, 4, 2): the CI excludes 0 and no cap is hit."""

    def check(report: dict) -> str | None:
        if report.get("replicas") != replicas:
            return f"replicas {report.get('replicas')} != {replicas}"
        if not report["ci_low"] > 0.0:
            return f"CI [{report['ci_low']}, {report['ci_high']}] does not exclude 0"
        if report["cap_hits"] != 0:
            return f"{report['cap_hits']} replicas hit the event cap"
        return None

    return check


def theta_in_range(reference: float | None) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        value = report["analytic"]
        if not 0.0 < value < 1.0:
            return f"theta {value} is not in (0, 1)"
        if reference is not None and abs(value - reference) > THETA_REFERENCE_ATOL:
            return f"theta {value} disagrees with the pmf fixed point ({reference})"
        return None

    return check


def pc_table_valid(d_max: int) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        rows = report.get("rows", [])
        if [row["d"] for row in rows] != list(range(3, d_max + 1)):
            return "pc-table rows do not cover d = 3 .. d-max"
        prev = 1.0
        for row in rows:
            pc = row["pc_float"]
            if not 0.0 < pc < prev:
                return f"p_c({row['d']}) = {pc} is not in (0, p_c(d-1))"
            prev = pc
            if row["pc_numerator"] and not math.isclose(
                int(row["pc_numerator"]) / int(row["pc_denominator"]), pc, rel_tol=1e-12
            ):
                return f"p_c({row['d']}) fraction disagrees with its float"
            if row["d"] in P_C and not math.isclose(pc, P_C[row["d"]], rel_tol=1e-12):
                return f"p_c({row['d']}) = {pc}, expected {P_C[row['d']]}"
        return None

    return check


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs come only from the seed; one repetition is a list of Calls."""

    #: replicas of one Monte Carlo invocation: (full size, toy size)
    REPLICAS = (0, 0)

    def __init__(self, seed: int, toy: bool) -> None:
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.replicas = self.REPLICAS[1 if toy else 0]

    def cli_seed(self) -> str:
        return str(self.rng.getrandbits(63))

    def repetition(self, one_process: bool) -> list[Call]:
        """The calls of the next repetition; ``one_process`` for a traced run."""
        raise NotImplementedError

    def cross_check(self, outcomes: list[Outcome]) -> None:
        """Checks that span several invocations of one repetition."""


class GwD4(Workload):
    REPLICAS = (10_000, 300)

    def repetition(self, one_process):
        argv = ["gw", "4", "0.9", "--replicas", str(self.replicas), "--seed", self.cli_seed()]
        return [Call(argv + ["--format", "json"], estimate_near(THETA_4_09, self.replicas), self.replicas)]


class ReachCayleyD4(Workload):
    REPLICAS = (500, 30)

    def repetition(self, one_process):
        argv = ["simulate", "--tree", "cayley", "--d", "4", "--p", "0.9", "--level", "30",
                "--replicas", str(self.replicas), "--seed", self.cli_seed()]
        # level-30 reach upper-bounds theta by far less than one SE
        return [Call(argv + ["--format", "json"], estimate_near(THETA_4_09, self.replicas), self.replicas)]


class ReachHubD50(Workload):
    REPLICAS = (200, 12)

    def repetition(self, one_process):
        # the traced run keeps every span in one process
        threads = "1" if one_process else "2"
        argv = ["simulate", "--tree", "hub_path", "--d", "50", "--k", "4", "--alpha", "0.5",
                "--h", "2", "--p", "1.0", "--replicas", str(self.replicas),
                "--seed", self.cli_seed(), "--threads", threads]
        return [Call(argv + ["--format", "json"], hub_survives(self.replicas), self.replicas)]


class AnalyticLargeD(Workload):
    """theta just above p_c(d) for d in {10, 100, 1000}, gw 150, pc-table."""

    REPLICAS = (200, 20)
    D_VALUES = (10, 100, 1000)
    PC_TABLE_D_MAX = 1000

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        # one epsilon in each of [1,2)e-1, [1,2)e-2 and [2,4)e-3; the last is
        # kept at least twice the ~1.05e-3 below which psi_root faults, since
        # every operation of a workload must succeed
        self.eps = [(1.0 + self.rng.random()) * 10.0 ** -k for k in (1, 2)]
        self.eps.append((2.0 + 2.0 * self.rng.random()) * 1e-3)
        self.points = [(d, P_C[d] * (1.0 + e)) for d in self.D_VALUES for e in self.eps]
        self.reference = {pt: _theta_reference(*pt) for pt in self.points if pt[0] <= REFERENCE_MAX_D}

    def repetition(self, one_process):
        seed = ["--seed", self.cli_seed(), "--format", "json"]
        calls = [
            Call(["theta", str(d), repr(p)] + seed, theta_in_range(self.reference.get((d, p))))
            for d, p in self.points
        ]
        calls.append(Call(["gw", "150", "0.9", "--replicas", str(self.replicas)] + seed,
                          estimate_near(THETA_150_09, self.replicas), self.replicas))
        calls.append(Call(["pc-table", "--d-min", "3", "--d-max", str(self.PC_TABLE_D_MAX)] + seed,
                          pc_table_valid(self.PC_TABLE_D_MAX)))
        return calls

    def cross_check(self, outcomes):
        """theta is nondecreasing in epsilon for each d."""
        for d in self.D_VALUES:
            done = [(o.call.argv, o.report["analytic"]) for o in outcomes
                    if o.call.argv[:2] == ["theta", str(d)] and o.report is not None]
            done.sort(key=lambda item: float(item[0][2]))
            for (_, low), (argv, high) in zip(done, done[1:]):
                if high < low:
                    for o in outcomes:
                        if o.call.argv is argv:
                            o.fail(f"theta({d}) decreases as p grows", wrong=True)


def _theta_reference(d: int, p: float) -> float:
    """theta = 1 - G_N'(psi), psi from iterating the pmf of X' (untimed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rumorlab import gw, laws

    psi = gw.extinction_by_iteration(laws.law_X_prime(d, p))
    return 1.0 - laws.pgf_N_prime(d, p, psi)


WORKLOADS = {
    "gw-d4": GwD4,
    "reach-cayley-d4": ReachCayleyD4,
    "reach-hub-d50": ReachHubD50,
    "analytic-large-d": AnalyticLargeD,
}


# --------------------------------------------------------------------------
# per-layer metrics from spans


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time of its child spans and timed counters."""
    inner = [sum(c.get("s", 0.0) for c in rec.get("counts", {}).values()) for rec in spans]
    for rec in spans:
        if rec["parent"] is not None:
            inner[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - t for rec, t in zip(spans, inner)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, dict[str, float]] = {}
    exact = replicas = evals_in_roots = faults = 0
    for outcome in outcomes:
        for rec, self_s in zip(outcome.spans, self_times(outcome.spans)):
            name = rec["name"]
            dur[name] = dur.get(name, 0.0) + rec["end"] - rec["start"]
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            exact += rec.get("exact", False)
            replicas += rec.get("replicas", 0)
            for cname, counts in rec.get("counts", {}).items():
                total = counted.setdefault(cname, {})
                for key, value in counts.items():
                    total[key] = total.get(key, 0) + value
            if name == "thresholds.psi_root":
                evals_in_roots += rec.get("counts", {}).get("laws.pgf_X_prime", {}).get("calls", 0)
                faults += rec.get("error") == "NumericFault"
    pgf = counted.get("laws.pgf_X_prime", {})
    sim = counted.get("ctmc.simulate_mt", {})
    traj = counted.get("gw._run_trajectory", {})
    pes_calls = calls.get("specfun.partial_exp_sum", 0)
    ctmc_s = dur.get("ctmc.estimate_survival_ctmc", 0.0)
    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "specfun.partial_exp_sum.calls": pes_calls,
        "specfun.partial_exp_sum.s": dur.get("specfun.partial_exp_sum", 0.0),
        "specfun.log_mode_frac": _ratio(pes_calls - exact, pes_calls),
        "laws.law_X_prime.s": dur.get("laws.law_X_prime", 0.0),
        "laws.law_N_prime.s": dur.get("laws.law_N_prime", 0.0),
        "laws.pgf_X_prime.calls": pgf.get("calls", 0),
        "laws.pgf_X_prime.us_per_call": 1e6 * _ratio(pgf.get("s", 0.0), pgf.get("calls", 0)),
        "thresholds.psi_root.self_s": own.get("thresholds.psi_root", 0.0),
        "thresholds.psi_root.pgf_evals_per_root": _ratio(evals_in_roots, calls.get("thresholds.psi_root", 0)),
        "thresholds.psi_root.faults": faults,
        "thresholds.p_critical.s": dur.get("thresholds.p_critical", 0.0),
        "gw.survival_mc.self_s": own.get("gw.survival_mc", 0.0),
        "gw.us_per_replica": 1e6 * _ratio(own.get("gw.survival_mc", 0.0), traj.get("calls", 0)),
        "gw.capped_frac": _ratio(traj.get("capped", 0), traj.get("calls", 0)),
        "ctmc.estimate_survival_ctmc.self_s": own.get("ctmc.estimate_survival_ctmc", 0.0),
        "ctmc.us_per_replica": 1e6 * _ratio(ctmc_s, replicas),
        "ctmc.events_per_replica": _ratio(sim.get("events", 0), sim.get("calls", 0)),
        "ctmc.informed_per_replica": _ratio(sim.get("informed", 0), sim.get("calls", 0)),
        "ctmc.events_per_s": _ratio(sim.get("events", 0), ctmc_s),
        "ctmc.cap_hits": sim.get("cap_hits", 0),
        "treegen.s": dur.get("treegen.cayley", 0.0) + dur.get("treegen.hub_path", 0.0),
    }


# --------------------------------------------------------------------------
# the run


@dataclass
class Run:
    workload: str
    seed: int
    untraced: list[list[Outcome]] = field(default_factory=list)
    traced: list[list[Outcome]] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)  # calibration_s() samples

    def outcomes(self) -> list[Outcome]:
        return [o for rep in self.untraced + self.traced for o in rep]


def _repetition(result: Run, workload: Workload, calls: list[Call], traced: bool, tamper) -> list[Outcome]:
    """Invoke the calls; time the host before and after each untraced one."""
    outcomes = []
    if not traced:
        result.calibrations.append(calibration_s())
    for call in calls:
        outcome = invoke(call, traced)
        if not traced:
            result.calibrations.append(calibration_s())
            outcome.host_s = statistics.fmean(result.calibrations[-2:])
        outcomes.append(outcome)
    for outcome in outcomes:
        if outcome.report is None:
            continue
        if tamper is not None:
            tamper(outcome)
        reason = outcome.call.check(outcome.report)
        if reason is not None:
            outcome.fail(reason, wrong=True)
    workload.cross_check(outcomes)
    return outcomes


def warm_up() -> None:
    """Compile bytecode and prove the CLI starts; users do not pay this."""
    argv = ["pc-table", "--d-min", "3", "--d-max", "3", "--seed", "0", "--format", "json"]
    outcome = invoke(Call(argv, lambda report: None), False)
    if outcome.failure is not None:
        raise SystemExit(f"perfbench: the rumorlab CLI does not run from {SRC}: {outcome.failure}")


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False, tamper=None) -> Run:
    """Repeat the workload until ``seconds`` are used.

    A traced run repeats each repetition's calls with tracing on, so that
    the two walls differ by the tracing overhead alone.
    """
    warm_up()
    workload = WORKLOADS[name](seed, toy)
    result = Run(name, seed)
    began = time.monotonic()
    while True:
        rep_began = time.monotonic()
        calls = workload.repetition(one_process=trace)
        result.untraced.append(_repetition(result, workload, calls, False, tamper))
        if trace:
            result.traced.append(_repetition(result, workload, calls, True, tamper))
        elapsed = time.monotonic() - began
        if elapsed + (time.monotonic() - rep_began) > seconds:
            return result


def _wall(rep: list[Outcome]) -> float:
    return sum(o.wall_s for o in rep)


def _scaled_wall(rep: list[Outcome]) -> float:
    return sum(o.scale() * o.wall_s for o in rep)


def end_to_end(result: Run) -> dict[str, float]:
    """End-to-end metrics of an untraced run, in nominal-host seconds."""
    outcomes = result.outcomes()
    setups = [o.scale() * o.setup_s for o in outcomes if o.setup_s is not None]
    rates = []
    for rep in result.untraced:
        mc = [o for o in rep if o.call.replicas]
        rates.append(_ratio(sum(o.call.replicas for o in mc), _scaled_wall(mc)))
    return {
        "wall_s": statistics.median(_scaled_wall(rep) for rep in result.untraced),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "replicas_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_frac": _ratio(sum(o.failure is None for o in outcomes), len(outcomes)),
    }


def per_layer(result: Run) -> dict[str, float]:
    reps = [layer_metrics(rep) for rep in result.traced]
    metrics = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
    traced_wall = statistics.median(_wall(rep) for rep in result.traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(_wall(rep) for rep in result.untraced)
    return metrics


def write_trace(result: Run) -> Path:
    """Write every span of the traced repetitions to perfbench/out/."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{result.workload}-{result.seed}.json"
    doc = {
        "workload": result.workload,
        "seed": result.seed,
        "repetitions": [
            [{"argv": o.call.argv, "wall_s": o.wall_s, "spans": o.spans} for o in rep]
            for rep in result.traced
        ],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def summarize(result: Run, trace: bool) -> dict:
    """Print the human-readable summary; return the result object."""
    outcomes = result.outcomes()
    failed = [o for o in outcomes if o.failure is not None]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = per_layer(result) if trace else end_to_end(result)
    walls = [_wall(rep) for rep in result.untraced]
    print(f"workload {result.workload}  seed {result.seed}  "
          f"repetitions {len(result.untraced)} untraced, {len(result.traced)} traced  "
          f"invocations {len(outcomes)}")
    print(f"  raw wall per repetition: median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s (n={len(walls)})")
    calibrations = result.calibrations
    print(f"  host calibration: median {statistics.median(calibrations):.4f} s, "
          f"min {min(calibrations):.4f} s, max {max(calibrations):.4f} s (n={len(calibrations)}); "
          f"timings scaled to {CALIBRATION_NOMINAL_S} s")
    print(f"  failed_frac {len(failed) / len(outcomes):.4f} ratio ({len(failed)} of {len(outcomes)})")
    for outcome in failed[:10]:
        print(f"  FAILED {' '.join(outcome.call.argv)}: {outcome.failure}")
    for key, value in metrics.items():
        print(f"  {key} {value:.6g} {units[key]}")
    if trace:
        print(f"  spans written to {write_trace(result).relative_to(ROOT)}")
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rumorlab" / "cli.py").is_file():
        print(f"perfbench: no rumorlab sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summarize(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
