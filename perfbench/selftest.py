#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

Usage: python3 perfbench/selftest.py   (from the root of a source checkout)

For every workload, in both modes, it checks three things. Every metric that
BENCHMARK.json names is reported once with its unit. The summary prints each
one once. Every invocation of the run succeeds. It also checks that traced
self times sum to no more than the traced wall time, and that a deliberately
wrong estimate is counted as a failure.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run as bench


def require(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def toy_run(workload: str, trace: bool, tamper=None) -> tuple[bench.Run, dict, str]:
    result = bench.run(workload, seed=1, seconds=0, trace=trace, toy=True, tamper=tamper)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        doc = bench.summarize(result, trace)
    return result, doc, printed.getvalue()


def check_metrics(workload: str, trace: bool, expected: dict[str, str]) -> None:
    result, doc, printed = toy_run(workload, trace)
    mode = f"{workload} --trace {int(trace)}"
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    require(got == expected, f"{mode}: metrics and units match BENCHMARK.json")
    require(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                for m in doc["metrics"].values()), f"{mode}: every value is a finite number")
    lines = printed.splitlines()
    require(all(sum(line.split()[:1] == [name] for line in lines) == 1 for name in expected),
            f"{mode}: the summary prints every metric once")
    require(doc["correct"] and doc["failed"] == 0, f"{mode}: every invocation succeeds")
    if trace:
        walls = [o.wall_s for rep in result.traced for o in rep]
        # counted inner calls are leaves: their time is their own self time
        selfs = [sum(bench.self_times(o.spans))
                 + sum(c.get("s", 0.0) for rec in o.spans for c in rec.get("counts", {}).values())
                 for rep in result.traced for o in rep]
        require(all(s <= w for s, w in zip(selfs, walls)) and sum(selfs) > 0,
                f"{mode}: traced self times sum to at most the traced wall ({sum(selfs):.3f} <= {sum(walls):.3f} s)")


def check_wrong_estimate_fails() -> None:
    def tamper(outcome: bench.Outcome) -> None:
        outcome.report["estimate"] = 0.5

    _, doc, printed = toy_run("gw-d4", False, tamper)
    require(doc["failed"] == doc["attempted"] and not doc["correct"],
            "a wrong estimate counts as failed and makes the run incorrect")
    require(doc["metrics"]["ok_frac"]["value"] == 0.0 and "failed_frac 1.0000" in printed,
            "a wrong estimate shows in ok_frac and failed_frac")


def main() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
            "BENCHMARK.json names the benchmark's workloads")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(end_to_end == bench.END_TO_END_UNITS and per_layer == bench.PER_LAYER_UNITS,
            "BENCHMARK.json and run.py agree on metric names and units")
    check_wrong_estimate_fails()
    for workload in bench.WORKLOADS:
        check_metrics(workload, False, end_to_end)
        check_metrics(workload, True, per_layer)


if __name__ == "__main__":
    main()
