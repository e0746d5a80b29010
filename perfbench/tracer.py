"""Outside-in tracer for one rumorlab CLI process.

The tracer rebinds functions on the rumorlab modules from outside; no file
under src/ changes.  A call at a layer boundary becomes a span (name, start,
end, parent).  Hot inner calls (one per pgf evaluation, GW trajectory or
CTMC replica) are counted into their enclosing span instead, so memory stays
bounded however many replicas a run makes.  Counts are read from the values
the calls return.

A function is rebound where its caller looks it up: ``theta`` finds
``pgf_X_prime`` in ``rumorlab.thresholds``, ``survival_mc`` finds
``law_X_prime`` in ``rumorlab.gw``, and so on.
"""

from __future__ import annotations

import functools
import time

from rumorlab import ctmc, gw, laws, thresholds, treegen


def _exactness(rec: dict, value) -> None:
    rec["exact"] = bool(value.is_exact)


def _replicas(rec: dict, estimate) -> None:
    rec["replicas"] = int(estimate.replicas)


def _sim_outcome(counts: dict, outcome) -> None:
    counts["events"] = counts.get("events", 0) + outcome.events_processed
    counts["informed"] = counts.get("informed", 0) + outcome.informed_total
    counts["cap_hits"] = counts.get("cap_hits", 0) + (outcome.stop_reason == "event_cap")


def _gw_outcome(counts: dict, outcome) -> None:
    counts["capped"] = counts.get("capped", 0) + bool(outcome.capped)


#: (module, attribute, span name, reader of the returned value)
SPANS = [
    (laws, "partial_exp_sum", "specfun.partial_exp_sum", _exactness),
    (gw, "law_X_prime", "laws.law_X_prime", None),
    (gw, "law_N_prime", "laws.law_N_prime", None),
    (thresholds, "p_critical", "thresholds.p_critical", None),
    (thresholds, "theta", "thresholds.theta", None),
    (thresholds, "psi_root", "thresholds.psi_root", None),
    (gw, "survival_mc", "gw.survival_mc", None),
    (ctmc, "estimate_survival_ctmc", "ctmc.estimate_survival_ctmc", _replicas),
    (treegen, "cayley", "treegen.cayley", None),
    (treegen, "hub_path", "treegen.hub_path", None),
]

#: (module, attribute, counter name, timed, reader of the returned value).
#: ``gw._run_trajectory`` is the one private function wrapped: no public
#: call reports GW cap hits.  It is counted but not timed, so the GW engine
#: time stays inside ``gw.survival_mc``'s self time.
COUNTERS = [
    (thresholds, "pgf_X_prime", "laws.pgf_X_prime", True, None),
    (ctmc, "simulate_mt", "ctmc.simulate_mt", True, _sim_outcome),
    (gw, "_run_trajectory", "gw._run_trajectory", False, _gw_outcome),
]


class Tracer:
    """Spans of one process, kept in memory until the process reports."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, on_result=None, **kwargs):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
        if on_result is not None:
            on_result(rec, result)
        return result

    def _counted(self, name: str, fn, timed: bool, on_result, args, kwargs):
        counts = self.spans[self._open[-1]].setdefault("counts", {}).setdefault(name, {"calls": 0})
        counts["calls"] += 1
        if not timed:
            result = fn(*args, **kwargs)
        else:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                counts["s"] = counts.get("s", 0.0) + time.perf_counter() - start
        if on_result is not None:
            on_result(counts, result)
        return result

    def install(self) -> None:
        """Rebind every listed function that the package still defines."""
        for module, attr, name, on_result in SPANS:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._span_wrapper(name, fn, on_result))
        for module, attr, name, timed, on_result in COUNTERS:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._count_wrapper(name, fn, timed, on_result))

    def _span_wrapper(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, on_result=on_result, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn, timed, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._counted(name, fn, timed, on_result, args, kwargs)

        return wrapper
