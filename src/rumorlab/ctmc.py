"""Simulation of the Maki-Thompson dynamics on the two tree families.

Each spreader of degree g contacts a uniformly chosen neighbor, again and
again.  Contacting an ignorant flips it to spreader with probability p
(stifler otherwise); contacting a non-ignorant flips the contacting spreader
to stifler.  On a tree a spreader's informer is never ignorant and only that
spreader can inform its own children, so each spreader's contact race
depends on its own draws alone.  Whether the rumor reaches a level is
therefore a function of the genealogy, not of the clock, and the engine
draws no waiting times.

The engine materializes only informed vertices and explores spreaders depth
first from a stack: a popped spreader runs its whole contact race and pushes
the children it made spreaders.  A run stops at the first spreader created at
the target level.  Child subtrees on a tree are exchangeable, so the role of
a child spreader (hub, path or leaf) is drawn when it is made.

No uniform is drawn for an outcome that is already decided.  A leaf's one
neighbor is its informer, so its whole race is one stifling contact: that
event is counted when the leaf is made (after the level check that counts
the leaf in graph units), and the leaf is never stacked.  At p = 1 every
contacted ignorant spreads, so the thinning uniform is drawn only for p < 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._seeds import run_jobs, substream, substream_random
from .errors import check_at_least
from .gw import CappedEstimate, EstimateCI, wilson_interval
from .laws import Pmf, _check_d, _check_p, pmf_from_counts
from .treegen import TreeTopology

#: role codes carried inside stack entries
_HUB, _PATH, _LEAF = 0, 1, 2

DEFAULT_EVENT_CAP = 10 ** 8

#: default level targets for survival runs
DEFAULT_LEVEL_CAYLEY = 30
DEFAULT_LEVEL_HUB = 20

_CHUNK = 1 << 16

#: replicas per ``run_jobs`` job; fixed, so the split does not depend on the
#: worker count and a short run can finish inline
_JOB = 64


@dataclass(frozen=True)
class SimOutcome:
    """Summary of one dynamics run."""

    reached_level: int
    events_processed: int
    informed_total: int
    stop_reason: str  # 'absorbed' | 'level_reached' | 'event_cap'
    level_unit: str  # 'graph' | 'hub'


@dataclass(frozen=True)
class SurvivalEstimate(CappedEstimate):
    """Level-reach estimate; cap-hit replicas are counted as reaching."""

    target_level: int = 0
    level_unit: str = "graph"


def _resolve_level_unit(topology: TreeTopology, level_unit: str | None) -> str:
    if level_unit is None:
        return "hub" if topology.kind == "hub_path" else "graph"
    if level_unit not in ("graph", "hub"):
        raise ValueError(f"level_unit must be 'graph' or 'hub', got {level_unit!r}")
    return level_unit


def simulate_mt(
    topology: TreeTopology,
    p: float,
    target_level: int,
    event_cap: int = DEFAULT_EVENT_CAP,
    seed: int = 0,
    level_unit: str | None = None,
) -> SimOutcome:
    """Run the dynamics from a single root spreader until absorption, the
    first spreader at ``target_level``, or ``event_cap`` contacts.

    ``level_unit`` 'graph' counts edges from the root; 'hub' counts hub
    generations (the branching process of the hub analysis lives on hubs)
    and is the default for hub_path topologies.  The exploration order does
    not depend on ``target_level``: a run to a higher level passes through
    exactly the states of a run to a lower one until that one stops.

    Per contact a replica draws the neighbor uniform, then the thinning
    uniform only if p < 1, then the alpha uniform only for a child spreader
    of a hub on a hub_path tree.  Leaves take no draw: a leaf's one contact
    counts in ``events_processed`` as soon as the leaf is made, so a run
    stopped at a level or at the cap includes the contacts of leaves made
    before the stop.
    """
    _check_p(p)
    check_at_least("target_level", target_level, 1)
    unit = _resolve_level_unit(topology, level_unit)
    rand = substream_random(seed, "mt").random

    d = topology.d
    is_hub_path = topology.kind == "hub_path"
    k = topology.k if is_hub_path else 0
    alpha = topology.alpha if is_hub_path else 1.0
    h = topology.h if is_hub_path else 1
    hub_unit = unit == "hub"
    thin = p < 1.0  # at p = 1 every contacted ignorant spreads

    # unexplored hub and path spreaders: (depth, hub_gen, role, path_pos)
    stack = [(0, 0, _HUB, 0)]
    events = 0
    informed = 1
    max_level = 0

    while stack:
        depth, hgen, role, pos = stack.pop()
        if role == _HUB:
            deg = d + 1
            free = d + 1 if depth == 0 else d
        else:
            deg = k
            free = k - 1
        onward_fresh = role == _PATH  # the path slot toward the next hub

        while True:
            events += 1
            if events >= event_cap:
                return SimOutcome(max_level, events, informed, "event_cap", unit)
            u = rand() * deg
            if u >= free:
                break  # contacted the informer or an already-informed neighbor
            informed += 1
            free -= 1
            onward = onward_fresh and u < 1.0
            if onward:
                onward_fresh = False
            if thin and rand() >= p:
                continue  # the contacted ignorant stifles at once
            if role == _PATH:
                if not onward:
                    c_role, c_pos, c_hgen = _LEAF, 0, hgen
                elif pos == h - 1:
                    c_role, c_pos, c_hgen = _HUB, 0, hgen + 1
                else:
                    c_role, c_pos, c_hgen = _PATH, pos + 1, hgen
            elif is_hub_path and rand() >= alpha:
                c_role, c_pos, c_hgen = _LEAF, 0, hgen
            elif h == 1:
                c_role, c_pos, c_hgen = _HUB, 0, hgen + 1
            else:
                c_role, c_pos, c_hgen = _PATH, 1, hgen
            if c_role == _HUB or not hub_unit:
                level = c_hgen if hub_unit else depth + 1
                if level > max_level:
                    max_level = level
                    if level >= target_level:
                        return SimOutcome(level, events, informed, "level_reached", unit)
            if c_role == _LEAF:
                # a leaf's one neighbor is its informer: its whole race is
                # one stifling contact, counted now and drawn from nothing
                events += 1
                if events >= event_cap:
                    return SimOutcome(max_level, events, informed, "event_cap", unit)
                continue
            stack.append((depth + 1, c_hgen, c_role, c_pos))

    return SimOutcome(max_level, events, informed, "absorbed", unit)


def offspring_empirical(d: int, p: float, replicas: int, seed: int = 0) -> Pmf:
    """Empirical law of the spreaders generated by one non-root spreader.

    Harness: a single spreader with one non-ignorant neighbor (its informer)
    and d ignorant neighbors, run until it stifles.  Only contact order
    matters for the count, so no clocks are drawn.
    """
    _check_d(d)
    _check_p(p)
    check_at_least("replicas", replicas, 1)
    counts = [0] * (d + 1)
    deg = d + 1
    for chunk_start in range(0, replicas, _CHUNK):
        rng = substream_random(seed, "offspring", chunk_start)
        rand = rng.random
        for _ in range(chunk_start, min(chunk_start + _CHUNK, replicas)):
            free = d
            made = 0
            while rand() * deg < free:
                free -= 1
                if rand() < p:
                    made += 1
            counts[made] += 1
    return pmf_from_counts(counts)


def path_traversal_empirical(k: int, replicas: int, seed: int = 0) -> EstimateCI:
    """Probability that a degree-k spreader contacts one designated ignorant
    neighbor before stifling (1 informer, k-1 ignorants, p = 1).

    This is the empirical decision procedure for the two closed forms of the
    traversal probability evaluated at k-1.
    """
    check_at_least("k", k, 2)
    check_at_least("replicas", replicas, 1)
    hits = 0
    for chunk_start in range(0, replicas, _CHUNK):
        rng = substream_random(seed, "traversal", chunk_start)
        rand = rng.random
        for _ in range(chunk_start, min(chunk_start + _CHUNK, replicas)):
            free = k - 1
            while True:
                u = rand() * k
                if u >= free:
                    break  # stifled before touching the designated neighbor
                if u < 1.0:
                    hits += 1  # the designated neighbor occupies slot [0, 1)
                    break
                free -= 1
    low, high = wilson_interval(hits, replicas)
    return EstimateCI(hits / replicas, low, high, replicas, seed)


def _survival_chunk(args) -> tuple[Counter, Counter]:
    """Counts by ``reached_level`` of replicas lo..hi-1: all of them, and
    those that hit the event cap.  Only levels some replica reached appear,
    so the counts stay small however high ``top`` is."""
    (topology, p, top, event_cap, seed, lo, hi, unit) = args
    ended = Counter()
    capped = Counter()
    for r in range(lo, hi):
        out = simulate_mt(
            topology,
            p,
            top,
            event_cap=event_cap,
            seed=substream(seed, "survival", r),
            level_unit=unit,
        )
        ended[out.reached_level] += 1
        if out.stop_reason == "event_cap":
            capped[out.reached_level] += 1
    return ended, capped


def estimate_survival_levels(
    topology: TreeTopology,
    p: float,
    levels: list[int],
    replicas: int = 10_000,
    event_cap: int = DEFAULT_EVENT_CAP,
    seed: int = 0,
    workers: int = 1,
    level_unit: str | None = None,
) -> list[SurvivalEstimate]:
    """Wilson 95% CIs on P(the rumor reaches L), one for each L in ``levels``.

    Each replica runs once, to the highest level.  The exploration order
    does not depend on the target, so a separate run to L would reach L
    exactly when this run's ``reached_level`` is at least L, and would hit
    the cap exactly when this run capped below L.  Cap hits are counted as
    reaching.  Replica r runs from the substream (seed, 'survival', r), and
    jobs of ``_JOB`` replicas go to ``run_jobs``, so the estimates are
    independent of the worker count and of scheduling.
    """
    _check_p(p)
    check_at_least("event_cap", event_cap, 1)
    check_at_least("replicas", replicas, 1)
    if not levels:
        raise ValueError("levels must be a nonempty list")
    check_at_least("target_level", min(levels), 1)
    unit = _resolve_level_unit(topology, level_unit)
    if topology.kind == "hub_path" and topology.alpha * (topology.d + 1) <= 1:
        raise ValueError(
            "hub_path survival experiments require alpha > 1/(d+1); "
            f"got alpha={topology.alpha}, d={topology.d}"
        )
    top = max(levels)
    jobs = [
        (topology, p, top, event_cap, seed, lo, min(lo + _JOB, replicas), unit)
        for lo in range(0, replicas, _JOB)
    ]
    ended, capped = Counter(), Counter()
    for job_ended, job_capped in run_jobs(_survival_chunk, jobs, workers):
        ended += job_ended
        capped += job_capped

    estimates = []
    for level in levels:
        cap_hits = sum(n for reached_level, n in capped.items() if reached_level < level)
        reached = sum(n for reached_level, n in ended.items() if reached_level >= level) + cap_hits
        low, high = wilson_interval(reached, replicas)
        estimates.append(
            SurvivalEstimate(
                estimate=reached / replicas,
                ci_low=low,
                ci_high=high,
                replicas=replicas,
                seed=seed,
                cap_hits=cap_hits,
                target_level=level,
                level_unit=unit,
            )
        )
    return estimates


def estimate_survival_ctmc(
    topology: TreeTopology,
    p: float,
    target_level: int | None = None,
    replicas: int = 10_000,
    event_cap: int = DEFAULT_EVENT_CAP,
    seed: int = 0,
    workers: int = 1,
    level_unit: str | None = None,
) -> SurvivalEstimate:
    """Wilson 95% CI on P(the rumor reaches ``target_level``).

    The reach event upper-bounds survival and decreases to it as the level
    grows.  The default level is DEFAULT_LEVEL_HUB in hub units and
    DEFAULT_LEVEL_CAYLEY in graph units.
    """
    if target_level is None:
        hub_unit = _resolve_level_unit(topology, level_unit) == "hub"
        target_level = DEFAULT_LEVEL_HUB if hub_unit else DEFAULT_LEVEL_CAYLEY
    (est,) = estimate_survival_levels(
        topology, p, [target_level], replicas=replicas, event_cap=event_cap,
        seed=seed, workers=workers, level_unit=level_unit,
    )
    return est
