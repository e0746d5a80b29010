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
first from a stack of their depths: a popped spreader runs its whole contact
race and pushes the children it made spreaders.  A run stops at the first
spreader created at the target level.  A spreader's depth fixes whether it is
a hub or a path vertex.  Child subtrees on a tree are exchangeable, so whether
a hub's child is a leaf is drawn when the child is made.

No uniform is drawn for an outcome that is already decided.  A leaf's one
neighbor is its informer, so its whole race is one stifling contact: that
event is counted when the leaf is made (after the level check that counts
the leaf in graph units), and the leaf is never stacked.  At p = 1 every
contacted ignorant spreads, so the thinning uniform is drawn only for p < 1.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ._seeds import run_jobs, substream, substream_random, substreams
from .errors import check_at_least
from .gw import CappedEstimate, EstimateCI, wilson_interval
from .laws import Pmf, _check_d, _check_p, pmf_from_counts
from .treegen import TreeTopology

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


def _explore(rand, topology: TreeTopology, p: float, target_level: int, event_cap: int, hub_unit: bool):
    """One run of the dynamics from a root spreader, drawing from ``rand``.

    Returns ``(reached_level, events, informed, stop_reason)``; the
    arguments are taken as checked.  A spreader's depth fixes its role: on
    a hub_path tree the vertices at depths divisible by h are hubs and the
    others path vertices, so a stack entry is the depth alone.  A popped
    spreader works out once what all its contacts share: its degree, its
    free slots, which slots can make a child spreader, whether the child's
    role is drawn, and the level a child and a leaf count at (0 where they
    count at none).  A contact then only draws, tests the free slots and
    checks the level and the cap.
    """
    d = topology.d
    is_hub_path = topology.kind == "hub_path"
    k, alpha, h = (topology.k, topology.alpha, topology.h) if is_hub_path else (0, 1.0, 1)
    thin = p < 1.0  # at p = 1 every contacted ignorant spreads
    # degrees and free-slot counts as floats: exact, and CPython's float-only
    # arithmetic and comparisons are faster than mixed float-int ones
    hub_deg, path_deg = float(d + 1), float(k)

    stack = [0]  # depths of the unexplored hub and path spreaders
    events = 0
    informed = 1
    max_level = 0

    while stack:
        depth = stack.pop()
        child = depth + 1
        if depth % h:
            # a path vertex: only the slot [0, 1) toward the next hub, while
            # it is fresh, makes a child; every other contact makes a leaf
            deg = path_deg
            free = deg - 1.0
            onward = 1.0
            onward_after = 0.0
            role_draw = False
        else:
            # a hub: any slot can make a child, and on a hub_path tree the
            # alpha draw decides whether it is one or a leaf
            deg = hub_deg
            free = deg - 1.0 if depth else deg
            onward = onward_after = deg
            role_draw = is_hub_path
        if hub_unit:
            leaf_level = 0
            child_level = 0 if child % h else child // h
        else:
            leaf_level = child_level = child

        while True:
            events += 1
            if events >= event_cap:
                return max_level, events, informed, "event_cap"
            u = rand() * deg
            if u >= free:
                break  # contacted the informer or an already-informed neighbor
            informed += 1
            free -= 1.0
            makes_child = u < onward
            if makes_child:
                onward = onward_after
            if thin and rand() >= p:
                continue  # the contacted ignorant stifles at once
            if makes_child and not (role_draw and rand() >= alpha):
                if child_level > max_level:
                    max_level = child_level
                    if child_level >= target_level:
                        return child_level, events, informed, "level_reached"
                stack.append(child)
                continue
            if leaf_level > max_level:
                max_level = leaf_level
                if leaf_level >= target_level:
                    return leaf_level, events, informed, "level_reached"
            # a leaf's one neighbor is its informer: its whole race is one
            # stifling contact, counted now and drawn from nothing
            events += 1
            if events >= event_cap:
                return max_level, events, informed, "event_cap"

    return max_level, events, informed, "absorbed"


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
    check_at_least("event_cap", event_cap, 1)
    unit = _resolve_level_unit(topology, level_unit)
    rand = substream_random(seed, "mt").random
    return SimOutcome(*_explore(rand, topology, p, target_level, event_cap, unit == "hub"), unit)


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
    deg, fresh = float(d + 1), float(d)  # float slot counts, as in ``_explore``
    for chunk_start in range(0, replicas, _CHUNK):
        rng = substream_random(seed, "offspring", chunk_start)
        rand = rng.random
        for _ in range(chunk_start, min(chunk_start + _CHUNK, replicas)):
            free = fresh
            made = 0
            while rand() * deg < free:
                free -= 1.0
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
    deg, fresh = float(k), float(k - 1)  # float slot counts, as in ``_explore``
    for chunk_start in range(0, replicas, _CHUNK):
        rng = substream_random(seed, "traversal", chunk_start)
        rand = rng.random
        for _ in range(chunk_start, min(chunk_start + _CHUNK, replicas)):
            free = fresh
            while True:
                u = rand() * deg
                if u >= free:
                    break  # stifled before touching the designated neighbor
                if u < 1.0:
                    hits += 1  # the designated neighbor occupies slot [0, 1)
                    break
                free -= 1.0
    low, high = wilson_interval(hits, replicas)
    return EstimateCI(hits / replicas, low, high, replicas, seed)


def _survival_chunk(args) -> tuple[Counter, Counter]:
    """Counts by ``reached_level`` of replicas lo..hi-1: all of them, and
    those that hit the event cap.  Only levels some replica reached appear,
    so the counts stay small however high ``top`` is.

    Replica r runs exactly as ``simulate_mt`` with the seed
    ``substream(seed, "survival", r)``, on one reseeded generator."""
    (topology, p, top, event_cap, seed, lo, hi, unit) = args
    hub_unit = unit == "hub"
    rng = random.Random()
    rand = rng.random
    ended = Counter()
    capped = Counter()
    for replica_seed in substreams(seed, "survival", indices=range(lo, hi)):
        rng.seed(substream(replica_seed, "mt"))
        reached, _, _, stop_reason = _explore(rand, topology, p, top, event_cap, hub_unit)
        ended[reached] += 1
        if stop_reason == "event_cap":
            capped[reached] += 1
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
