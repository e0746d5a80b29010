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
race and pushes the children it made spreaders.  A level is a hub generation,
as in the hub analysis, whose branching process lives on hubs; on a Cayley
tree every vertex is a hub, so it is a graph level.  A run stops at the
first hub spreader created at the target level.  A spreader's depth picks its
row of the topology's role table (``treegen``): its degree and which of its
contacts can make a child spreader.  That table is all the engine knows of
the tree's shape.  Child subtrees on a tree are exchangeable, so whether a
hub's child is a leaf is drawn when the child is made.

No uniform is drawn for an outcome that is already decided.  A leaf's one
neighbor is its informer, so its whole race is one stifling contact: that
event is counted when the leaf is made, and the leaf is never stacked.  At
p = 1 every contacted ignorant spreads, so the thinning uniform is drawn
only for p < 1.
The offspring law and the path-traversal probability are read off one
census of a single spreader's race on one row, drawn by these same rules.
``_EVENT_GUARD`` bounds the time of a run near p_c: a run it stops counts as reaching.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ._seeds import EstimateCI, run_jobs, substream, substream_random, substreams, wilson_interval
from .errors import _check_p, check_at_least
from .treegen import TreeTopology, cayley, hub_path

#: a run stops after this many contacts, counts as reaching and is reported in ``cap_hits``
_EVENT_GUARD = 10 ** 8

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
    level_unit: str  # 'graph' on a Cayley tree, 'hub' on a hub_path tree


@dataclass(frozen=True)
class SurvivalEstimate(EstimateCI):
    """Level-reach estimate; the ``cap_hits`` replicas that ``_EVENT_GUARD``
    stopped, after 10^8 contacts, are counted as reaching."""

    cap_hits: int = 0
    target_level: int = 0
    level_unit: str = "graph"


def _level_unit(topology: TreeTopology) -> str:
    return "hub" if topology.kind == "hub_path" else "graph"


def _explore(rand, rows, alpha, p: float, target_level: int, event_cap: int):
    """One run of the dynamics from a root spreader, drawing from ``rand``.

    Returns ``(reached_level, events, informed, stop_reason)``; the
    arguments are taken as checked.  ``rows`` is ``topology.role_table()``:
    a spreader at ``depth`` takes row ``depth % h``, so a stack entry is the
    depth alone, and a depth divisible by h is hub generation ``depth // h``.
    The run tracks the deepest hub spreader, so it compares depths and
    divides by h only when it returns.  Every spreader takes one path: it
    unpacks its row once, its free slots are its degree less its informer's
    slot (the root has none), and ``alpha`` is drawn against only where the
    row says.  A contact then only draws, tests the free slots and checks
    the level and the cap.
    """
    h = len(rows)
    target_depth = target_level * h
    thin = p < 1.0  # at p = 1 every contacted ignorant spreads

    stack = [0]  # depths of the unexplored spreaders
    events = 0
    informed = 1
    max_depth = 0  # of the hub spreaders made

    while stack:
        depth = stack.pop()
        child = depth + 1
        deg, onward, onward_after, role_draw, hub_children = rows[depth % h]
        free = deg - 1.0 if depth else deg
        hub_depth = child if hub_children else 0

        while True:
            events += 1
            if events >= event_cap:
                return max_depth // h, events, informed, "event_cap"
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
                if hub_depth > max_depth:
                    max_depth = hub_depth
                    if hub_depth >= target_depth:
                        return target_level, events, informed, "level_reached"
                stack.append(child)
                continue
            # a leaf's one neighbor is its informer: its whole race is one
            # stifling contact, counted now and drawn from nothing
            events += 1
            if events >= event_cap:
                return max_depth // h, events, informed, "event_cap"

    return max_depth // h, events, informed, "absorbed"


def simulate_mt(
    topology: TreeTopology,
    p: float,
    target_level: int,
    seed: int = 0,
) -> SimOutcome:
    """Run the dynamics from a single root spreader until absorption, the
    first hub spreader at ``target_level``, or the 10^8 contacts of
    ``_EVENT_GUARD`` (stop reason 'event_cap', counted as reaching and
    reported in ``cap_hits``).

    Levels count hub generations, which are graph levels on a Cayley tree;
    ``level_unit`` says which.  The exploration order does not depend on
    ``target_level``: a run to a higher level passes through exactly the
    states of a run to a lower one until that one stops.

    Per contact a replica draws the neighbor uniform, then the thinning
    uniform only if p < 1, then the alpha uniform only for a child spreader
    of a hub on a hub_path tree.  A leaf's one contact takes no draw and
    counts in ``events_processed`` as soon as the leaf is made, so a stopped
    run includes the contacts of leaves made before the stop.
    """
    _check_p(p)
    check_at_least("target_level", target_level, 1)
    rand = substream_random(seed, "mt").random
    outcome = _explore(rand, topology.role_table(), topology.alpha, p, target_level, _EVENT_GUARD)
    return SimOutcome(*outcome, _level_unit(topology))


def _census(row, alpha, p: float, replicas: int, seed: int, stream: str) -> Counter:
    """Counts, by the child spreaders made, of ``replicas`` contact races of a
    non-root spreader on the role-table ``row``, drawn as in ``_explore``; a
    race also stops once ``onward`` is 0.  The races run in chunks of
    ``_CHUNK``, and the chunk from replica c draws from (seed, stream, c)."""
    deg, onward_first, onward_after, role_draw, _ = row
    thin = p < 1.0
    counts = Counter()
    for chunk_start in range(0, replicas, _CHUNK):
        rand = substream_random(seed, stream, chunk_start).random
        for _ in range(min(_CHUNK, replicas - chunk_start)):
            free, onward, made = deg - 1.0, onward_first, 0  # the informer takes one slot
            while True:
                u = rand() * deg
                if u >= free:
                    break
                free -= 1.0
                if u >= onward:
                    if thin:
                        rand()  # a leaf's thinning uniform, drawn as in ``_explore``
                    continue
                onward = onward_after
                if not (thin and rand() >= p or role_draw and rand() >= alpha):
                    made += 1
                if not onward:
                    break
            counts[made] += 1
    return counts


def offspring_empirical(d: int, p: float, replicas: int, seed: int = 0) -> tuple[float, ...]:
    """Empirical law of the spreaders one non-root spreader generates, 0 up to
    the largest count seen: the census of the one row of ``cayley(d)``, whose
    informer takes one of its d + 1 slots and whose other d are ignorant."""
    topology = cayley(d)
    _check_p(p)
    check_at_least("replicas", replicas, 1)
    counts = _census(topology.role_table()[0], topology.alpha, p, replicas, seed, "offspring")
    return tuple(counts[n] / replicas for n in range(max(counts) + 1))


def path_traversal_empirical(k: int, replicas: int, seed: int = 0) -> EstimateCI:
    """Probability that a degree-k spreader contacts one designated ignorant
    neighbor before stifling (1 informer, k-1 ignorants, p = 1): the share of
    1s in the census of the path row of ``hub_path(k + 1, k, 1.0, 2)``, whose
    onward slot is that neighbor (any hub degree above k gives that row).
    It decides between the two closed forms of beta evaluated at k-1."""
    check_at_least("k", k, 2)
    check_at_least("replicas", replicas, 1)
    topology = hub_path(k + 1, k, 1.0, 2)
    hits = _census(topology.role_table()[1], topology.alpha, 1.0, replicas, seed, "traversal")[1]
    low, high = wilson_interval(hits, replicas)
    return EstimateCI(hits / replicas, low, high, replicas, seed)


def _survival_chunk(args) -> tuple[Counter, Counter]:
    """Counts by ``reached_level`` of replicas lo..hi-1: all of them, and
    those that hit the event cap.  Only levels some replica reached appear,
    so the counts stay small however high ``top`` is.

    Replica r runs exactly as ``simulate_mt`` with the seed
    ``substream(seed, "survival", r)``, on one reseeded generator."""
    (topology, p, top, event_cap, seed, lo, hi) = args
    rows = topology.role_table()
    rng = random.Random()
    rand = rng.random
    ended, capped = Counter(), Counter()
    for replica_seed in substreams(seed, "survival", indices=range(lo, hi)):
        rng.seed(substream(replica_seed, "mt"))
        reached, _, _, stop_reason = _explore(rand, rows, topology.alpha, p, top, event_cap)
        ended[reached] += 1
        if stop_reason == "event_cap":
            capped[reached] += 1
    return ended, capped


def estimate_survival_levels(
    topology: TreeTopology,
    p: float,
    levels: list[int],
    replicas: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> list[SurvivalEstimate]:
    """Wilson 95% CIs on P(the rumor reaches L), one for each L in ``levels``.

    Each replica runs once, to the highest level.  The exploration order
    does not depend on the target, so a separate run to L would reach L
    exactly when this run's ``reached_level`` is at least L, and would be
    stopped by ``_EVENT_GUARD`` (10^8 contacts) exactly when this run was
    stopped below L; such a replica counts as reaching and is reported in
    ``cap_hits``.  Replica r runs from the substream (seed, 'survival', r),
    and jobs of ``_JOB`` replicas go to ``run_jobs``, so the estimates are
    independent of the worker count and of scheduling.
    """
    _check_p(p)
    check_at_least("replicas", replicas, 1)
    if not levels:
        raise ValueError("levels must be a nonempty list")
    check_at_least("target_level", min(levels), 1)
    unit = _level_unit(topology)
    top = max(levels)
    jobs = [(topology, p, top, _EVENT_GUARD, seed, lo, min(lo + _JOB, replicas)) for lo in range(0, replicas, _JOB)]
    ended, capped = Counter(), Counter()
    for job_ended, job_capped in run_jobs(_survival_chunk, jobs, workers):
        ended += job_ended
        capped += job_capped

    estimates = []
    for level in levels:
        cap_hits = sum(n for reached_level, n in capped.items() if reached_level < level)
        reached = sum(n for reached_level, n in ended.items() if reached_level >= level) + cap_hits
        low, high = wilson_interval(reached, replicas)
        estimates.append(SurvivalEstimate(
            reached / replicas, low, high, replicas, seed, cap_hits=cap_hits, target_level=level, level_unit=unit,
        ))
    return estimates


def estimate_survival_ctmc(
    topology: TreeTopology,
    p: float,
    target_level: int | None = None,
    replicas: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> SurvivalEstimate:
    """Wilson 95% CI on P(the rumor reaches ``target_level``).

    The reach event upper-bounds survival and decreases to it as the level
    grows.  The default level is DEFAULT_LEVEL_HUB on a hub_path tree and
    DEFAULT_LEVEL_CAYLEY on a Cayley tree.  A replica that ``_EVENT_GUARD``
    stops, at 10^8 contacts, counts as reaching and is reported in ``cap_hits``.
    """
    if target_level is None:
        target_level = DEFAULT_LEVEL_HUB if topology.kind == "hub_path" else DEFAULT_LEVEL_CAYLEY
    (est,) = estimate_survival_levels(topology, p, [target_level], replicas=replicas, seed=seed, workers=workers)
    return est
