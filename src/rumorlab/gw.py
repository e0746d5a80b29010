"""Galton-Watson engine: survival Monte Carlo, the extinction oracle on a
law's masses, and the shared-uniform monotone coupling.

The embedded branching process has initial count distributed as N' and
offspring distributed as X'.  ``survival_mc`` runs replicas in fixed-size
blocks.  One generation step draws the next population of every live
replica of a block.  When the z-fold laws of the offspring law for every
live population z below the cap fit in ``_DRAW_CELLS`` cells, their cdfs
are tabulated once per call and each replica draws with one uniform and one
search of the table (inverse-cdf lookup; Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. III).  Otherwise each replica draws a
multinomial split of its population over the offspring support, which is
exact and O(support) per replica and generation however large the
population grows, at most ``_DRAW_CELLS`` counts (or one replica's) at a
time.  The choice reads only the law and the cap.  The laws come from the
float builders in ``laws``, whose support ends at the thinned law's last
normal mass, O(sqrt(d)) long.

Each replica runs until it dies out or reaches a cap, where it counts as
surviving, so the estimate targets theta.  The cap is the smallest c with
psi^c <= 0.1 / replicas, psi the extinction probability of the sampled
offspring masses: c spreaders found c independent lines that all die with
probability psi^c, so stopping there moves the expected estimate by at most
a tenth of one replica.  ``_GENERATION_GUARD`` bounds the time of a run near
p_c; a replica it stops counts as surviving and is reported as unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._seeds import EstimateCI, run_jobs, substream, wilson_interval
from .errors import _check_d, check_at_least
from .laws import _SURVIVAL_TOL, _masses, _survival_root, law_N_prime_float, law_X_prime_float

#: the cap of a subcritical law, or where the rule's cap would be larger
DEFAULT_POPULATION_CAP = 10_000_000

#: the cap keeps the expected number of capped replicas that would have
#: died below this
_CAP_DEATHS = 0.1

#: a replica still alive below the cap after this many generations stops,
#: counts as surviving and is reported as unresolved
_GENERATION_GUARD = 10_000

#: replicas per block; block b draws from substream(seed, "gw", b), so the
#: blocks, not the workers, fix every draw
_BLOCK = 1024

#: cells of one draw table, and of one multinomial draw.  A law whose
#: z-fold cdfs for the live populations z < cap take more cells than this
#: draws multinomial splits instead, each over at most this many cells (live
#: replicas x support): a generation past it draws in row slices, which take
#: the same draws as one call
_DRAW_CELLS = 1 << 16

#: a coupling trial stops before a generation that would draw more contacts
_COUPLING_GUARD = 100_000
#: generations of offspring a coupling trial compares
_COUPLING_HORIZON = 15


@dataclass(frozen=True)
class CappedEstimate(EstimateCI):
    """GW estimate of theta that counts replicas stopped by the population
    cap or by the generation guard as successes.

    ``cap_hits`` says how many replicas the cap stopped and ``cap`` the
    population at which they stopped.  ``psi_pow_cap`` = psi^cap bounds the
    chance that a capped replica would still have died (its cap spreaders
    found that many independent lines).  ``unresolved`` counts the replicas
    still alive below the cap after ``_GENERATION_GUARD`` generations.  So
    the upward bias of the estimate is visible in every report: at most
    ``replicas * psi_pow_cap + unresolved`` replicas in expectation.
    Equality compares outcomes: two runs that stop no replica at either cap
    are equal whatever their caps.
    """

    cap_hits: int = 0
    unresolved: int = 0
    cap: int = field(default=DEFAULT_POPULATION_CAP, compare=False)
    psi_pow_cap: float = field(default=1.0, compare=False)


def _survival_block(args) -> tuple[int, int, int]:
    """(survivors, cap hits, unresolved) among the ``n`` replicas of block
    ``b``; the survivors include both other counts.

    With ``keys`` from ``_draw_keys``, a live population z draws its next
    generation with one uniform u from its z-fold law: the keys of row z
    that u clears count the cdf entries <= u.  Without, it draws a
    multinomial split of z over the offspring support, in row slices of at
    most ``_DRAW_CELLS`` cells.
    """
    seed, b, n, init_pvals, off_pvals, keys, cap = args
    rng = np.random.default_rng(substream(seed, "gw", b))
    m = off_pvals.size - 1
    off_values = np.arange(m + 1)
    rows = max(1, _DRAW_CELLS // off_pvals.size)
    z = rng.choice(init_pvals.size, size=n, p=init_pvals)
    z = z[z > 0]
    cap_hits = 0
    for generation in range(_GENERATION_GUARD + 1):
        at_cap = z >= cap
        if at_cap.any():
            cap_hits += int(np.count_nonzero(at_cap))
            z = z[~at_cap]
        if z.size == 0 or generation == _GENERATION_GUARD:
            break
        if keys is not None:
            u = (rng.random(z.size) * 2.0**53).astype(np.int64)
            z = np.searchsorted(keys, u + ((z - 1) << 53), side="right") - m * z * (z - 1) // 2
        elif z.size <= rows:
            z = rng.multinomial(z, off_pvals) @ off_values
        else:
            z = np.concatenate([rng.multinomial(z[i : i + rows], off_pvals) @ off_values for i in range(0, z.size, rows)])
        z = z[z > 0]
    return z.size + cap_hits, cap_hits, z.size


def _draw_keys(off_pvals: np.ndarray, cap: int) -> np.ndarray | None:
    """Sorted int64 keys that draw the next generation of every live
    population z = 1 ... cap-1 with one uniform, or None when their
    m cap (cap-1)/2 keys and one cell per row exceed ``_DRAW_CELLS``; the
    offspring support is {0, ..., m}.

    Row z holds ceil(c 2^53) + ((z-1) << 53) for each entry c of the z-fold
    law's cdf but its last, clipped at 2^53 so that a cdf that rounds past 1
    stays in its row.  numpy's ``random()`` returns multiples u of 2^-53, and
    ceil(c 2^53) <= u 2^53 iff c <= u, so past the m z (z-1)/2 keys of the
    rows before, the keys at or below u 2^53 + ((z-1) << 53) number
    ``np.searchsorted(cdf_z[:-1], u, side="right")``.
    """
    m = off_pvals.size - 1
    if m * cap * (cap - 1) // 2 + cap - 1 > _DRAW_CELLS:
        return None
    keys = [np.empty(0, np.int64)]
    for row, law in enumerate(_fold_laws(off_pvals, cap - 1)):
        cdf = np.minimum(np.ceil(np.cumsum(law)[:-1] * 2.0**53), 2.0**53)
        keys.append(cdf.astype(np.int64) + (row << 53))
    return np.concatenate(keys)


def _fold_laws(off_pvals: np.ndarray, rows: int) -> list[np.ndarray]:
    """Masses of the sum of z independent offspring counts, for z = 1 ...
    ``rows``, by repeated convolution of ``off_pvals``."""
    laws = [off_pvals][:rows]
    while len(laws) < rows:
        laws.append(np.convolve(laws[-1], off_pvals))
    return laws


def survival_mc(
    d: int,
    p: float,
    replicas: int,
    seed: int = 0,
    workers: int = 1,
) -> CappedEstimate:
    """Wilson 95% CI on theta, the survival probability of the rumor
    branching process.

    Each replica runs until it dies out or reaches the cap.  The cap is
    checked before each generation: a replica whose population has reached
    ``cap`` stops there, counts as surviving and is reported in
    ``cap_hits``.  The cap is the smallest c >= 1 with psi^c <= 0.1 /
    replicas, so the expected estimate moves by at most a tenth of one
    replica; psi is the extinction probability of the float offspring masses
    the kernel samples, from ``laws._survival_root`` rounded up by its
    tolerance, never from ``psi_root``.  A subcritical law, or a c
    above ``DEFAULT_POPULATION_CAP``, takes that cap instead.  The cap
    depends only on the law and ``replicas``.  A replica still alive below
    the cap after ``_GENERATION_GUARD`` generations counts as surviving and
    is reported in ``unresolved``.  A law whose z-fold cdfs for z = 1 ...
    cap-1 fit in ``_DRAW_CELLS`` cells (``_draw_keys``) draws one uniform
    per live replica and generation; any other draws multinomial splits.
    Replicas run in blocks of
    ``_BLOCK``; block b draws from the substream (seed, "gw", b) and workers
    take whole blocks, so results are independent of scheduling and of the
    worker count.
    """
    check_at_least("replicas", replicas, 1)
    init_pvals = law_N_prime_float(d, p)
    off_pvals = law_X_prime_float(d, p)
    init_pvals /= init_pvals.sum()
    off_pvals /= off_pvals.sum()
    psi = min(1.0 - _survival_root(off_pvals, 1.0) + _SURVIVAL_TOL, 1.0)
    cap = _cap_for(psi, replicas)
    keys = _draw_keys(off_pvals, cap)
    jobs = [
        (seed, b, min(_BLOCK, replicas - lo), init_pvals, off_pvals, keys, cap)
        for b, lo in enumerate(range(0, replicas, _BLOCK))
    ]
    parts = run_jobs(_survival_block, jobs, workers)
    survived, cap_hits, unresolved = (sum(column) for column in zip(*parts))
    low, high = wilson_interval(survived, replicas)
    return CappedEstimate(
        survived / replicas, low, high, replicas, seed,
        cap_hits=cap_hits, unresolved=unresolved, cap=cap, psi_pow_cap=psi**cap,
    )


def _cap_for(psi: float, replicas: int) -> int:
    """Smallest c >= 1 with psi^c <= _CAP_DEATHS / replicas, or
    ``DEFAULT_POPULATION_CAP`` if psi = 1 or c would exceed it."""
    bound = _CAP_DEATHS / replicas
    if psi >= 1.0:
        return DEFAULT_POPULATION_CAP
    c = max(1, math.ceil(math.log(bound) / math.log(psi)))
    # the logarithms may round either way: settle c on the powers themselves
    while c > 1 and psi ** (c - 1) <= bound:
        c -= 1
    while psi**c > bound:
        c += 1
    return min(c, DEFAULT_POPULATION_CAP)


def extinction_by_iteration(offspring_law: Sequence) -> float:
    """Extinction probability, the smallest fixed point of s = G(s), from the
    raw masses P(V = n) from n = 0, exact or float; an exact mass enters as
    its ``float``.

    ``laws._survival_root`` solves it from the masses alone, at p = 1, so no
    closed-form pgf enters and this is an oracle independent of ``psi_root``.
    """
    return 1.0 - _survival_root(np.asarray(offspring_law, dtype=float), 1.0)


def coupled_monotonicity_trial(d: int, p1: float, p2: float, seed: int = 0) -> bool:
    """Drive two branching processes (p1 <= p2) from one uniform stream.

    Both processes share every contact draw X and every thinning uniform U;
    process i keeps a contact when U <= p_i.  Returns True iff the dominated
    process never outnumbers the dominating one through ``_COUPLING_HORIZON``
    generations (which the coupling guarantees pathwise).  If a generation
    would draw more than ``_COUPLING_GUARD`` = 10^5 contacts, the trial stops
    early with the domination verified so far, so a trial holds
    O(_COUPLING_GUARD + sqrt(d)) numbers however large d is.
    """
    if not 0 < p1 <= p2 <= 1:
        raise ValueError(f"need 0 < p1 <= p2 <= 1, got p1={p1}, p2={p2}")
    _check_d(d)
    rng = np.random.default_rng([substream(seed, "coupling")])
    # cdfs of the float masses of N and X that law_*_prime_float thin; the
    # last value takes every uniform past the cdf's second-to-last entry, so
    # a sum that rounds below 1 cannot draw past the support
    n_cdf, x_cdf = (np.cumsum(m / m.sum())[:-1] for m in (_masses(d, True), _masses(d, False)))

    n = int(np.searchsorted(n_cdf, rng.random(), side="right"))
    u = rng.random(n)
    z1 = int(np.count_nonzero(u <= p1))
    z2 = int(np.count_nonzero(u <= p2))
    if z1 > z2:
        return False
    for _ in range(_COUPLING_HORIZON):
        if z2 == 0:
            return True
        x = np.searchsorted(x_cdf, rng.random(z2), side="right")
        total = int(x.sum())
        if total > _COUPLING_GUARD:
            return True
        owner = np.repeat(np.arange(z2), x)
        u = rng.random(total)
        kept1 = np.bincount(owner[u <= p1], minlength=z2)
        kept2 = np.bincount(owner[u <= p2], minlength=z2)
        z1_next = int(kept1[:z1].sum())
        z2_next = int(kept2.sum())
        if z1_next > z2_next:
            return False
        z1, z2 = z1_next, z2_next
    return True
