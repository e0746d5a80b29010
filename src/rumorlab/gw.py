"""Galton-Watson engine: trajectory simulation, survival Monte Carlo, and
the shared-uniform monotone coupling.

The embedded branching process has initial count distributed as N' and
offspring distributed as X'.  One generation step draws the offspring of all
current individuals at once as a multinomial split of the population over
the offspring support, which is exact and O(support) per generation no
matter how large the population grows.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._seeds import substream
from .errors import NumericFault
from .laws import Pmf, law_N, law_N_prime, law_X, law_X_prime

#: two-sided 95% normal quantile used by the Wilson score interval
Z95 = 1.959963984540054

DEFAULT_HORIZON = 60
DEFAULT_POPULATION_CAP = 10_000_000


@dataclass(frozen=True)
class EstimateCI:
    """Monte Carlo proportion with a 95% Wilson score interval."""

    estimate: float
    ci_low: float
    ci_high: float
    replicas: int
    seed: int
    method: str = "wilson"


@dataclass(frozen=True)
class CappedEstimate(EstimateCI):
    """Estimate that counts replicas stopped by a cap as successes.

    ``cap_hits`` says how many replicas that was, so the upward bias the cap
    introduces is visible in every report.
    """

    cap_hits: int = 0


@dataclass(frozen=True)
class GwSpec:
    """Branching process specification: initial law, offspring law, limits."""

    initial_law: Pmf
    offspring_law: Pmf
    max_generations: int = DEFAULT_HORIZON
    population_cap: int = DEFAULT_POPULATION_CAP

    def __post_init__(self) -> None:
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if self.population_cap < 1:
            raise ValueError("population_cap must be at least 1")


@dataclass(frozen=True)
class GwOutcome:
    """One trajectory summary.

    ``capped`` trajectories are counted as survival: the chance that a
    population above the cap later dies is negligible, and the bias this
    introduces is upward by construction.
    """

    survived_to_horizon: bool
    extinction_generation: int | None
    peak_population: int
    capped: bool


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _support_and_pvals(law: Pmf) -> tuple[np.ndarray, np.ndarray]:
    values = np.arange(law.support_min, law.support_max + 1)
    pvals = law.to_floats()
    return values, pvals / pvals.sum()


def _draw_initial(rng: np.random.Generator, values: np.ndarray, cdf: np.ndarray) -> int:
    return int(values[np.searchsorted(cdf, rng.random(), side="right")])


def _run_trajectory(
    rng: np.random.Generator,
    init_values: np.ndarray,
    init_cdf: np.ndarray,
    off_values: np.ndarray,
    off_pvals: np.ndarray,
    max_generations: int,
    population_cap: int,
) -> GwOutcome:
    z = _draw_initial(rng, init_values, init_cdf)
    peak = z
    if z == 0:
        return GwOutcome(False, 0, 0, False)
    for gen in range(1, max_generations + 1):
        if z >= population_cap:
            return GwOutcome(True, None, peak, True)
        counts = rng.multinomial(z, off_pvals)
        z = int(counts @ off_values)
        peak = max(peak, z)
        if z == 0:
            return GwOutcome(False, gen, peak, False)
    return GwOutcome(True, None, peak, False)


def simulate_gw(spec: GwSpec, rng_seed: int) -> GwOutcome:
    """Simulate one trajectory of Z_{n+1} = sum of Z_n iid offspring draws."""
    rng = np.random.default_rng(rng_seed)
    init_values, init_pvals = _support_and_pvals(spec.initial_law)
    off_values, off_pvals = _support_and_pvals(spec.offspring_law)
    return _run_trajectory(
        rng,
        init_values,
        np.cumsum(init_pvals),
        off_values,
        off_pvals,
        spec.max_generations,
        spec.population_cap,
    )


def _survival_chunk(args) -> tuple[int, int]:
    (seed, lo, hi, init_values, init_cdf, off_values, off_pvals, horizon, cap) = args
    survived = 0
    capped = 0
    for r in range(lo, hi):
        rng = np.random.default_rng([seed, r])
        out = _run_trajectory(
            rng, init_values, init_cdf, off_values, off_pvals, horizon, cap
        )
        survived += out.survived_to_horizon
        capped += out.capped
    return survived, capped


def survival_mc(
    d: int,
    p: float,
    replicas: int,
    horizon: int = DEFAULT_HORIZON,
    cap: int = DEFAULT_POPULATION_CAP,
    seed: int = 0,
    workers: int = 1,
) -> CappedEstimate:
    """Wilson 95% CI on P(Z_horizon >= 1) for the rumor branching process.

    Trajectories that reach the population ``cap`` count as surviving and
    are reported in ``cap_hits``.  Replica r draws its generator from the
    substream [seed, r], so results are independent of scheduling and of
    the worker count.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    init_values, init_pvals = _support_and_pvals(law_N_prime(d, p))
    off_values, off_pvals = _support_and_pvals(law_X_prime(d, p))
    init_cdf = np.cumsum(init_pvals)

    if workers <= 1:
        survived, cap_hits = _survival_chunk(
            (seed, 0, replicas, init_values, init_cdf, off_values, off_pvals, horizon, cap)
        )
    else:
        bounds = np.linspace(0, replicas, workers + 1, dtype=int)
        jobs = [
            (seed, int(lo), int(hi), init_values, init_cdf, off_values, off_pvals, horizon, cap)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_survival_chunk, jobs))
        survived = sum(s for s, _ in parts)
        cap_hits = sum(c for _, c in parts)

    low, high = wilson_interval(survived, replicas)
    return CappedEstimate(survived / replicas, low, high, replicas, seed, cap_hits=cap_hits)


def extinction_by_iteration(offspring_law: Pmf, tol: float = 1e-12) -> float:
    """Extinction probability by iterating s <- G(s) from 0 on the raw pmf.

    This is the classical smallest-fixed-point construction and serves as an
    oracle independent of any closed-form pgf evaluation.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    probs = list(offspring_law.to_floats())[::-1]
    smin = offspring_law.support_min
    s = 0.0
    prev_delta = 0.0
    for _ in range(1_000_000):
        acc = 0.0
        for q in probs:
            acc = acc * s + q
        if smin:
            acc *= s ** smin
        delta = abs(acc - s)
        s = acc
        if delta == 0.0:
            return s
        # Convergence is linear with rate G'(psi); near criticality that rate
        # approaches 1, so bound the remaining distance by the geometric tail
        # delta * r / (1 - r) instead of stopping on the raw step size.
        if prev_delta > 0.0:
            rate = delta / prev_delta
            if rate < 1.0 and delta * rate / (1.0 - rate) < tol:
                return s
        prev_delta = delta
    raise NumericFault("pgf iteration exceeded its cap without converging")


def sample_offspring(
    d: int, p: float, size: int, seed: int, mode: str = "cdf"
) -> np.ndarray:
    """Draw X' samples either by inverse CDF or by binomial thinning of X.

    The two modes must agree in distribution; 'thin' mirrors the coupling
    construction X' = sum of X Bernoulli(p) indicators.
    """
    rng = np.random.default_rng([seed])
    if mode == "cdf":
        values, pvals = _support_and_pvals(law_X_prime(d, p))
        cdf = np.cumsum(pvals)
        return values[np.searchsorted(cdf, rng.random(size), side="right")]
    if mode == "thin":
        values, pvals = _support_and_pvals(law_X(d))
        cdf = np.cumsum(pvals)
        x = values[np.searchsorted(cdf, rng.random(size), side="right")]
        return rng.binomial(x, p)
    raise ValueError(f"unknown sampling mode {mode!r}")


def coupled_monotonicity_trial(
    d: int,
    p1: float,
    p2: float,
    horizon: int = 30,
    seed: int = 0,
    population_guard: int = DEFAULT_POPULATION_CAP,
) -> bool:
    """Drive two branching processes (p1 <= p2) from one uniform stream.

    Both processes share every contact draw X and every thinning uniform U;
    process i keeps a contact when U <= p_i.  Returns True iff the dominated
    process never outnumbers the dominating one through ``horizon``
    generations (which the coupling guarantees pathwise).  If the dominating
    population exceeds ``population_guard`` the trial stops early with the
    domination verified so far.
    """
    if not 0 < p1 <= p2 <= 1:
        raise ValueError(f"need 0 < p1 <= p2 <= 1, got p1={p1}, p2={p2}")
    rng = np.random.default_rng([substream(seed, "coupling")])
    n_values, n_pvals = _support_and_pvals(law_N(d))
    x_values, x_pvals = _support_and_pvals(law_X(d))
    n_cdf = np.cumsum(n_pvals)
    x_cdf = np.cumsum(x_pvals)

    n = _draw_initial(rng, n_values, n_cdf)
    u = rng.random(n)
    z1 = int(np.count_nonzero(u <= p1))
    z2 = int(np.count_nonzero(u <= p2))
    if z1 > z2:
        return False
    for _ in range(horizon):
        if z2 == 0:
            return True
        if z2 > population_guard:
            return True
        x = x_values[np.searchsorted(x_cdf, rng.random(z2), side="right")]
        total = int(x.sum())
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
