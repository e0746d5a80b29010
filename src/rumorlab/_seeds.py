"""Deterministic substreams, the replica-parallel runner, and the Wilson
interval that both Monte Carlo engines report.

Every stochastic component derives its randomness from a master seed in
[-2**127, 2**127) plus a structured path (replica or block index, purpose
tag).  The derivation hashes the path with BLAKE2b, so substreams are
independent of scheduling order and stable across platforms and Python
versions (unlike ``hash()``, which is salted per process).

``run_jobs`` runs a list of such jobs inline, in order, and hands the jobs
still left after ``_INLINE_S`` seconds to a process pool of at most the core
count.  The engines split their replicas into fixed-size jobs that do not
depend on the worker count, so where a job runs changes no draw.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import check_at_least

#: seconds of inline work before the remaining jobs go to a process pool.
#: On a 2-core x86-64 host, starting and joining a 2-process pool costs
#: 10-12 ms warm and, in a fresh interpreter, about 14 ms plus 23 ms to
#: import the pool stack.  Two workers win back that ~40 ms only on runs
#: longer than about 0.08 s, and a long run loses at most this budget times
#: (1 - 1/workers) to running inline first.
_INLINE_S = 0.1

#: pool chunks per worker: few round trips, still some load balancing
_CHUNKS_PER_WORKER = 4

#: two-sided 95% normal quantile used by the Wilson score interval
Z95 = 1.959963984540054


def _part(part: int | str) -> bytes:
    """The bytes hashed for one path part.  An integer part, like the
    master seed, goes through ``operator.index``: a float is a TypeError,
    never truncated."""
    if isinstance(part, str):
        return b"s" + part.encode("utf-8") + b"\x00"
    return b"i" + operator.index(part).to_bytes(16, "little", signed=True)


def _prefix(master_seed: int, path: tuple):
    """A BLAKE2b state that has hashed ``(master_seed, *path)``.  The seed is
    hashed as 16 signed bytes, so one outside [-2**127, 2**127) is a
    ValueError."""
    seed = operator.index(master_seed)
    if not -(1 << 127) <= seed < 1 << 127:
        raise ValueError(f"a seed must be an integer in [-2**127, 2**127), got {seed}")
    data = seed.to_bytes(16, "little", signed=True) + b"".join(map(_part, path))
    return hashlib.blake2b(data, digest_size=8)


def substream(master_seed: int, *path: int | str) -> int:
    """Derive a 64-bit substream seed from ``(master_seed, *path)``."""
    return int.from_bytes(_prefix(master_seed, path).digest(), "little")


def substreams(master_seed: int, *path: int | str, indices: range) -> Iterator[int]:
    """``substream(master_seed, *path, i)`` for each i in ``indices``,
    hashing the shared prefix once and copying its state per index."""
    prefix = _prefix(master_seed, path)
    for i in indices:
        h = prefix.copy()
        h.update(_part(i))
        yield int.from_bytes(h.digest(), "little")


def substream_random(master_seed: int, *path: int | str) -> random.Random:
    """A ``random.Random`` seeded from a derived substream."""
    return random.Random(substream(master_seed, *path))


def run_jobs(fn: Callable, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, finishing over a process pool.

    Jobs run inline, in order.  When ``workers > 1`` and jobs are still left
    after ``_INLINE_S`` seconds, the rest go to a pool of
    ``min(workers, jobs left, os.cpu_count())`` processes.  Each job carries
    its own seed, so the results do not depend on where a job runs.
    """
    check_at_least("workers", workers, 1)
    deadline = time.perf_counter() + _INLINE_S
    results = []
    for job in jobs:
        if workers > 1 and time.perf_counter() >= deadline:
            break
        results.append(fn(job))
    rest = jobs[len(results):]
    n = min(workers, len(rest), os.cpu_count() or 1)
    if n <= 1:
        return results + [fn(job) for job in rest]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(rest) // (n * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(max_workers=n) as pool:
        return results + list(pool.map(fn, rest, chunksize=chunksize))


@dataclass(frozen=True)
class EstimateCI:
    """Monte Carlo proportion with a 95% Wilson score interval."""

    estimate: float
    ci_low: float
    ci_high: float
    replicas: int
    seed: int
    method: str = "wilson"


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.  The ends are
    exactly 0 at 0 successes and exactly 1 at n, where rounding would
    otherwise leave them a hair inside."""
    check_at_least("n", n, 1)
    phat = successes / n
    z = Z95
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high
