"""Deterministic substreams and the replica-parallel runner.

Every stochastic component derives its randomness from a 64-bit master seed
plus a structured path (replica or block index, purpose tag).  The
derivation hashes the path with BLAKE2b, so substreams are independent of
scheduling order and stable across platforms and Python versions (unlike
``hash()``, which is salted per process).
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Callable


def substream(master_seed: int, *path: int | str) -> int:
    """Derive a 64-bit substream seed from ``(master_seed, *path)``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master_seed).to_bytes(16, "little", signed=True))
    for part in path:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def substream_random(master_seed: int, *path: int | str) -> random.Random:
    """A ``random.Random`` seeded from a derived substream."""
    return random.Random(substream(master_seed, *path))


def run_jobs(fn: Callable, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when ``workers > 1``.

    Each job carries its own seed, so the results do not depend on which
    worker runs which job.  One job, or ``workers <= 1``, runs inline.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))
