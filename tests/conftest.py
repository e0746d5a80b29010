import concurrent.futures

import pytest

from rumorlab import _seeds


@pytest.fixture
def pool_only(monkeypatch):
    """Send every job of a run with ``workers > 1`` to a pool of two processes."""
    monkeypatch.setattr(_seeds, "_INLINE_S", 0.0)
    monkeypatch.setattr(_seeds.os, "cpu_count", lambda: 2)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool by one that maps inline and starts no process.

    Returns the list of pools built, each with its ``max_workers`` and the
    ``chunksize`` it was mapped with.
    """
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.chunksize = None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs, chunksize=1):
            self.chunksize = chunksize
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools
