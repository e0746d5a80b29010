import itertools
import os
import types

import pytest

from rumorlab import _seeds
from rumorlab._seeds import run_jobs


def job_and_pid(job):
    return job, os.getpid()


def test_pool_takes_the_tail_in_order(monkeypatch):
    # the clock passes 0.04 s per reading, so two jobs run inline
    clock = itertools.count(0.0, 0.04)
    monkeypatch.setattr(_seeds, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(_seeds, "_INLINE_S", 0.1)
    monkeypatch.setattr(_seeds.os, "cpu_count", lambda: 2)
    results = run_jobs(job_and_pid, list(range(10)), workers=2)
    assert [job for job, _ in results] == list(range(10))
    pids = [pid for _, pid in results]
    assert pids[:2] == [os.getpid()] * 2
    assert os.getpid() not in pids[2:]


def test_run_inside_the_inline_budget_builds_no_pool(recording_pool):
    assert run_jobs(abs, list(range(-50, 0)), workers=4) == list(range(50, 0, -1))
    assert recording_pool == []


@pytest.mark.parametrize("workers,jobs,cores,size", [(10_000, 50, 2, 2), (10_000, 3, 8, 3), (2, 50, 8, 2)])
def test_pool_size_capped_by_cores_and_jobs(monkeypatch, pool_only, recording_pool, workers, jobs, cores, size):
    monkeypatch.setattr(_seeds.os, "cpu_count", lambda: cores)
    assert run_jobs(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
    (pool,) = recording_pool
    assert pool.max_workers == size
    # about four chunks per process, not one round trip per job
    assert pool.chunksize == -(-jobs // (4 * size))


def test_one_core_runs_everything_inline(monkeypatch, pool_only, recording_pool):
    monkeypatch.setattr(_seeds.os, "cpu_count", lambda: 1)
    assert run_jobs(abs, [-1, -2, -3], workers=8) == [1, 2, 3]
    assert recording_pool == []


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_jobs(abs, [-1], workers)
