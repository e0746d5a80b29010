import itertools
import os
import types

import numpy as np
import pytest

from rumorlab import _seeds
from rumorlab._seeds import run_jobs, substream, substreams


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


@pytest.mark.parametrize(
    "key,value",
    [
        ((-1,), 2848447998088014325),
        ((0, "survival", 5), 11275217487500167946),
        ((2**127 - 1, "gw", 3), 4024506795085302468),
        ((-(2**63), "mt"), 6184293660281997714),
        ((7, "s", 0, -4, "x"), 13761499025790453448),
    ],
)
def test_substream_is_pinned(key, value):
    assert substream(*key) == value


@pytest.mark.parametrize("seed", [0, -7, 2**127 - 1, -(2**127)])
def test_substreams_match_substream(seed):
    indices = range(60, 200)
    expected = [substream(seed, "survival", r) for r in indices]
    assert list(substreams(seed, "survival", indices=indices)) == expected
    assert list(substreams(seed, indices=range(3))) == [substream(seed, r) for r in range(3)]


@pytest.mark.parametrize("key", [(7.7,), (3, "gw", 2.5), (3, 2.0)])
def test_substream_rejects_floats(key):
    with pytest.raises(TypeError):
        substream(*key)


def test_substream_takes_numpy_integers():
    assert substream(np.int64(3), "gw", np.uint8(2)) == substream(3, "gw", 2)
