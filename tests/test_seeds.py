import itertools
import os
import re
import types

import numpy as np
import pytest

from rumorlab import (
    _seeds,
    cayley,
    coupled_monotonicity_trial,
    estimate_survival_ctmc,
    estimate_survival_levels,
    offspring_empirical,
    path_traversal_empirical,
    simulate_mt,
    survival_mc,
)
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


SEEDED_CALLS = {
    "substream": lambda seed: substream(seed, "gw", 0),
    "substreams": lambda seed: next(substreams(seed, "survival", indices=range(3))),
    "substream_random": lambda seed: _seeds.substream_random(seed, "mt"),
    "survival_mc": lambda seed: survival_mc(4, 0.9, 10, seed=seed),
    "coupled_monotonicity_trial": lambda seed: coupled_monotonicity_trial(3, 0.5, 0.9, seed=seed),
    "simulate_mt": lambda seed: simulate_mt(cayley(3), 0.9, 5, seed=seed),
    "estimate_survival_ctmc": lambda seed: estimate_survival_ctmc(cayley(3), 0.9, 5, replicas=10, seed=seed),
    "estimate_survival_levels": lambda seed: estimate_survival_levels(cayley(3), 0.9, [5], replicas=10, seed=seed),
    "offspring_empirical": lambda seed: offspring_empirical(3, 0.9, 10, seed=seed),
    "path_traversal_empirical": lambda seed: path_traversal_empirical(3, 10, seed=seed),
}


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, -(2**200)])
@pytest.mark.parametrize("entry", sorted(SEEDED_CALLS))
def test_seed_outside_16_bytes_is_value_error(entry, seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [-2**127, 2**127), got {seed}")):
        SEEDED_CALLS[entry](seed)
