"""The one process fan-out primitive, ``repro.parallel.WorkerPool``.

A parallel sweep is its one consumer.  These tests pin the worker-count
rule, the balance of the split rule, the shared-memory transport — forced
for the sweep cases, since under ``fork`` it is never taken on its own,
and taken for real under ``spawn`` — and that the segment is released.
The split's contiguity and the pack round trip are pinned in
``tests/experiments/test_sweeps.py::TestParallelHelpers``.
"""

import functools
import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import parallel
from repro.data import generate
from repro.experiments import SweepRunner, leave_one_out_specs
from repro.parallel import SharedArrayPack, WorkerPool, chunk_indices, resolve_n_jobs
from tests.experiments.test_sweeps import CONFIGS, TIGHT, _assert_fits_match, _em_specs


def test_n_jobs_none_counts_usable_cpus(monkeypatch):
    # A process pinned to one CPU (taskset -c 0) on a 4-CPU machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_n_jobs(None) == 1


def test_chunk_indices_cover_and_balance():
    chunks = chunk_indices(10, 4)
    assert chunks[0].start == 0 and chunks[-1].stop == 10
    sizes = [len(chunk) for chunk in chunks]
    assert len(sizes) == 4
    assert min(sizes) >= 2 and max(sizes) <= 3
    with pytest.raises(ValueError, match="n_chunks must be a positive integer"):
        chunk_indices(10, 0)
    with pytest.raises(ValueError, match="n_items must be non-negative"):
        chunk_indices(-1, 4)


def _sweeps_case(config):
    dataset = generate(config).dataset
    specs = _em_specs(dataset, fractions=(0.1, 0.3)) + leave_one_out_specs(
        dataset,
        dataset.split(0.2, seed=0).train_truth,
        sources=dataset.sources.items[:1],
        overrides={"max_iterations": 4, **TIGHT},
    )
    serial = SweepRunner(dataset, mode="batched").run(specs)
    shm = SweepRunner(dataset, mode="batched", n_jobs=2).run(specs)
    _assert_fits_match(serial, shm)


CONSUMERS = {f"sweeps-{config.name}": functools.partial(_sweeps_case, config) for config in CONFIGS}


@pytest.mark.parametrize("case", list(CONSUMERS.values()), ids=list(CONSUMERS))
def test_forced_shared_memory_transport(case, monkeypatch):
    # Route every array through the shared segment whatever its size and
    # the start method; under fork the consumers would otherwise bypass it.
    packs = []

    class RecordingPack(SharedArrayPack):
        def __init__(self, arrays):
            super().__init__(arrays)
            packs.append(len(arrays))

    monkeypatch.setattr(parallel, "sharing_is_worthwhile", lambda: True)
    monkeypatch.setattr(parallel, "SHARED_ARRAY_MIN_BYTES", 1)
    monkeypatch.setattr(parallel, "SharedArrayPack", RecordingPack)
    case()
    assert packs, "no array went through a shared segment"


@pytest.fixture
def spawn_start_method():
    original = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(original, force=True)


def _keep(state):
    return state


def _inspect(built, key):
    array = built[key]
    return np.array(array), array.flags.writeable


def test_spawn_worker_sees_shared_read_only_arrays(spawn_start_method):
    large = np.arange(parallel.SHARED_ARRAY_MIN_BYTES // 8, dtype=np.int64)
    small = np.linspace(0.0, 1.0, 5)
    with WorkerPool(_keep, {"large": large, "small": small}, 1) as pool:
        segment = pool._pack.descriptor["segment"]
        (seen_large, large_writeable), (seen_small, small_writeable) = pool.map(
            _inspect, [("large",), ("small",)]
        )
    np.testing.assert_array_equal(seen_large, large)
    np.testing.assert_array_equal(seen_small, small)
    # The large array arrived as a read-only view of the segment; the small
    # one rode the pickle stream.
    assert not large_writeable
    assert small_writeable
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment)
