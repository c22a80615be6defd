"""The library's one process fan-out primitive.

One job fans work out over worker processes: a parallel sweep
(:class:`~repro.experiments.sweeps.SweepRunner` with ``n_jobs > 1``).  It
ships one large read-only state (the compiled encoding, its masked
structures and plans) to every worker once, then sends many small fit
calls against it.  :class:`WorkerPool` is that protocol:

* every worker runs ``build(state)`` once, in the pool initializer, and
  keeps what it returns;
* :meth:`WorkerPool.map` returns ``task(built, *args)`` per call, in call
  order (never completion order), so a caller's reduce is deterministic;
* when the start method pickles initializer arguments (``spawn`` and
  ``forkserver``; see :func:`sharing_is_worthwhile`), every array of at
  least :data:`SHARED_ARRAY_MIN_BYTES` inside the nested
  ``dict``/``list``/``tuple`` structure of ``state`` travels through one
  ``multiprocessing.shared_memory`` segment, so ``n`` workers cost one
  copy instead of ``n``.  Under ``fork`` the state is inherited
  copy-on-write and nothing is copied.

Workers receive read-only views: every attached array has its
``writeable`` flag cleared, so a worker that accidentally mutates shared
state fails loudly instead of corrupting its siblings.

:func:`resolve_n_jobs` and :func:`chunk_indices` are the worker-count
and balanced-split rules the sweep fan-out uses.  The module needs only
the standard library and numpy, and imports ``multiprocessing`` and
``concurrent.futures`` only when a pool is built, so every layer of the
library can import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

#: Arrays at least this large (bytes) are routed through shared memory
#: when sharing is active; smaller ones ride the pickle stream, where the
#: fixed cost of a segment entry would exceed the copy it avoids.
SHARED_ARRAY_MIN_BYTES = 1 << 16


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` setting to a concrete worker count.

    ``None`` means one worker per CPU this process may run on: the size
    of its scheduler affinity set where the platform reports one (so a
    ``taskset``-pinned or container-limited process does not oversubscribe),
    else ``os.cpu_count()``.  Explicit values must be positive integers
    (there is no sklearn-style ``-1`` spelling — pass ``None``).
    """
    if n_jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return max(len(os.sched_getaffinity(0)), 1)
        return max(os.cpu_count() or 1, 1)
    count = int(n_jobs)
    if count < 1:
        raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs!r}")
    return count


def chunk_indices(n_items: int, n_chunks: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous ranges.

    The ranges are non-empty, in order, and differ in length by at most
    one; ``n_items == 0`` gives none.  A pure function of
    ``(n_items, n_chunks)``, never of scheduling order.  Contiguity
    matters: the sweep engine hands each chunk to one worker task, and
    nearest-config warm-start donors are drawn from the chunk's own
    completed fits, so specs that were adjacent in the caller's sweep
    order stay adjacent in a worker.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be a positive integer, got {n_chunks!r}")
    n_parts = min(n_chunks, max(n_items, 1))
    bounds = np.linspace(0, n_items, n_parts + 1).astype(np.int64).tolist()
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]


def sharing_is_worthwhile() -> bool:
    """Whether the current start method pickles worker arguments.

    Under ``fork`` the initializer payload is inherited copy-on-write, so
    shared-memory indirection only adds bookkeeping; ``spawn`` and
    ``forkserver`` pickle the payload per worker, where one shared segment
    replaces ``n_jobs`` copies of the large arrays.
    """
    import multiprocessing

    return multiprocessing.get_start_method(allow_none=False) != "fork"


class SharedArrayPack:
    """Many named arrays packed into one shared-memory segment (owner side).

    The owning process builds the pack, ships :attr:`descriptor` (a small
    picklable dict) to workers, and must call :meth:`release` once the pool
    has shut down.  Workers attach with :func:`attach_shared_arrays`.
    """

    def __init__(self, arrays: Mapping[object, np.ndarray]) -> None:
        from multiprocessing import shared_memory

        entries: List[Tuple[object, str, tuple, int]] = []
        offset = 0
        contiguous: Dict[object, np.ndarray] = {}
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[key] = array
            offset = (offset + 7) & ~7  # 8-byte alignment per array
            entries.append((key, array.dtype.str, array.shape, offset))
            offset += array.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for key, dtype, shape, start in entries:
            view = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=start)
            view[...] = contiguous[key]
        self.descriptor = {"segment": self._shm.name, "entries": entries}

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


def attach_shared_arrays(descriptor: dict):
    """Attach to a :class:`SharedArrayPack` segment (worker side).

    Returns ``(arrays, segment)``: read-only views keyed like the owner's
    mapping, plus the ``SharedMemory`` handle the caller must keep
    referenced for as long as the views are in use.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=descriptor["segment"])
    # No attach-side resource_tracker bookkeeping: parent and workers share
    # one tracker whose per-type cache is a *set*, so the worker's attach
    # registration dedups against the owner's and the owner's unlink-time
    # unregister balances both.  An explicit worker-side unregister would
    # double-remove and crash the tracker at interpreter exit.
    arrays: Dict[object, np.ndarray] = {}
    for key, dtype, shape, offset in descriptor["entries"]:
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        view.flags.writeable = False
        arrays[key] = view
    return arrays, segment


@dataclass(frozen=True)
class _SharedRef:
    """Stand-in for an array moved into the pool's shared segment."""

    key: int


def _extract_shared(value, arrays: Dict[int, np.ndarray], min_bytes: int):
    """Copy of ``value`` with every large array moved into ``arrays``.

    Walks plain ``dict``/``list``/``tuple`` containers; any other object,
    and every array smaller than ``min_bytes`` or holding Python objects,
    is left for pickle.
    """
    if isinstance(value, np.ndarray):
        if value.nbytes < min_bytes or value.dtype.hasobject:
            return value
        key = len(arrays)
        arrays[key] = value
        return _SharedRef(key)
    kind = type(value)
    if kind is dict:
        return {key: _extract_shared(item, arrays, min_bytes) for key, item in value.items()}
    if kind is list or kind is tuple:
        return kind(_extract_shared(item, arrays, min_bytes) for item in value)
    return value


def _resolve_shared(value, arrays: Mapping[int, np.ndarray]):
    """Inverse of :func:`_extract_shared`: refs become attached views."""
    if isinstance(value, _SharedRef):
        return arrays[value.key]
    kind = type(value)
    if kind is dict:
        return {key: _resolve_shared(item, arrays) for key, item in value.items()}
    if kind is list or kind is tuple:
        return kind(_resolve_shared(item, arrays) for item in value)
    return value


#: ``(built, segment)`` of this worker process, set once by the pool
#: initializer; the segment handle must outlive the views in ``built``.
_WORKER: Optional[tuple] = None


def _start_worker(build: Callable, state, descriptor: Optional[dict]) -> None:
    global _WORKER
    segment = None
    if descriptor is not None:
        arrays, segment = attach_shared_arrays(descriptor)
        state = _resolve_shared(state, arrays)
    _WORKER = (build(state), segment)


def _run_task(task: Callable, args: tuple):
    return task(_WORKER[0], *args)


class WorkerPool:
    """Worker processes that each build one object from a shipped state.

    Parameters
    ----------
    build:
        Importable callable (workers unpickle it by name) run once per
        worker, in the pool initializer, as ``build(state)``; its result
        is the first argument of every task that worker runs.
    state:
        What the workers build from, shipped to each worker once (see
        the module docstring for the shared-memory transport of its
        arrays).  Workers must treat it as read-only.
    n_workers:
        Number of worker processes.

    :meth:`map` runs importable ``task(built, *args)`` callables in the
    workers.  :meth:`close` (or leaving a ``with`` block) shuts the
    workers down and releases the shared segment.
    """

    def __init__(self, build: Callable, state, n_workers: int) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self._executor = None
        self._pack: Optional[SharedArrayPack] = None
        descriptor = None
        if sharing_is_worthwhile():
            arrays: Dict[int, np.ndarray] = {}
            state = _extract_shared(state, arrays, SHARED_ARRAY_MIN_BYTES)
            if arrays:
                self._pack = SharedArrayPack(arrays)
                descriptor = self._pack.descriptor
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_start_worker,
                initargs=(build, state, descriptor),
            )
        except BaseException:
            self.close()
            raise

    def map(self, task: Callable, calls: Iterable[tuple]) -> list:
        """``task(built, *args)`` for each ``args`` in ``calls``, in call order."""
        futures = [self._executor.submit(_run_task, task, args) for args in calls]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the workers down and release the shared segment (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._pack is not None:
            self._pack.release()
            self._pack = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
