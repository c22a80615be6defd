"""Concurrent fusion serving: one published snapshot reference, one writer lock.

:class:`FusionServer` puts a query front-end over a
:class:`~repro.extensions.streaming.StreamingFuser`:

* **Readers** load the currently published
  :class:`~repro.serve.snapshot.Snapshot` reference once and query it —
  no lock, so a read never waits on ingest.  :meth:`FusionServer.read`
  yields that one reference for a block of queries that must agree.
* **The writer** (one thread; either the caller or the built-in queue
  loop started by :meth:`FusionServer.start`) appends batches to the
  fuser's :class:`~repro.fusion.encoding.IncrementalEncoding`, optionally
  re-anchors via the fuser's periodic
  :func:`~repro.core.em.fit_incremental` re-fit, and periodically
  **publishes**: build a fresh snapshot from the live state, then swap
  it in by assigning the published reference.  A superseded snapshot is
  not invalidated or tracked: it lives, and keeps answering with its own
  data, as long as someone holds it.

The contract readers rely on: a snapshot obtained from the server is
internally consistent forever (no torn state, no mutation after
publish), and obtaining one costs the same whether or not an ingest or
publish is in flight.  That rests on two facts: snapshots never mutate,
and loading or storing one attribute is atomic in CPython.

All mutating entry points serialize on a writer lock, so a single
``FusionServer`` tolerates multiple writer threads — but the intended
topology is one writer (the :meth:`start` queue loop) and many readers.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from ..extensions.streaming import StreamingFuser
from ..fusion.types import ObjectId, Observation, SourceId, Value
from .metrics import ServeMetrics
from .snapshot import ConflictEntry, Snapshot

__all__ = ["FusionServer"]

#: Lock discipline, machine-checked by the ``RA2`` rule of
#: ``tools/repro_analysis``: every read or write of these attributes must
#: happen inside a ``with self.<lock>:`` block (or in ``__init__``, or in
#: a function annotated ``# repro-analysis: holds[<lock>]``).  Keep this
#: table in sync with the concurrency story in the module docstring.
#: ``_snapshot`` is deliberately unlisted: one writer assigns it under
#: ``_write_lock``, readers do one attribute load (atomic in CPython),
#: and snapshots never mutate.
GUARDED_BY = {
    "_batches_since_publish": "_write_lock",
}

#: Most items (batches, truth reveals, publish requests) the writer loop
#: holds queued.  At the bound an enqueuing call blocks until the writer
#: catches up: a producer faster than the writer gets backpressure instead
#: of unbounded memory, and no batch is dropped.  Blocking cannot deadlock
#: the writer, because nothing on the writer thread enqueues
#: (``publish_every`` publishes directly).
WRITER_QUEUE_SIZE = 64

_STOP = object()


class FusionServer:
    """Snapshot-swap serving front-end over a streaming fuser.

    Parameters
    ----------
    fuser:
        The :class:`~repro.extensions.streaming.StreamingFuser` to serve
        (its ``refit_every``/``trust_decay`` configuration is the ingest
        policy).  Omit it to have one built from ``fuser_kwargs``.
    publish_every:
        Auto-publish after this many ingested batches (None = publish
        only on explicit :meth:`publish` calls).
    with_dataset:
        When True every publish also exports the accumulated stream as a
        dataset with its frozen compiled encoding attached (O(n) per
        publish; useful when snapshots feed batch tooling or are
        pickled/shipped elsewhere).
    metrics:
        A :class:`~repro.serve.metrics.ServeMetrics` to record into
        (a fresh one by default).
    """

    def __init__(
        self,
        fuser: Optional[StreamingFuser] = None,
        *,
        publish_every: Optional[int] = None,
        with_dataset: bool = False,
        metrics: Optional[ServeMetrics] = None,
        **fuser_kwargs: object,
    ) -> None:
        if fuser is None:
            fuser = StreamingFuser(**fuser_kwargs)
        elif fuser_kwargs:
            raise ValueError("pass fuser_kwargs only when the server builds the fuser")
        if publish_every is not None and publish_every <= 0:
            raise ValueError("publish_every must be a positive batch count")
        self.fuser = fuser
        self.publish_every = publish_every
        self.with_dataset = with_dataset
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._snapshot = Snapshot.empty(version=0)
        self._write_lock = threading.RLock()
        self._batches_since_publish = 0
        self._queue: Optional[queue.Queue] = None
        self._writer_thread: Optional[threading.Thread] = None
        self.last_ingest_error: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    @contextmanager
    def read(self) -> Iterator[Snapshot]:
        """Yield the published snapshot for a block of queries.

        The block sees that one snapshot throughout, even if a publish
        supersedes it mid-read.
        """
        yield self._snapshot

    @property
    def snapshot(self) -> Snapshot:
        """The published snapshot."""
        return self._snapshot

    @property
    def version(self) -> int:
        """Version of the published snapshot (0 until the first publish)."""
        return self._snapshot.version

    def _timed(self, kind: str, fn):
        start = time.perf_counter()
        out = fn(self._snapshot)
        self.metrics.record_query(kind, time.perf_counter() - start)
        return out

    def posterior(self, obj: ObjectId) -> Dict[Value, float]:
        """Published posterior over one object's claimed values."""
        return self._timed("posterior", lambda snapshot: snapshot.posterior(obj))

    def value(self, obj: ObjectId) -> Optional[Value]:
        """Published MAP value for one object (None if unseen)."""
        return self._timed("value", lambda snapshot: snapshot.value(obj))

    def confidence(self, obj: ObjectId) -> Optional[float]:
        """Published MAP confidence for one object."""
        return self._timed("confidence", lambda snapshot: snapshot.confidence(obj))

    def top_conflicts(self, k: int = 10) -> List[ConflictEntry]:
        """The k most-conflicting objects of the published snapshot."""
        return self._timed("top_conflicts", lambda snapshot: snapshot.top_conflicts(k))

    def source_accuracy(self, source: SourceId) -> Optional[float]:
        """Published reliability estimate of one source."""
        return self._timed("source_accuracy", lambda snapshot: snapshot.source_accuracy(source))

    def source_accuracies(self) -> Dict[SourceId, float]:
        """Published reliability estimates of every source."""
        return self._timed("source_accuracy", lambda snapshot: snapshot.source_accuracies())

    # ------------------------------------------------------------------
    # Writer side (synchronous entry points)
    # ------------------------------------------------------------------
    def append(self, observations: Sequence[Observation]) -> int:
        """Ingest one batch into the live fuser (auto-publishing per policy).

        Returns the number of observations appended.  Raises whatever the
        encoding raises on invalid batches (e.g. duplicate
        ``(source, object)`` claims) — the queue loop catches these and
        counts them instead.
        """
        observations = list(observations)
        with self._write_lock:
            self.fuser.observe_batch(observations)
            self._batches_since_publish += 1
            self.metrics.record_ingest(len(observations))
            if (
                self.publish_every is not None
                and self._batches_since_publish >= self.publish_every
            ):
                self.publish()
        return len(observations)

    def reveal_truth(self, obj: ObjectId, value: Value) -> None:
        """Feed a ground-truth label to the live fuser."""
        with self._write_lock:
            self.fuser.reveal_truth(obj, value)

    def refit(self) -> None:
        """Force a warm-started EM re-anchor of the live fuser."""
        with self._write_lock:
            self.fuser.refit()

    def publish(self) -> Snapshot:
        """Build a snapshot from the live state and publish it.

        The build (the expensive part: one segmented softmax plus the
        conflict index) holds only the writer lock, so readers keep
        querying the previous snapshot until the single reference
        assignment that publishes the new one.
        """
        with self._write_lock:
            build_start = time.perf_counter()
            snapshot = Snapshot.from_fuser(
                self.fuser, version=self._snapshot.version + 1, with_dataset=self.with_dataset
            )
            build_seconds = time.perf_counter() - build_start
            self._snapshot = snapshot
            self._batches_since_publish = 0
            self.metrics.record_publish(build_seconds)
            return snapshot

    # ------------------------------------------------------------------
    # Background writer loop
    # ------------------------------------------------------------------
    def start(self) -> "FusionServer":
        """Start the background writer thread draining :meth:`ingest` calls."""
        if self._writer_thread is not None:
            raise RuntimeError("writer loop already running")
        self._queue = queue.Queue(maxsize=WRITER_QUEUE_SIZE)
        self._writer_thread = threading.Thread(
            target=self._drain, name="fusion-serve-writer", daemon=True
        )
        self._writer_thread.start()
        return self

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                kind, payload = item
                try:
                    if kind == "batch":
                        self.append(payload)
                    elif kind == "truth":
                        self.reveal_truth(*payload)
                    elif kind == "publish":
                        self.publish()
                except Exception as error:  # keep draining past bad batches
                    self.last_ingest_error = error
                    self.metrics.record_ingest_error()
            finally:
                self._queue.task_done()

    def _require_writer(self) -> queue.Queue:
        if self._queue is None:
            raise RuntimeError("writer loop not running; call start() first")
        return self._queue

    def ingest(self, observations: Sequence[Observation]) -> None:
        """Enqueue a batch for the writer loop.

        Returns once the batch is queued, which blocks while the queue
        holds :data:`WRITER_QUEUE_SIZE` items (backpressure; see there).
        """
        self._require_writer().put(("batch", list(observations)))

    def ingest_truth(self, obj: ObjectId, value: Value) -> None:
        """Enqueue a ground-truth reveal for the writer loop (blocks when full)."""
        self._require_writer().put(("truth", (obj, value)))

    def request_publish(self) -> None:
        """Enqueue an explicit publish for the writer loop (blocks when full)."""
        self._require_writer().put(("publish", None))

    def flush(self) -> None:
        """Block until the writer loop has drained everything enqueued."""
        self._require_writer().join()

    def stop(self, publish: bool = False) -> None:
        """Stop the writer loop (optionally publishing the final state)."""
        if self._writer_thread is None:
            return
        if publish:
            self.request_publish()
        self._queue.put(_STOP)
        self._writer_thread.join()
        self._writer_thread = None
        self._queue = None
