"""Stdlib-only serving metrics: counters and log-bucketed latency histograms.

The serving layer needs observability without pulling in a metrics
dependency, so this module keeps everything on the standard library:

* :class:`LatencyHistogram` — a thread-safe histogram over geometric
  buckets (default ratio ``2 ** 0.25`` from 1 microsecond to 60 seconds,
  ~105 buckets).  Percentile reads return the *upper bound* of the bucket
  holding the requested rank, so estimates quantize upward by at most the
  bucket ratio (~19% with the default); exact-latency assertions (such as
  the gate in ``benchmarks/bench_serve.py``) must keep raw samples instead.
* :class:`ServeMetrics` — the counters a :class:`~repro.serve.server.FusionServer`
  maintains: per-kind query counts with one shared lookup-latency
  histogram, ingest batch/observation/error counts, the snapshot publish
  count with a build-latency histogram, and the age of the currently
  published snapshot.

Query recording takes no lock: :meth:`ServeMetrics.record_query` appends
one ``(kind, seconds)`` sample to a list, and the list is folded into the
per-kind counts and the latency histogram in bulk, under the lock, every
:data:`QUERY_FOLD_SIZE` samples and before every read of them, so counts
stay exact.  Every other mutator takes the lock per call; readers never
hold a metrics lock while touching a snapshot.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LatencyHistogram", "ServeMetrics"]

#: Lock discipline, machine-checked by the ``RA2`` rule of
#: ``tools/repro_analysis``.  Both classes guard their mutable counters
#: with an instance ``_lock``; the histogram bucket bounds are immutable
#: after construction and deliberately unlisted.
GUARDED_BY = {
    # LatencyHistogram
    "_counts": "_lock",
    "_count": "_lock",
    "_sum": "_lock",
    "_max": "_lock",
    # ServeMetrics.  ``_query_samples`` is deliberately unguarded:
    # record_query only appends to its tail, and the fold, under
    # ``_lock``, copies ``pending[:n]`` and then runs ``del pending[:n]``,
    # so a sample appended in between stays for the next fold.
    "_query_counts": "_lock",
    "_ingest_batches": "_lock",
    "_ingest_observations": "_lock",
    "_ingest_errors": "_lock",
    "_swaps": "_lock",
    "_last_publish_monotonic": "_lock",
}

#: Query samples :meth:`ServeMetrics.record_query` buffers before it folds
#: them into the counters in one locked pass.
QUERY_FOLD_SIZE = 1024


class LatencyHistogram:
    """Thread-safe latency histogram over geometric buckets.

    Parameters
    ----------
    min_seconds, max_seconds:
        Range covered by the geometric buckets; samples below the range
        land in the first bucket, samples above it in a final overflow
        bucket whose percentile reads report the maximum observed value.
    growth:
        Ratio between consecutive bucket bounds.  Percentile estimates
        quantize upward by at most this factor.
    """

    def __init__(
        self,
        min_seconds: float = 1e-6,
        max_seconds: float = 60.0,
        growth: float = 2**0.25,
    ) -> None:
        if not min_seconds > 0 or not max_seconds > min_seconds or not growth > 1.0:
            raise ValueError("need 0 < min_seconds < max_seconds and growth > 1")
        bounds: List[float] = []
        bound = min_seconds
        while bound < max_seconds:
            bounds.append(bound)
            bound *= growth
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one sample (in seconds)."""
        index = bisect.bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    def record_many(self, seconds: Sequence[float]) -> None:
        """Add a batch of samples: one vectorized bucket search, one lock."""
        samples = np.asarray(seconds, dtype=float)
        if samples.shape[0] == 0:
            return
        # searchsorted(side="left") is bisect_left: the buckets record() picks.
        counts = np.bincount(
            np.searchsorted(self._bounds, samples, side="left"), minlength=len(self._bounds) + 1
        ).tolist()
        total = float(samples.sum())
        peak = float(samples.max())
        with self._lock:
            self._counts = [old + new for old, new in zip(self._counts, counts)]
            self._count += samples.shape[0]
            self._sum += total
            if peak > self._max:
                self._max = peak

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        with self._lock:
            return self._count

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded samples."""
        with self._lock:
            return self._sum

    @property
    def max_seconds(self) -> float:
        """Largest recorded sample (0.0 when empty)."""
        with self._lock:
            return self._max

    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (``0 < q <= 1``).

        Returns the upper bound of the bucket containing the requested
        rank — an overestimate by at most the bucket ratio — or the exact
        maximum for ranks landing in the overflow bucket.  0.0 when empty.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            rank = max(1, int(q * count + 0.999999))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank:
                    if index < len(self._bounds):
                        return self._bounds[index]
                    return self._max
            return self._max

    def as_dict(self) -> Dict[str, float]:
        """Summary snapshot: count, mean, max, p50/p90/p99."""
        with self._lock:
            count = self._count
            total = self._sum
            maximum = self._max
        return {
            "count": count,
            "mean_seconds": total / count if count else 0.0,
            "max_seconds": maximum,
            "p50_seconds": self.percentile(0.50),
            "p90_seconds": self.percentile(0.90),
            "p99_seconds": self.percentile(0.99),
        }


class ServeMetrics:
    """Counters and histograms maintained by a serving front-end.

    Tracks per-kind query counts (one shared lookup-latency histogram),
    ingest batches/observations/errors, snapshot publishes (count and
    build-latency histogram) and the age of the currently published
    snapshot.  All methods are thread-safe; :meth:`as_dict` returns a
    plain-dict snapshot suitable for JSON export.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._query_latency = LatencyHistogram()
        self.publish_latency = LatencyHistogram()
        self._query_samples: List[Tuple[str, float]] = []
        self._query_counts: Dict[str, int] = {}
        self._ingest_batches = 0
        self._ingest_observations = 0
        self._ingest_errors = 0
        self._swaps = 0
        self._last_publish_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Recorders
    # ------------------------------------------------------------------
    def record_query(self, kind: str, seconds: float) -> None:
        """Count one query of ``kind`` and add its latency sample.

        Appends to a buffer without a lock; see :data:`QUERY_FOLD_SIZE`.
        """
        samples = self._query_samples
        samples.append((kind, seconds))
        if len(samples) >= QUERY_FOLD_SIZE:
            with self._lock:
                self._fold_queries()

    def _fold_queries(self) -> None:  # repro-analysis: holds[_lock]
        """Move the buffered query samples into the counts and the histogram."""
        pending = self._query_samples
        n = len(pending)
        if n == 0:
            return
        kinds, seconds = zip(*pending[:n])
        del pending[:n]
        for kind, count in Counter(kinds).items():
            self._query_counts[kind] = self._query_counts.get(kind, 0) + count
        self._query_latency.record_many(seconds)

    def record_ingest(self, n_observations: int) -> None:
        """Count one successfully ingested batch."""
        with self._lock:
            self._ingest_batches += 1
            self._ingest_observations += int(n_observations)

    def record_ingest_error(self) -> None:
        """Count one rejected ingest batch (e.g. duplicate claims)."""
        with self._lock:
            self._ingest_errors += 1

    def record_publish(self, build_seconds: float) -> None:
        """Count one snapshot publish and add its build time."""
        self.publish_latency.record(build_seconds)
        with self._lock:
            self._swaps += 1
            self._last_publish_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    @property
    def query_latency(self) -> LatencyHistogram:
        """Latency histogram of every recorded query."""
        with self._lock:
            self._fold_queries()
        return self._query_latency

    @property
    def query_count(self) -> int:
        """Total queries across all kinds."""
        return self.query_latency.count

    @property
    def query_counts(self) -> Dict[str, int]:
        """Per-kind query counts (a copy)."""
        with self._lock:
            self._fold_queries()
            return dict(self._query_counts)

    @property
    def ingest_batches(self) -> int:
        """Successfully ingested batches."""
        with self._lock:
            return self._ingest_batches

    @property
    def ingest_observations(self) -> int:
        """Successfully ingested observations."""
        with self._lock:
            return self._ingest_observations

    @property
    def ingest_errors(self) -> int:
        """Rejected ingest batches."""
        with self._lock:
            return self._ingest_errors

    @property
    def swap_count(self) -> int:
        """Published snapshot swaps."""
        with self._lock:
            return self._swaps

    def snapshot_age_seconds(self) -> Optional[float]:
        """Seconds since the last publish (None before the first)."""
        with self._lock:
            last = self._last_publish_monotonic
        return None if last is None else time.monotonic() - last

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every counter and histogram summary."""
        age = self.snapshot_age_seconds()
        with self._lock:
            # Folding and reading under one hold keeps the total, the
            # per-kind counts and the histogram on the same samples.
            self._fold_queries()
            counts = dict(self._query_counts)
            query_latency = self._query_latency.as_dict()
            ingest = {
                "batches": self._ingest_batches,
                "observations": self._ingest_observations,
                "errors": self._ingest_errors,
            }
            swaps = self._swaps
        return {
            "queries": {"total": query_latency["count"], "by_kind": counts},
            "query_latency": query_latency,
            "ingest": ingest,
            "snapshots": {"swaps": swaps, "age_seconds": age},
            "publish_latency": self.publish_latency.as_dict(),
        }
