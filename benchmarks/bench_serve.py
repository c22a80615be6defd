"""Benchmark the serving layer: lookup latency under a live write stream.

Measures the ``repro.serve`` snapshot-swap front-end over a synthetic
fusion workload in three steps:

1. **Ratio cases** (gated like the engine benchmark's): ``serve_lookup``
   compares a posterior lookup against the published snapshot with the
   same query answered by the live streaming engine's softmax path, and
   ``serve_topk`` compares a snapshot's kept conflict index (built once,
   by its first ranking read) against recomputing the MAP margins per
   query.  Both are single-threaded
   medians via the engine benchmark's ``_median_time``.
2. **Read-only phase**: ``--readers`` threads hammer the full serving
   path (``FusionServer.posterior``/``value``/``top_conflicts``) with raw
   per-op latency samples — exact p50/p99, no histogram quantization.
3. **Write-load phase**: the same reader pool runs while a writer thread
   streams the second half of the workload through ``append`` with
   periodic snapshot publishes.  The report records queries/sec and
   p50/p99 for both phases plus the snapshot build latency figures and
   the number of snapshots published under load.

The bench **fails** (exit 1) when the under-write lookup p99 exceeds
``--max-p99-ratio`` (default 2.0) times the read-only p99 — the
"readers never block on ingest" contract, measured end to end.  Note the
phases share one interpreter: even on a multi-core box the GIL serializes
reader and writer bytecode, so the ratio bounds scheduler interference,
not just lock contention.  ``sys.setswitchinterval`` is lowered to 0.5 ms
for the phases (recorded in the report), the same tuning the operations
guide recommends for serving processes.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py                # full (10k observations)
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke        # CI-sized
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke \
        --check-against benchmarks/BENCH_inference.json            # regression gate
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke \
        --merge-into benchmarks/BENCH_inference.json               # refresh committed baseline

``--check-against`` reuses the engine benchmark's ``check_regression``
(>20% speedup / >25% peak-RSS gates, matched by case name); ``--merge-into``
splices this benchmark's cases and its ``serve`` section into the shared
committed baseline without touching the engine cases.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

from bench_vectorized_engine import (
    _generate,
    _median_time,
    _peak_rss_kb,
    check_regression,
)

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_serve.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_inference.json"

#: Switch interval for the threaded phases: with the CPython default
#: (5 ms) a busy writer may hold the GIL for whole milliseconds between
#: checks, which measures the scheduler, not the serving layer.
SWITCH_INTERVAL = 5e-4


def _reader_phase(server, keys, n_readers, min_ops, writer_done=None):
    """Run reader threads against the serving path, collecting raw latencies.

    Each reader issues a 7:1 mix of point lookups (``posterior`` +
    ``value``) and ``top_conflicts(10)`` scans.  Readers run at least
    ``min_ops`` iterations and keep going until ``writer_done`` (when
    given) is set, so the write-load phase samples the entire stream.
    Returns ``(latencies, wall_seconds)``.
    """
    import numpy as np

    samples = [[] for _ in range(n_readers)]

    def reader(index):
        local = samples[index]
        record = local.append
        clock = time.perf_counter
        i = 0
        while True:
            key = keys[(i * 7 + index) % len(keys)]
            started = clock()
            if i % 8 == 7:
                server.top_conflicts(10)
            else:
                server.posterior(key)
                server.value(key)
            record(clock() - started)
            i += 1
            if i >= min_ops and (writer_done is None or writer_done.is_set()):
                return

    threads = [
        threading.Thread(target=reader, args=(index,)) for index in range(n_readers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return np.concatenate([np.asarray(chunk) for chunk in samples]), wall


def run_benchmarks(
    smoke: bool, n_observations: int, repeats: int, n_readers: int, max_p99_ratio: float
) -> dict:
    import numpy as np

    from repro.serve import FusionServer
    from repro.serve.snapshot import build_conflict_index

    n_objects = 500 if smoke else 2500
    dataset = _generate(60, n_objects, n_observations, seed=0)
    rng = np.random.default_rng(0)
    observations = [
        dataset.observations[int(index)]
        for index in rng.permutation(dataset.n_observations)
    ]
    preload = len(observations) // 2
    batch_size = 64
    publish_every = 4

    server = FusionServer(publish_every=publish_every)
    for start in range(0, preload, batch_size):
        server.append(observations[start : min(start + batch_size, preload)])
    server.publish()
    snapshot = server.snapshot
    fuser = server.fuser
    keys = [
        snapshot.object_ids[int(index)]
        for index in rng.integers(0, snapshot.n_objects, 512)
    ]

    failures = []
    cases = []

    def case(name, reference_fn, vectorized_fn):
        reference_seconds = _median_time(reference_fn, repeats)
        vectorized_seconds = _median_time(vectorized_fn, repeats)
        entry = {
            "name": name,
            "reference_seconds": reference_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup": reference_seconds / vectorized_seconds,
            "peak_rss_kb": _peak_rss_kb(),
        }
        cases.append(entry)
        print(
            f"{name}: reference {reference_seconds * 1e6:.1f}us "
            f"vectorized {vectorized_seconds * 1e6:.1f}us "
            f"speedup {entry['speedup']:.1f}x"
        )

    # Ratio case 1: published-snapshot lookup vs the live engine's
    # per-query softmax (what answering without a published snapshot
    # costs).
    reference_keys = itertools.cycle(keys)
    snapshot_keys = itertools.cycle(keys)
    case(
        "serve_lookup",
        lambda: fuser.posterior(next(reference_keys)),
        lambda: snapshot.posterior(next(snapshot_keys)),
    )
    # Ratio case 2: the snapshot's conflict index, built by its first
    # ranking read and kept, vs recomputing the MAP margins on every
    # top-k query.
    case(
        "serve_topk",
        lambda: build_conflict_index(snapshot.store),
        lambda: snapshot.top_conflicts(10),
    )

    # Threaded phases: raw-sample latencies through the full serving path.
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        min_ops = 2000 if smoke else 4000
        read_samples, read_wall = _reader_phase(server, keys, n_readers, min_ops)
        read_p50, read_p99 = np.percentile(read_samples, [50, 99])

        swaps_before = server.metrics.swap_count
        writer_done = threading.Event()
        write_errors = []

        def writer():
            try:
                for start in range(preload, len(observations), batch_size // 2):
                    server.append(observations[start : start + batch_size // 2])
            except Exception as error:  # pragma: no cover - surfaced as failure
                write_errors.append(repr(error))
            finally:
                writer_done.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        write_samples, write_wall = _reader_phase(
            server, keys, n_readers, min_ops // 4, writer_done
        )
        writer_thread.join()
        write_p50, write_p99 = np.percentile(write_samples, [50, 99])
    finally:
        sys.setswitchinterval(previous_interval)

    if write_errors:
        failures.append(f"write stream failed: {write_errors[0]}")
    p99_ratio = float(write_p99 / read_p99)
    if p99_ratio > max_p99_ratio:
        failures.append(
            f"lookup p99 under write load {write_p99 * 1e6:.1f}us is "
            f"{p99_ratio:.2f}x the read-only p99 {read_p99 * 1e6:.1f}us "
            f"(limit {max_p99_ratio:.1f}x) — readers are blocking on ingest"
        )

    serve = {
        "readers": n_readers,
        "switch_interval_seconds": SWITCH_INTERVAL,
        "batch_size": batch_size,
        "publish_every": publish_every,
        "read_only": {
            "ops": int(read_samples.shape[0]),
            "queries_per_second": float(read_samples.shape[0] / read_wall),
            "p50_seconds": float(read_p50),
            "p99_seconds": float(read_p99),
        },
        "under_write": {
            "ops": int(write_samples.shape[0]),
            "queries_per_second": float(write_samples.shape[0] / write_wall),
            "p50_seconds": float(write_p50),
            "p99_seconds": float(write_p99),
            "stream_observations": len(observations) - preload,
            "snapshot_swaps": server.metrics.swap_count - swaps_before,
        },
        "p99_write_over_read_ratio": p99_ratio,
        "snapshot_build": server.metrics.publish_latency.as_dict(),
    }
    print(
        f"read-only: {serve['read_only']['queries_per_second']:.0f} qps "
        f"(p50 {read_p50 * 1e6:.1f}us, p99 {read_p99 * 1e6:.1f}us); "
        f"under write: {serve['under_write']['queries_per_second']:.0f} qps "
        f"(p50 {write_p50 * 1e6:.1f}us, p99 {write_p99 * 1e6:.1f}us); "
        f"p99 ratio {p99_ratio:.2f}x over "
        f"{serve['under_write']['snapshot_swaps']} swaps"
    )

    return {
        "benchmark": "serve",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "dataset": {
            "n_sources": dataset.n_sources,
            "n_objects": dataset.n_objects,
            "n_observations": dataset.n_observations,
            "preload_observations": preload,
        },
        "cases": cases,
        "serve": serve,
        "failures": failures,
    }


def merge_into_baseline(report: dict, baseline_path: Path) -> None:
    """Splice this benchmark's cases + serve section into the shared baseline.

    Engine cases are untouched; serve cases are replaced by name (or
    appended on first merge) and the ``serve`` figures land under their
    own key, so one committed ``BENCH_inference.json`` carries both
    benchmarks' gates.
    """
    baseline = json.loads(baseline_path.read_text())
    merged = {case["name"]: case for case in baseline.get("cases", [])}
    for case in report["cases"]:
        merged[case["name"]] = case
    baseline["cases"] = list(merged.values())
    baseline["serve"] = report["serve"]
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"merged serve cases into {baseline_path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run: 2000 observations"
    )
    parser.add_argument(
        "--observations",
        type=int,
        default=None,
        help="observation count (default: 10000, smoke: 2000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per ratio case (default 5)"
    )
    parser.add_argument(
        "--readers",
        type=int,
        default=4,
        help="concurrent reader threads for the latency phases (default 4)",
    )
    parser.add_argument(
        "--max-p99-ratio",
        type=float,
        default=2.0,
        help="allowed under-write p99 as a multiple of read-only p99 (default 2.0)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON artifact (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        help="baseline BENCH_inference.json to gate the ratio cases against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional speedup regression vs the baseline (default 0.20)",
    )
    parser.add_argument(
        "--max-rss-regression",
        type=float,
        default=0.25,
        help="allowed fractional peak-RSS growth vs the baseline (default 0.25)",
    )
    parser.add_argument(
        "--merge-into",
        type=Path,
        default=None,
        help="splice serve cases + figures into this committed baseline",
    )
    args = parser.parse_args(argv)

    n_observations = args.observations or (2000 if args.smoke else 10000)
    report = run_benchmarks(
        args.smoke, n_observations, args.repeats, args.readers, args.max_p99_ratio
    )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    exit_code = 0
    if report["failures"]:
        print("SERVE BENCHMARK FAILURES:", file=sys.stderr)
        for failure in report["failures"]:
            print(f"  - {failure}", file=sys.stderr)
        exit_code = 1

    if args.check_against is not None:
        if not args.check_against.exists():
            print(
                f"baseline {args.check_against} not found; generate one with "
                f"--merge-into {args.check_against}",
                file=sys.stderr,
            )
            return 1
        exit_code = max(
            exit_code,
            check_regression(
                report, args.check_against, args.max_regression, args.max_rss_regression
            ),
        )

    if args.merge_into is not None and exit_code == 0:
        merge_into_baseline(report, args.merge_into)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
