"""Run one workload for a fixed time, check every op, report the metrics.

A run first runs one untimed op at the tiny size, so lazy imports and
first calls are paid before timing.  It then sets the workload up
:data:`SETUP_REPEATS` times (``setup_s`` is the median) and runs timed ops,
each after a full garbage collection, until ``--seconds`` have passed.
A fixed calibration kernel is timed before each set-up and each untraced
op.  With ``--trace 0`` every op is untraced and the run reports the
end-to-end metrics: op timings from its best op, and every timing scaled
to the reference machine's speed by the kernel (see
:func:`end_to_end_metrics`).  With ``--trace 1`` untraced and
traced ops alternate: the traced ones give the per-layer metrics, and the
difference between the two kinds is the tracing overhead.

Every op is checked after its timed region: accuracy (and, for
``batch_fuse``, the optimizer's choice) must equal the value recorded for
the seed in ``expected.json``, sampled published posteriors must sum to
one, and the workload's own invariants must hold.  A failed check or an
exception counts the op as failed; any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .tracing import NULL_TRACER, ROOT, Tracer, summarize
from .workloads import (
    QUERY_GROUP,
    SIZES,
    WORKLOADS,
    entry_points,
    posterior_failures,
    query_burst,
)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
#: Calibration kernel runs before each set-up and each untraced op.
KERNEL_REPEATS = 3
#: Best time of :func:`calibration_kernel` on the reference machine (the
#: 2-core machine the benchmark was built on, undisturbed).  End-to-end
#: timings are scaled by this over the run's best kernel time.
REFERENCE_KERNEL_S = 0.040

#: Metric name -> unit.  The JSON line holds exactly one of these two sets.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "accuracy": "fraction",
    "peak_rss_mib": "MiB",
    "ingest_obs_per_s": "1/s",
    "publish_lag_ms_p50": "ms",
}
#: Spans reported by inclusive seconds per op (``<name>_s``).
SPANS = (
    "data.io.load",
    "fusion.encoding.encode",
    "featurize.pipeline.design",
    "core.optimizer.decide",
    "core.erm.fit",
    "core.em.fit",
    "core.inference.predict",
    "serve.snapshot.build",
    "serve.server.append",
    "extensions.streaming.append",
    "serve.server.refit",
    "core.em.refit",
    "serve.server.publish",
    "serve.server.query",
)
#: Layers reported by self seconds per op (``self.<layer>_s``); they add
#: up to ``trace.op_wall_s``.
LAYERS = (
    "data.io",
    "fusion.encoding",
    "featurize.pipeline",
    "core.optimizer",
    "core.erm",
    "core.em",
    "core.inference",
    "serve.snapshot",
    "serve.server",
    "extensions.streaming",
    "other",
)
COUNTS = (
    "fusion.n_observations",
    "fusion.n_candidates",
    "core.optimizer.erm_units",
    "core.optimizer.em_units",
    "serve.server.publishes",
    "serve.server.ingest_errors",
    "extensions.streaming.refits",
)
#: ``core.optimizer.choice`` is a code: 0 = optimizer did not run.
CHOICE_CODES = {None: 0, "erm": 1, "em": 2}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPANS},
    "serve.server.query_us": "us",
    "serve.query_us_p50": "us",
    "serve.query_us_p99": "us",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.op_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    **{name: "count" for name in COUNTS},
    "core.optimizer.choice": "code",
}


class Ledger:
    """Checks each op against the seed's reference values and counts failures."""

    def __init__(self, reference: Optional[dict]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def record(self, op, rng: np.random.Generator) -> None:
        self.attempted += 1
        failures = list(op.failures)
        if self.reference is None:
            self.reference = {"accuracy": op.accuracy, "choice": op.choice}
        if op.accuracy != self.reference["accuracy"]:
            failures.append(f"accuracy {op.accuracy!r} != {self.reference['accuracy']!r}")
        if op.choice != self.reference["choice"]:
            failures.append(f"optimizer chose {op.choice!r}, expected {self.reference['choice']!r}")
        for snapshot in op.snapshots:
            failures.extend(posterior_failures(snapshot, rng))
        if failures:
            self.fail(failures)

    def fail(self, messages: Sequence[str]) -> None:
        self.failed += 1
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def reference_for(expected: dict, workload: str, size: str, seed: int) -> Optional[dict]:
    return expected.get(workload, {}).get(size, {}).get(str(seed))


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def calibration_kernel() -> None:
    """Fixed interpreter and numpy work that calls nothing in ``repro``.

    Its mix (dict updates in a Python loop, a sort and a weighted bincount
    over a few MB) follows the ops, which are part interpreter-bound and
    part array work.
    """
    counts: Dict[int, int] = {}
    for i in range(150_000):
        counts[i % 5003] = counts.get(i % 5003, 0) + i
    values = np.random.default_rng(0).random(1 << 19)
    np.argsort(values)
    np.bincount((values * 4096).astype(np.int64), weights=values)


def time_kernel() -> List[float]:
    """Seconds of :data:`KERNEL_REPEATS` calibration-kernel calls."""
    times = []
    for _ in range(KERNEL_REPEATS):
        began = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - began)
    return times


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    expected: Optional[dict] = None,
    out_dir: Optional[Path] = None,
) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name](SIZES[size][workload_name])
    out_dir = Path(out_dir) if out_dir is not None else HERE.parent / ".perfbench"
    workdir = out_dir / f"work-{workload_name}-{seed}-{os.getpid()}"
    expected = load_expected() if expected is None else expected
    reference = reference_for(expected, workload_name, size, seed)
    if reference is None:
        print(
            f"seed {seed} has no recorded reference for {workload_name}/{size}; "
            "ops are checked against the first op",
            file=sys.stderr,
        )
    ledger = Ledger(reference)
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    untraced, traced, traced_spans, kernel_times = [], [], [], []

    def attempt(traced_op: bool):
        gc.collect()  # no op pays for the garbage of the one before it
        if not traced_op:
            kernel_times.extend(time_kernel())
        try:
            if not traced_op:
                op = workload.op(inputs, NULL_TRACER)
            else:
                first = len(tracer.spans)
                with tracer.instrument(entry_points()):
                    op = workload.op(inputs, tracer)
                traced_spans.append(tracer.spans[first:])
            if not op.query_s:
                op.query_s = query_burst(op.snapshots[-1].value, inputs.query_keys, NULL_TRACER)
        except Exception:
            traceback.print_exc()
            ledger.attempted += 1
            ledger.fail(["op raised"])
            return None
        ledger.record(op, rng)
        op.snapshots = []  # checked; keep memory flat across ops
        return op

    try:
        warm_up(workload_name, workdir)
        setup_times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            inputs = None
            gc.collect()
            kernel_times.extend(time_kernel())
            began = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - began)
        began = time.perf_counter()
        while True:
            untraced.append(attempt(traced_op=False))
            if trace:
                traced.append(attempt(traced_op=True))
            if time.perf_counter() - began >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pairs = [(u, t) for u, t in zip(untraced, traced) if u is not None and t is not None]
    untraced = [op for op in untraced if op is not None]
    if not untraced or (trace and not pairs):
        raise RuntimeError("every timed op raised; nothing to report")
    if trace:
        tracer.dump(
            out_dir / f"trace-{workload_name}-seed{seed}.json",
            workload=workload_name,
            seed=seed,
            size=size,
        )
        metrics = per_layer_metrics(pairs, traced_spans)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced, setup_times, min(kernel_times))
        units = END_TO_END
        print(
            f"calibration kernel: best {min(kernel_times) * 1e3:.2f} ms of "
            f"{len(kernel_times)}, reference {REFERENCE_KERNEL_S * 1e3:.0f} ms; "
            f"fastest op {min(op.wall_s for op in untraced):.4f} s unscaled",
            file=sys.stderr,
        )
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def warm_up(workload_name: str, workdir: Path) -> None:
    """One untimed op at the tiny size: lazy imports and first calls."""
    tiny = WORKLOADS[workload_name](SIZES["tiny"][workload_name])
    tiny.op(tiny.setup(0, workdir / "warm-up"), NULL_TRACER)


def end_to_end_metrics(
    ops: List, setup_times: List[float], kernel_s: float
) -> Dict[str, float]:
    """Timings at the reference machine's speed, from the run's best op.

    Neighbours on a shared host slow whole stretches of a run, for seconds
    or minutes.  A run's best op (the fastest, or the highest rate) is the
    one they disturbed least, and its best calibration kernel time
    ``kernel_s`` says how fast the machine ran then; scaling by
    ``REFERENCE_KERNEL_S / kernel_s`` takes out what is left of the
    machine's speed, so the figures move with the program.
    """
    scale = REFERENCE_KERNEL_S / kernel_s
    return {
        "setup_s": _median(setup_times) * scale,
        "wall_s": min(op.wall_s for op in ops) * scale,
        "accuracy": _median([op.accuracy for op in ops]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ingest_obs_per_s": max(op.n_observations / op.writer_s for op in ops) / scale,
        "publish_lag_ms_p50": min(_median(op.lags_s) for op in ops) * scale * 1e3,
    }


def per_layer_metrics(pairs: List, traced_spans: List[list]) -> Dict[str, float]:
    """Per-op means over the traced ops, so the layer self times add up.

    Tracing overhead is the median difference between each traced op and
    the untraced op run just before it, which cancels slow drift in the
    machine's speed.  Query latency percentiles come from the untraced ops.
    """
    n = len(traced_spans)
    inclusive: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for spans in traced_spans:
        op_inclusive, op_self = summarize(spans)
        for name, value in op_inclusive.items():
            inclusive[name] = inclusive.get(name, 0.0) + value / n
        for layer, value in op_self.items():
            self_time[layer] = self_time.get(layer, 0.0) + value / n
    unknown = set(self_time) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the reported layers: {sorted(unknown)}")
    query_groups = sum(span.name == "serve.server.query" for spans in traced_spans for span in spans)
    overhead = _median([op.wall_s - plain.wall_s for plain, op in pairs])
    untraced_wall = _median([plain.wall_s for plain, _ in pairs])
    last = pairs[-1][1]
    metrics = {f"{name}_s": inclusive.get(name, 0.0) for name in SPANS}
    metrics["serve.server.query_us"] = (
        inclusive["serve.server.query"] * n / (query_groups * QUERY_GROUP) * 1e6
        if query_groups
        else 0.0
    )
    queries_us = [seconds * 1e6 for plain, _ in pairs for seconds in plain.query_s]
    metrics["serve.query_us_p50"] = _percentile(queries_us, 50)
    metrics["serve.query_us_p99"] = _percentile(queries_us, 99)
    metrics.update({f"self.{layer}_s": self_time.get(layer, 0.0) for layer in LAYERS})
    metrics["trace.op_wall_s"] = inclusive[ROOT]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced_wall
    metrics.update({name: float(last.counts.get(name, 0.0)) for name in COUNTS})
    metrics["core.optimizer.choice"] = float(CHOICE_CODES[last.choice])
    return metrics


def describe(result: dict, workload: str) -> List[str]:
    """Human-readable lines printed above the JSON result."""
    lines = [f"workload {workload}"]
    for name, entry in result["metrics"].items():
        lines.append(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    error_rate = result["failed"] / result["attempted"]
    lines.append(f"  {'error_rate':<34} {error_rate:>16.6g} fraction")
    lines.append(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    if "trace.op_wall_s" in metrics:
        wall = metrics["trace.op_wall_s"]["value"]
        lines.append("  layer self-time shares of a traced op:")
        shares = sorted(
            ((metrics[f"self.{layer}_s"]["value"], layer) for layer in LAYERS), reverse=True
        )
        for value, layer in shares:
            if value > 0:
                lines.append(f"    {layer:<24} {100.0 * value / wall:6.1f} %")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    for line in describe(result, args.workload):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
