"""The benchmark's three workloads: inputs from a seed, one op, its checks.

Each workload has ``setup(seed, workdir)``, which generates the inputs from
the seed and prepares them, and ``op(inputs, tracer)``, one timed
operation on those inputs.  The op calls the ``repro`` layers inside
``tracer.span`` blocks named after the layer; layer calls the library
makes on its own are spanned by :func:`entry_points` in traced ops.  Why each
workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import SLiMFast
from repro.data.io import load_dataset, save_dataset
from repro.data.synthetic import generate
from repro.extensions.streaming import StreamingFuser
from repro.featurize import FeaturizerPipeline
from repro.fusion.encoding import encode_dataset
from repro.serve.server import FusionServer
from repro.serve.snapshot import Snapshot

from .tracing import ROOT

clock = time.perf_counter

#: Queries are timed in groups of this size, so the clock's resolution and
#: call cost stay small next to the measured interval.
QUERY_GROUP = 256
#: Objects per snapshot whose published posterior must sum to one.
POSTERIOR_SAMPLE = 256
#: ``learner_grid``: the learners and label budgets of one op.
GRID_LEARNERS = ("erm", "em")
GRID_FRACTIONS = (0.01, 0.05, 0.1, 0.2)
#: Train fraction of ``batch_fuse`` and of the truth ``stream_serve`` reveals.
TRAIN_FRACTION = 0.1
#: ``stream_serve`` cadence, in batches.
PUBLISH_EVERY = 5
REFIT_EVERY = 50

#: About 100k observations: an op of about 2 s leaves a 30-second run
#: about ten ops, enough for its best one to have missed the neighbours' load.
_BATCH_DATA = dict(n_sources=2000, n_objects=10000, density=0.005, domain_size_range=(2, 4))
_TINY_DATA = dict(n_sources=100, n_objects=600, density=0.05, domain_size_range=(2, 4))

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` exists
#: for the benchmark's own tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "batch_fuse": dict(data=_BATCH_DATA, queries=65536),
        "learner_grid": dict(
            data=dict(n_sources=3000, n_objects=40000, density=0.003), queries=65536
        ),
        "stream_serve": dict(data=_BATCH_DATA, batch_size=1000, burst=2048),
    },
    "tiny": {
        "batch_fuse": dict(data=_TINY_DATA, queries=1024),
        "learner_grid": dict(
            data=dict(n_sources=100, n_objects=800, density=0.04), queries=1024
        ),
        "stream_serve": dict(data=_TINY_DATA, batch_size=50, burst=512),
    },
}


def entry_points():
    """``(owner, attribute, span name)`` for layer calls the library makes
    on the benchmark's behalf (inside ``SLiMFast.fit`` and ``FusionServer``).

    The owner is where the caller looks the name up: ``SLiMFast.fit``
    calls ``decide`` through ``repro.core.slimfast``'s globals, and
    streaming re-fits import ``fit_incremental`` from ``repro.core.em`` at
    call time.
    """
    from repro.core import em, erm, slimfast
    from repro.extensions import streaming
    from repro.featurize import pipeline
    from repro.serve import snapshot

    return [
        (slimfast, "decide", "core.optimizer.decide"),
        (em.EMLearner, "fit", "core.em.fit"),
        (erm.ERMLearner, "fit", "core.erm.fit"),
        (pipeline.FeaturizerPipeline, "design_for", "featurize.pipeline.design"),
        (snapshot.Snapshot, "from_fuser", "serve.snapshot.build"),
        (streaming.StreamingFuser, "observe_batch", "extensions.streaming.append"),
        (em, "fit_incremental", "core.em.refit"),
    ]


@dataclass
class OpResult:
    """What one op measured and produced, for the checks and the metrics."""

    wall_s: float
    accuracy: float
    #: Observations taken in per op, and the op time spent on them (the op
    #: minus its query bursts); their ratio is ``ingest_obs_per_s``.
    n_observations: int
    writer_s: float
    #: Time from the data a result covers being available to the result
    #: being queryable, once per published result.
    lags_s: List[float]
    #: Snapshots the op published; the checks read them and the burst of
    #: ``batch_fuse``/``learner_grid`` queries the last one.
    snapshots: List[Snapshot]
    #: Seconds per query, one entry per group of ``QUERY_GROUP``, for ops
    #: that query while they ingest.
    query_s: List[float] = field(default_factory=list)
    choice: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def query_burst(lookup, keys: Sequence, tracer) -> List[float]:
    """Closed-loop point queries; seconds per query for each full group."""
    per_query = []
    for start in range(0, len(keys) - QUERY_GROUP + 1, QUERY_GROUP):
        group = keys[start : start + QUERY_GROUP]
        with tracer.span("serve.server.query"):
            began = clock()
            for key in group:
                lookup(key)
            per_query.append((clock() - began) / QUERY_GROUP)
    return per_query


def posterior_failures(snapshot: Snapshot, rng: np.random.Generator) -> List[str]:
    """Sampled published posteriors that do not sum to one."""
    ids = snapshot.object_ids
    picks = rng.choice(len(ids), size=min(POSTERIOR_SAMPLE, len(ids)), replace=False)
    bad = []
    for position in picks.tolist():
        total = sum(snapshot.posterior(ids[position]).values())
        if abs(total - 1.0) > 1e-9:
            bad.append(f"posterior of {ids[position]!r} sums to {total!r}")
    return bad[:3]


def _generate(data: dict, seed: int):
    return generate(seed=seed, name="perfbench", **data).dataset


def _query_keys(object_ids: Sequence, n: int, rng: np.random.Generator) -> list:
    return [object_ids[i] for i in rng.integers(len(object_ids), size=n).tolist()]


# ----------------------------------------------------------------------
# batch_fuse
# ----------------------------------------------------------------------
@dataclass
class BatchInputs:
    directory: Path
    train_truth: Dict
    test_objects: List
    query_keys: List


class BatchFuse:
    """CSV on disk -> load -> encode -> featurize + optimizer + fit -> snapshot."""

    name = "batch_fuse"

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path) -> BatchInputs:
        dataset = _generate(self.size["data"], seed)
        split = dataset.split(TRAIN_FRACTION, seed=seed)
        directory = save_dataset(dataset, workdir / "batch_fuse")
        keys = _query_keys(dataset.objects.items, self.size["queries"], np.random.default_rng(seed))
        return BatchInputs(directory, split.train_truth, list(split.test_objects), keys)

    def op(self, inputs: BatchInputs, tracer) -> OpResult:
        began = clock()
        with tracer.span(ROOT):
            with tracer.span("data.io.load"):
                dataset = load_dataset(inputs.directory)
            with tracer.span("fusion.encoding.encode"):
                encode_dataset(dataset)
            model = SLiMFast(featurizer=FeaturizerPipeline()).fit(dataset, inputs.train_truth)
            with tracer.span("core.inference.predict"):
                result = model.predict()
            with tracer.span("serve.snapshot.build"):
                snapshot = Snapshot.from_result(result)
        wall = clock() - began

        decision = model.decision_
        choice = None if decision is None else decision.algorithm
        failures = []
        if decision is None or model.chosen_learner_ != choice:
            failures.append(f"optimizer did not decide the learner ({model.chosen_learner_})")
        return OpResult(
            wall_s=wall,
            accuracy=result.accuracy(dataset, inputs.test_objects),
            n_observations=dataset.n_observations,
            writer_s=wall,
            lags_s=[wall],
            snapshots=[snapshot],
            choice=choice,
            counts={
                "fusion.n_observations": dataset.n_observations,
                "fusion.n_candidates": result.posterior_store.n_rows,
                "core.optimizer.erm_units": 0.0 if decision is None else decision.erm_units,
                "core.optimizer.em_units": 0.0 if decision is None else decision.em_units,
            },
            failures=failures,
        )


# ----------------------------------------------------------------------
# learner_grid
# ----------------------------------------------------------------------
@dataclass
class GridInputs:
    dataset: object
    pipeline: FeaturizerPipeline
    splits: List
    query_keys: List


class LearnerGrid:
    """Each learner at each label budget on one warm, encoded dataset."""

    name = "learner_grid"

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path) -> GridInputs:
        dataset = _generate(self.size["data"], seed)
        encode_dataset(dataset)
        pipeline = FeaturizerPipeline()
        pipeline.design_for(dataset)  # fills the featurizer cache
        splits = [dataset.split(fraction, seed=seed) for fraction in GRID_FRACTIONS]
        keys = _query_keys(dataset.objects.items, self.size["queries"], np.random.default_rng(seed))
        return GridInputs(dataset, pipeline, splits, keys)

    def op(self, inputs: GridInputs, tracer) -> OpResult:
        dataset = inputs.dataset
        results, failures = [], []
        began = clock()
        with tracer.span(ROOT):
            for learner in GRID_LEARNERS:
                for split in inputs.splits:
                    model = SLiMFast(learner=learner, featurizer=inputs.pipeline)
                    model.fit(dataset, split.train_truth)
                    with tracer.span("core.inference.predict"):
                        result = model.predict()
                    results.append((model, result, split))
        wall = clock() - began

        accuracies = []
        for model, result, split in results:
            accuracies.append(result.accuracy(dataset, list(split.test_objects)))
            if model.decision_ is not None:
                failures.append(f"optimizer ran for learner={model.learner!r}")
        return OpResult(
            wall_s=wall,
            accuracy=float(np.mean(accuracies)),
            n_observations=dataset.n_observations * len(results),
            writer_s=wall,
            # Per-fit times are bimodal (ERM vs EM), so their median would
            # sit in the gap; the op's results are all queryable at its end.
            lags_s=[wall],
            # Built after the timed op, only for the checks and queries.
            snapshots=[Snapshot.from_result(result) for _, result, _ in results],
            counts={
                "fusion.n_observations": dataset.n_observations,
                "fusion.n_candidates": results[-1][1].posterior_store.n_rows,
            },
            failures=failures,
        )


# ----------------------------------------------------------------------
# stream_serve
# ----------------------------------------------------------------------
@dataclass
class StreamInputs:
    batches: List[list]
    train_truth: Dict
    test_truth: Dict
    #: One list of query keys per publish, drawn from the objects the
    #: stream has delivered by then.
    query_keys: List[list]


class StreamServe:
    """Replay batches through ``FusionServer`` with publishes and query bursts."""

    name = "stream_serve"

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, workdir: Path) -> StreamInputs:
        dataset = _generate(self.size["data"], seed)
        split = dataset.split(TRAIN_FRACTION, seed=seed)
        rng = np.random.default_rng(seed)
        order = rng.permutation(dataset.n_observations).tolist()
        observations = dataset.observations
        stream = [observations[i] for i in order]
        size = self.size["batch_size"]
        batches = [stream[i : i + size] for i in range(0, len(stream), size)]
        keys = []
        for end in range(PUBLISH_EVERY, len(batches) + PUBLISH_EVERY, PUBLISH_EVERY):
            seen = min(end * size, len(stream))
            rows = rng.integers(seen, size=self.size["burst"]).tolist()
            keys.append([stream[row].obj for row in rows])
        test_truth = {obj: dataset.ground_truth[obj] for obj in split.test_objects}
        return StreamInputs(batches, split.train_truth, test_truth, keys)

    def op(self, inputs: StreamInputs, tracer) -> OpResult:
        server = FusionServer(StreamingFuser())
        lags, query_s, snapshots = [], [], []
        query_time = 0.0
        n_batches = len(inputs.batches)
        began = clock()
        with tracer.span(ROOT):
            for obj, value in inputs.train_truth.items():
                server.reveal_truth(obj, value)
            window = clock()
            for number, batch in enumerate(inputs.batches, 1):
                with tracer.span("serve.server.append"):
                    server.append(batch)
                if number % REFIT_EVERY == 0:
                    with tracer.span("serve.server.refit"):
                        server.refit()
                if number % PUBLISH_EVERY == 0 or number == n_batches:
                    with tracer.span("serve.server.publish"):
                        snapshots.append(server.publish())
                    published = clock()
                    lags.append(published - window)
                    keys = inputs.query_keys[len(snapshots) - 1]
                    query_s.extend(query_burst(server.value, keys, tracer))
                    window = clock()
                    query_time += window - published
        wall = clock() - began

        final = snapshots[-1]
        hits = sum(final.value(obj) == value for obj, value in inputs.test_truth.items())
        versions = [snapshot.version for snapshot in snapshots]
        failures = []
        if versions != list(range(1, len(snapshots) + 1)):
            failures.append(f"snapshot versions do not rise by one per publish: {versions[:8]}")
        if server.metrics.ingest_errors:
            failures.append(f"{server.metrics.ingest_errors} ingest errors")
        if final.n_observations != sum(len(batch) for batch in inputs.batches):
            failures.append(f"final snapshot covers {final.n_observations} observations")
        return OpResult(
            wall_s=wall,
            accuracy=hits / len(inputs.test_truth),
            n_observations=final.n_observations,
            writer_s=wall - query_time,
            lags_s=lags,
            snapshots=[final],
            query_s=query_s,
            counts={
                "fusion.n_observations": final.n_observations,
                "fusion.n_candidates": final.store.n_rows,
                "serve.server.publishes": server.metrics.swap_count,
                "serve.server.ingest_errors": server.metrics.ingest_errors,
                "extensions.streaming.refits": final.n_refits,
            },
            failures=failures,
        )


WORKLOADS = {workload.name: workload for workload in (BatchFuse, LearnerGrid, StreamServe)}
