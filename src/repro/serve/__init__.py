"""Fusion-as-a-service: a concurrent serving layer over published snapshots.

The batch learners and the streaming fuser answer "what are the fused
values right now?" inside one process; this package makes that state
**servable**: an immutable published :class:`Snapshot` (ragged posterior
store + claimed-value layout + per-source reliability + a conflict index
built on the first ranking read) behind a :class:`FusionServer` whose readers load the
current snapshot reference without a lock while a writer loop ingests
batches and publishes new snapshots by reassigning that reference —
readers never block on ingest.

Quick tour::

    from repro.serve import FusionServer

    server = FusionServer(publish_every=2)
    server.append([("s1", "obj", "a"), ("s2", "obj", "b")])
    server.publish()
    server.posterior("obj")       # {'a': ..., 'b': ...}
    server.top_conflicts(k=5)     # lowest-MAP-margin objects
    server.metrics.as_dict()      # counters + latency histograms

See ``docs/serving.md`` for the operations guide (snapshot lifecycle,
reader/writer contract, metrics reference, capacity numbers) and
``python -m repro.serve --help`` for the demo entrypoint.
"""

from .metrics import LatencyHistogram, ServeMetrics
from .server import FusionServer
from .snapshot import ConflictEntry, ConflictIndex, Snapshot, build_conflict_index

__all__ = [
    "FusionServer",
    "Snapshot",
    "ConflictEntry",
    "ConflictIndex",
    "build_conflict_index",
    "ServeMetrics",
    "LatencyHistogram",
]
