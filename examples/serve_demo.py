"""Serve a drifting stream: ingest -> publish snapshots -> query live.

Simulates a claim feed whose source reliabilities drift mid-stream (one
sensor silently degrades), pushes it through the background writer loop
of a ``repro.serve.FusionServer`` with periodic snapshot publishes, and
queries the published snapshots while ingest continues — the serving
contract is that queries never wait on the stream.

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

from repro.data import as_generator
from repro.extensions import DecayConfig
from repro.serve import FusionServer

DOMAIN = ["a", "b", "c", "d"]
#: (source, accuracy before the drift, accuracy after the drift).
SOURCES = [
    ("curated-db", 0.95, 0.95),
    ("crowd-feed", 0.70, 0.70),
    ("sensor-7", 0.90, 0.25),  # the drifter: goes bad halfway through
]


def make_batch(rng, batch_index, n_objects, accuracies):
    """Fresh objects, each claimed once by every source at its accuracy."""
    batch, truth = [], {}
    for slot in range(n_objects):
        obj = f"fact-{batch_index}-{slot}"
        truth[obj] = DOMAIN[rng.integers(len(DOMAIN))]
        for (source, _, _), accuracy in zip(SOURCES, accuracies):
            if rng.random() < accuracy:
                value = truth[obj]
            else:
                wrong = [v for v in DOMAIN if v != truth[obj]]
                value = wrong[rng.integers(len(wrong))]
            batch.append((source, obj, value))
    return batch, truth


def report(label, server, truth):
    snapshot = server.snapshot
    correct = sum(server.value(obj) == value for obj, value in truth.items())
    print(f"{label}: snapshot v{snapshot.version}, {snapshot.n_objects} objects, "
          f"MAP accuracy {correct / len(truth):.2f}")
    for source, accuracy in sorted(server.source_accuracies().items()):
        print(f"  {source:12s} estimated accuracy {accuracy:.2f}")


def main() -> None:
    rng = as_generator(7)
    n_batches, drift_at = 12, 6

    # Trust decay halves a source's Beta evidence every 7 of its claims,
    # so reliability estimates track the *recent* stream; publish_every
    # keeps served snapshots fresh.
    server = FusionServer(trust_decay=DecayConfig(half_life=7.0), publish_every=3).start()

    truth = {}
    for index in range(n_batches):
        era = 0 if index < drift_at else 1
        accuracies = [before if era == 0 else after for (_, before, after) in SOURCES]
        batch, batch_truth = make_batch(rng, index, 8, accuracies)
        truth.update(batch_truth)
        server.ingest(batch)
        if index == drift_at - 1:
            server.flush()
            report("before drift", server, truth)
            # Readers keep getting answers from the published snapshot
            # while the second era streams in behind them.
            truth = {}

    server.flush()
    server.stop(publish=True)
    report("after drift", server, truth)

    print("\nmost conflicted objects (lowest MAP margin):")
    for entry in server.top_conflicts(3):
        print(f"  {entry.object}: {entry.map_value!r} over {entry.runner_up!r} "
              f"by {entry.margin:.2f}")
    print(f"\nserved {server.metrics.query_count} queries across "
          f"{server.metrics.swap_count} snapshot swaps "
          f"({server.metrics.ingest_batches} batches ingested)")


if __name__ == "__main__":
    main()
