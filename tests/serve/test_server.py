"""FusionServer: consistent reads under concurrent publishes, held
snapshots, the writer loop, and the serving entrypoint.

The reader/writer contract under test:

* a published snapshot is internally consistent — readers racing a
  stream of publishes never observe torn state (mismatched array
  lengths, non-normalized posteriors, a version that goes backwards);
* a snapshot a reader holds keeps answering with its own data across
  later publishes;
* reads never wait on the writer lock;
* per-query counts stay exact when many threads query while others read
  the metrics;
* the background writer loop survives bad batches and drains the queue;
* ``python -m repro.serve`` runs end to end.
"""

import sys
import threading

import numpy as np
import pytest

from repro.extensions.streaming import DecayConfig, StreamingFuser
from repro.fusion import DatasetError
from repro.serve import FusionServer, ServeMetrics, Snapshot
from repro.serve.__main__ import main as serve_main
from repro.serve.__main__ import simulate_batches
from repro.serve.server import WRITER_QUEUE_SIZE


def batch_for(batch_index, n_sources=4, objects_per_batch=8, domain=3):
    """Deterministic batch of fresh objects, every source claiming each."""
    rng = np.random.default_rng(batch_index)
    batch = []
    for slot in range(objects_per_batch):
        obj = f"b{batch_index}_o{slot}"
        for source in range(n_sources):
            batch.append((f"s{source}", obj, f"v{rng.integers(domain)}"))
    return batch


class TestBasics:
    def test_append_publish_query(self):
        server = FusionServer()
        server.append(batch_for(0))
        assert server.version == 0  # nothing published yet
        snapshot = server.publish()
        assert server.version == 1
        assert snapshot is server.snapshot
        obj = "b0_o0"
        assert server.posterior(obj)
        assert server.value(obj) is not None
        assert server.confidence(obj) > 0.0
        assert isinstance(server.top_conflicts(3), list)
        assert server.source_accuracies()

    def test_publish_every_auto_publishes(self):
        server = FusionServer(publish_every=2)
        server.append(batch_for(0))
        assert server.version == 0
        server.append(batch_for(1))
        assert server.version == 1
        server.append(batch_for(2))
        server.append(batch_for(3))
        assert server.version == 2

    def test_queries_before_first_publish_hit_empty_snapshot(self):
        server = FusionServer()
        server.append(batch_for(0))
        assert server.posterior("b0_o0") == {}
        assert server.value("b0_o0") is None

    def test_reveal_truth_and_refit_flow_through(self):
        server = FusionServer(refit_overrides={"max_iterations": 3})
        server.append(batch_for(0))
        server.reveal_truth("b0_o0", "v0")
        server.refit()
        server.publish()
        assert server.value("b0_o0") == "v0"
        assert server.snapshot.n_refits == 1

    def test_metrics_recorded(self):
        metrics = ServeMetrics()
        server = FusionServer(publish_every=1, metrics=metrics)
        server.append(batch_for(0))
        server.posterior("b0_o0")
        server.value("b0_o0")
        assert metrics.ingest_batches == 1
        assert metrics.swap_count == 1
        assert metrics.query_counts == {"posterior": 1, "value": 1}
        assert metrics.snapshot_age_seconds() >= 0.0

    def test_empty_batch_is_a_no_op(self):
        server = FusionServer(publish_every=1)
        assert server.append(batch_for(0)) == 32
        published = server.snapshot
        assert server.append([]) == 0
        assert server.version == 1
        assert server.snapshot is published
        assert server.metrics.ingest_batches == 1
        assert server.metrics.swap_count == 1
        # The cadence did not count the empty batch either.
        server.publish_every = 2
        server.append(batch_for(1))
        assert server.version == 1
        server.append(batch_for(2))
        assert server.version == 2

    def test_empty_batch_through_the_writer_loop_is_a_no_op(self):
        server = FusionServer(publish_every=1).start()
        server.ingest(batch_for(0))
        server.ingest([])
        server.flush()
        server.stop()
        assert server.version == 1
        assert server.metrics.ingest_batches == 1
        assert server.metrics.ingest_errors == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="publish_every"):
            FusionServer(publish_every=0)
        with pytest.raises(ValueError, match="fuser_kwargs"):
            FusionServer(fuser=StreamingFuser(), self_training=False)

    def test_fuser_kwargs_build_the_fuser(self):
        decay = DecayConfig(half_life=50.0)
        server = FusionServer(trust_decay=decay, refit_every=1000)
        assert server.fuser.trust_decay is decay
        assert server.fuser.refit_every == 1000


class TestHeldSnapshot:
    def test_held_snapshot_answers_with_its_own_data_across_publishes(self):
        server = FusionServer()
        server.append(batch_for(0))
        server.publish()
        with server.read() as old:
            before = old.posterior("b0_o0")
            fresh = []
            for index in range(1, 4):
                server.append(batch_for(index))
                fresh.append(server.publish())
            assert server.version == old.version + 3
            # The superseded snapshot keeps answering with its own data.
            assert old.posterior("b0_o0") == pytest.approx(before)
            for index in range(1, 4):
                assert old.posterior(f"b{index}_o0") == {}
            for index, snapshot in enumerate(fresh, start=1):
                assert snapshot.posterior(f"b{index}_o0")
            assert server.snapshot is fresh[-1]

    def test_reads_do_not_wait_on_the_writer_lock(self):
        server = FusionServer()
        server.append(batch_for(0))
        published = server.publish()
        held, release = threading.Event(), threading.Event()
        answers = {}

        def writer():
            with server._write_lock:
                held.set()
                release.wait(timeout=30)

        def reader():
            answers["value"] = server.value("b0_o0")
            answers["version"] = server.version
            with server.read() as snapshot:
                answers["read"] = snapshot

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        try:
            assert held.wait(timeout=10)
            reader_thread = threading.Thread(target=reader, daemon=True)
            reader_thread.start()
            reader_thread.join(timeout=10)
            assert not reader_thread.is_alive()  # finished while the lock was held
        finally:
            release.set()
            writer_thread.join(timeout=10)
        assert not writer_thread.is_alive()
        assert answers == {
            "value": published.value("b0_o0"),
            "version": 1,
            "read": published,
        }


class TestConcurrentSwap:
    """No reader may ever observe a torn snapshot."""

    N_BATCHES = 12
    N_READERS = 4

    def test_readers_never_see_torn_state(self):
        server = FusionServer(publish_every=1)
        server.append(batch_for(0))
        stop = threading.Event()
        failures = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            last_version = -1
            reads = 0
            while not stop.is_set() or reads == 0:
                reads += 1
                with server.read() as snapshot:
                    try:
                        # Internal consistency: every aligned structure
                        # agrees on the object count and the posterior
                        # of a sampled object is a distribution.
                        n = snapshot.n_objects
                        assert len(snapshot.object_ids) == n
                        assert snapshot.conflicts.margins.shape[0] == n
                        assert snapshot.store.offsets.shape[0] == n + 1
                        assert len(snapshot.pair_values) == snapshot.store.n_rows
                        assert snapshot.version >= last_version
                        last_version = snapshot.version
                        if n:
                            obj = snapshot.object_ids[int(rng.integers(n))]
                            posterior = snapshot.posterior(obj)
                            if obj not in snapshot.overrides:
                                assert sum(posterior.values()) == pytest.approx(1.0)
                            snapshot.top_conflicts(3)
                    except AssertionError as error:  # pragma: no cover
                        failures.append(error)
                        return

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(self.N_READERS)]
        for thread in threads:
            thread.start()
        for index in range(1, self.N_BATCHES):
            server.append(batch_for(index))
        stop.set()
        for thread in threads:
            thread.join()
        assert failures == []
        assert server.version == self.N_BATCHES

    def test_concurrent_retired_reads_complete(self):
        server = FusionServer()
        server.append(batch_for(0))
        server.publish()
        barrier = threading.Barrier(3)
        results = []

        def stale_reader():
            with server.read() as snapshot:
                barrier.wait(timeout=5)
                barrier.wait(timeout=5)  # hold the snapshot across the publish
                results.append(snapshot.posterior("b0_o0"))

        threads = [threading.Thread(target=stale_reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=5)
        server.append(batch_for(1))
        server.publish()
        barrier.wait(timeout=5)
        for thread in threads:
            thread.join()
        assert len(results) == 2
        for posterior in results:
            assert sum(posterior.values()) == pytest.approx(1.0)


class TestQueryAccounting:
    """Lock-free query recording loses no sample under thread switches."""

    N_QUERIERS = 4
    PER_QUERIER = 1500  # value + posterior each, several folds per thread

    def test_counts_are_exact_under_concurrent_queries_and_polls(self):
        server = FusionServer()
        server.append(batch_for(0))
        server.publish()
        metrics = server.metrics
        objects = [f"b0_o{slot}" for slot in range(8)]
        stop = threading.Event()
        failures = []

        def querier():
            for index in range(self.PER_QUERIER):
                server.value(objects[index % len(objects)])
                server.posterior(objects[index % len(objects)])

        def poller():
            last_total = 0
            while not stop.is_set():
                report = metrics.as_dict()
                total = report["queries"]["total"]
                by_kind = sum(report["queries"]["by_kind"].values())
                counts = sum(metrics.query_counts.values())
                if by_kind != total or total < last_total or counts < total:
                    failures.append((last_total, total, by_kind, counts))
                    return
                last_total = total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pollers = [threading.Thread(target=poller) for _ in range(2)]
            queriers = [threading.Thread(target=querier) for _ in range(self.N_QUERIERS)]
            for thread in pollers + queriers:
                thread.start()
            for thread in queriers:
                thread.join(timeout=60)
            stop.set()
            for thread in pollers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pollers + queriers)
        assert failures == []
        per_kind = self.N_QUERIERS * self.PER_QUERIER
        assert metrics.query_counts == {"value": per_kind, "posterior": per_kind}
        assert metrics.query_count == 2 * per_kind
        assert metrics.query_latency.count == 2 * per_kind
        report = metrics.as_dict()
        assert report["queries"] == {
            "total": 2 * per_kind,
            "by_kind": {"value": per_kind, "posterior": per_kind},
        }
        assert report["query_latency"]["count"] == 2 * per_kind


class TestWriterLoop:
    def test_ingest_flush_stop(self):
        server = FusionServer(publish_every=2).start()
        for index in range(4):
            server.ingest(batch_for(index))
        server.ingest_truth("b0_o0", "v1")
        server.flush()
        server.stop(publish=True)
        assert server.metrics.ingest_batches == 4
        assert server.version >= 2
        assert server.value("b0_o0") == "v1"

    def test_bad_batch_does_not_kill_the_loop(self):
        server = FusionServer().start()
        batch = batch_for(0)
        server.ingest(batch)
        server.ingest(batch)  # duplicate (source, object) claims -> rejected
        server.ingest(batch_for(1))
        server.flush()
        server.stop(publish=True)
        assert server.metrics.ingest_errors == 1
        assert server.metrics.ingest_batches == 2
        assert server.last_ingest_error is not None
        assert server.posterior("b1_o0")

    def test_nan_batch_is_rejected_whole(self):
        server = FusionServer().start()
        server.ingest([*batch_for(0), ("s0", "b0_nan", float("nan"))])
        server.ingest(batch_for(1))
        server.flush()
        server.stop(publish=True)
        assert isinstance(server.last_ingest_error, DatasetError)
        assert server.metrics.ingest_errors == 1
        assert server.metrics.ingest_batches == 1
        assert server.posterior("b0_o0") == {}  # the valid claims went with it
        assert server.posterior("b1_o0")

    def test_requires_start(self):
        server = FusionServer()
        with pytest.raises(RuntimeError, match="start"):
            server.ingest(batch_for(0))
        with pytest.raises(RuntimeError, match="start"):
            server.flush()
        server.stop()  # stop without start is a no-op

    def test_double_start_rejected(self):
        server = FusionServer().start()
        try:
            with pytest.raises(RuntimeError, match="already"):
                server.start()
        finally:
            server.stop()


class TestWriterBackpressure:
    def test_full_queue_blocks_ingest_until_the_writer_drains(self):
        fuser = StreamingFuser()
        entered, release = threading.Event(), threading.Event()
        observe_batch = fuser.observe_batch

        def held_observe_batch(observations):
            entered.set()
            release.wait(timeout=30)
            observe_batch(observations)

        fuser.observe_batch = held_observe_batch
        server = FusionServer(fuser).start()
        batches = [batch_for(index) for index in range(WRITER_QUEUE_SIZE + 2)]
        returned = threading.Event()

        def late_producer():
            server.ingest(batches[-1])
            returned.set()

        try:
            server.ingest(batches[0])
            assert entered.wait(timeout=10)  # the writer now sits inside append
            for batch in batches[1:-1]:
                server.ingest(batch)  # fills the queue to its bound
            producer = threading.Thread(target=late_producer, daemon=True)
            producer.start()
            assert not returned.wait(timeout=0.3)  # blocked, not dropped
            release.set()
            producer.join(timeout=10)
            assert returned.is_set()
            server.flush()
        finally:
            release.set()
            server.stop()
        assert server.metrics.ingest_errors == 0
        assert server.metrics.ingest_batches == len(batches)
        assert fuser.encoding.n_observations == sum(len(batch) for batch in batches)


class TestEntrypoint:
    def test_simulate_batches_unique_claims(self):
        batches, truth = simulate_batches(3, 4, 5, seed=1)
        claims = [(s, o) for batch in batches for (s, o, _) in batch]
        assert len(claims) == len(set(claims)) == 3 * 4 * 5
        assert len(truth) == 12

    def test_main_text_mode(self, capsys):
        code = serve_main(
            ["--batches", "3", "--objects-per-batch", "4", "--sources", "3",
             "--readers", "2", "--queries", "20", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "published v" in out
        assert "top-5 conflicts" in out

    def test_main_json_mode(self, capsys):
        import json

        code = serve_main(
            ["--batches", "2", "--objects-per-batch", "4", "--sources", "3",
             "--readers", "1", "--queries", "10", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["snapshot"]["n_objects"] == 8
        assert report["metrics"]["snapshots"]["swaps"] >= 1
        assert set(report["metrics"]["snapshots"]) == {"swaps", "age_seconds"}
        assert report["source_accuracies"]


class TestSnapshotPeek:
    def test_snapshot_property_tracks_publishes(self):
        server = FusionServer()
        assert isinstance(server.snapshot, Snapshot)
        assert server.snapshot.version == 0
        server.append(batch_for(0))
        published = server.publish()
        assert server.snapshot is published


class TestDriftingStream:
    """Serving a drifting stream with decayed trust (scenario integration)."""

    def _scenario(self):
        from repro.data import drift_scenario

        return drift_scenario(n_sources=8, objects_per_step=6, n_steps=10, seed=6)

    def test_version_monotonicity_and_snapshot_parity_mid_drift(self):
        scn = self._scenario()
        fuser = StreamingFuser(self_training=False, trust_decay=DecayConfig(half_life=30.0))
        server = FusionServer(fuser)

        versions = []
        for step in scn.steps:
            server.append(step.observations)
            for obj, value in step.reveal.items():
                server.reveal_truth(obj, value)
            snapshot = server.publish()
            versions.append(snapshot.version)

            # mid-drift parity: the published snapshot answers queries
            # identically to the live fuser at the moment of publish
            probe = [obs.obj for obs in step.observations[:5]]
            with server.read() as held:
                assert held.version == snapshot.version
                for obj in probe:
                    live = fuser.posterior(obj)
                    served = held.posterior(obj)
                    assert set(served) == set(live)
                    for value, p in live.items():
                        assert served[value] == pytest.approx(p, abs=1e-12)
                    assert held.value(obj) == fuser.current_value(obj)

        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)  # strictly increasing
        assert server.version == versions[-1]

    def test_decayed_server_tracks_drift_better_than_flat(self):
        scn = self._scenario()
        flat = FusionServer(StreamingFuser(self_training=False))
        decayed = FusionServer(
            StreamingFuser(self_training=False, trust_decay=DecayConfig(half_life=10.0))
        )
        for server in (flat, decayed):
            for step in scn.steps:
                server.append(step.observations)
                for obj, value in step.reveal.items():
                    server.reveal_truth(obj, value)
            server.publish()

        eval_objects = scn.eval_objects(at_step=scn.n_steps - 1, window=4)

        def accuracy(server):
            with server.read() as snapshot:
                hits = [snapshot.value(o) == scn.truth[o] for o in eval_objects]
            return float(np.mean(hits))

        assert accuracy(decayed) >= accuracy(flat)
