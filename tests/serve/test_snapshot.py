"""Published snapshots: query parity with the live fuser, conflict index,
persistence, and the attached-encoding pickling contract.

The serving contract under test:

* every :class:`~repro.serve.snapshot.Snapshot` query agrees with the
  :class:`~repro.extensions.streaming.StreamingFuser` state it was
  published from (posterior dicts, MAP values, overrides, source
  accuracies);
* the publish-time conflict index ranks objects by brute-force MAP
  margin and excludes objects that cannot conflict;
* snapshots round-trip through ``save``/``load`` (plain and ``mmap=True``)
  and through pickle;
* construction, unpickling and ``load`` reject parts whose sizes
  disagree with the store (a torn save directory, a reliability vector
  that does not match the source ids);
* pickling a snapshot that carries the accumulated dataset ships the
  compiled encoding explicitly — ``FusionDataset.__getstate__`` drops the
  cache, so without the explicit state restore every unpickle would
  silently recompile (the regression pinned here).
"""

import pickle

import numpy as np
import pytest

from repro.extensions.streaming import StreamingFuser
from repro.fusion import encoding as encoding_module
from repro.fusion.posterior_store import PosteriorStore
from repro.serve import ConflictEntry, Snapshot, build_conflict_index

OBSERVATIONS = [
    ("s1", "o1", "a"),
    ("s2", "o1", "b"),
    ("s3", "o1", "a"),
    ("s1", "o2", "x"),
    ("s2", "o2", "y"),
    ("s3", "o3", "z"),
    ("s1", "o4", "k"),
    ("s2", "o4", "k"),
]


def build_fuser(**kwargs):
    fuser = StreamingFuser(**kwargs)
    fuser.observe_batch(OBSERVATIONS)
    return fuser


def two_object_snapshot():
    fuser = StreamingFuser()
    fuser.observe_batch(OBSERVATIONS[:5])  # o1 and o2 only
    return Snapshot.from_fuser(fuser)


class TestQueryParity:
    def test_posterior_matches_fuser(self):
        fuser = build_fuser()
        snapshot = Snapshot.from_fuser(fuser, version=1)
        for obj in ("o1", "o2", "o3", "o4"):
            expected = fuser.posterior(obj)
            got = snapshot.posterior(obj)
            assert set(got) == set(expected)
            for value, prob in expected.items():
                assert got[value] == pytest.approx(prob)

    def test_value_and_confidence_match_fuser(self):
        fuser = build_fuser()
        snapshot = Snapshot.from_fuser(fuser)
        for obj in ("o1", "o2", "o3", "o4"):
            assert snapshot.value(obj) == fuser.current_value(obj)
            posterior = fuser.posterior(obj)
            assert snapshot.confidence(obj) == pytest.approx(max(posterior.values()))

    def test_unseen_object(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        assert snapshot.posterior("nope") == {}
        assert snapshot.value("nope") is None
        assert snapshot.confidence("nope") is None
        assert snapshot.margin("nope") is None
        assert snapshot.position("nope") is None

    def test_source_accuracies_match_fuser(self):
        fuser = build_fuser()
        snapshot = Snapshot.from_fuser(fuser)
        expected = fuser.source_accuracies()
        assert snapshot.source_accuracies() == pytest.approx(expected)
        for source, accuracy in expected.items():
            assert snapshot.source_accuracy(source) == pytest.approx(accuracy)
        assert snapshot.source_accuracy("ghost") is None
        assert snapshot.n_sources == len(expected)

    def test_in_domain_truth_clamps_to_point_mass(self):
        fuser = build_fuser()
        fuser.reveal_truth("o1", "b")
        snapshot = Snapshot.from_fuser(fuser)
        assert snapshot.value("o1") == "b"
        assert snapshot.confidence("o1") == 1.0
        assert snapshot.posterior("o1") == {"a": 0.0, "b": 1.0}

    def test_out_of_domain_truth_becomes_override(self):
        fuser = build_fuser()
        fuser.reveal_truth("o3", "UNSEEN")
        snapshot = Snapshot.from_fuser(fuser)
        assert snapshot.overrides == {"o3": "UNSEEN"}
        assert snapshot.value("o3") == "UNSEEN"
        assert snapshot.confidence("o3") == 1.0
        assert snapshot.posterior("o3") == {"z": 0.0, "UNSEEN": 1.0}

    def test_empty_snapshot(self):
        snapshot = Snapshot.empty(version=7)
        assert snapshot.version == 7
        assert snapshot.n_objects == 0
        assert snapshot.posterior("x") == {}
        assert snapshot.top_conflicts(5) == []
        assert snapshot.source_accuracies() == {}
        assert snapshot.stats()["n_objects"] == 0

    def test_from_fuser_on_empty_stream_publishes_empty(self):
        snapshot = Snapshot.from_fuser(StreamingFuser(), version=3)
        assert snapshot.n_objects == 0
        assert snapshot.version == 3


class TestConflictIndex:
    def brute_force_margins(self, fuser, snapshot):
        margins = {}
        for obj in snapshot.object_ids:
            posterior = fuser.posterior(obj)
            if len(posterior) < 2 or obj in snapshot.truth:
                continue
            ranked = sorted(posterior.values(), reverse=True)
            margins[obj] = ranked[0] - ranked[1]
        return margins

    def test_ranking_matches_brute_force(self):
        fuser = build_fuser()
        snapshot = Snapshot.from_fuser(fuser)
        expected = self.brute_force_margins(fuser, snapshot)
        entries = snapshot.top_conflicts(10)
        assert [entry.object for entry in entries] == sorted(expected, key=expected.get)
        for entry in entries:
            assert entry.margin == pytest.approx(expected[entry.object])
            posterior = fuser.posterior(entry.object)
            ranked = sorted(posterior, key=posterior.get, reverse=True)
            assert entry.map_value == ranked[0]
            assert entry.runner_up == ranked[1]
            assert entry.confidence == pytest.approx(posterior[ranked[0]])

    def test_single_candidate_objects_excluded(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        # o3 has a single claimed value; it can never conflict.
        objects = [entry.object for entry in snapshot.top_conflicts(100)]
        assert "o3" not in objects
        assert snapshot.margin("o3") == np.inf

    def test_override_objects_excluded(self):
        fuser = build_fuser()
        fuser.reveal_truth("o1", "OUTSIDE")
        snapshot = Snapshot.from_fuser(fuser)
        objects = [entry.object for entry in snapshot.top_conflicts(100)]
        assert "o1" not in objects

    def test_k_truncation_and_validation(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        assert len(snapshot.top_conflicts(1)) == 1
        assert snapshot.top_conflicts(0) == []
        with pytest.raises(ValueError):
            snapshot.top_conflicts(-1)

    def test_build_conflict_index_empty_store(self):
        store = PosteriorStore(np.zeros(1, dtype=np.int64), np.zeros(0))
        index = build_conflict_index(store)
        assert index.n_ranked == 0
        assert index.margins.shape == (0,)

    def test_entries_are_frozen_dataclasses(self):
        entry = Snapshot.from_fuser(build_fuser()).top_conflicts(1)[0]
        assert isinstance(entry, ConflictEntry)
        with pytest.raises(AttributeError):
            entry.margin = 0.0


class TestImmutability:
    def test_store_arrays_are_frozen(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        for array in (snapshot.store.probs, snapshot.store.offsets, snapshot.store.value_codes):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            snapshot.store.probs[0] = 0.5

    def test_conflict_arrays_are_frozen(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        assert not snapshot.conflicts.margins.flags.writeable
        assert not snapshot.conflicts.order.flags.writeable


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        fuser = build_fuser()
        fuser.reveal_truth("o3", "UNSEEN")
        snapshot = Snapshot.from_fuser(fuser, version=4)
        snapshot.save(str(tmp_path / "snap"))
        loaded = Snapshot.load(str(tmp_path / "snap"))
        assert loaded.version == 4
        assert loaded.stats() == snapshot.stats()
        for obj in ("o1", "o2", "o3", "o4"):
            assert loaded.posterior(obj) == pytest.approx(snapshot.posterior(obj))
            assert loaded.value(obj) == snapshot.value(obj)
        assert loaded.source_accuracies() == pytest.approx(snapshot.source_accuracies())
        assert [e.object for e in loaded.top_conflicts(10)] == [
            e.object for e in snapshot.top_conflicts(10)
        ]

    def test_memmap_load_serves_from_disk(self, tmp_path):
        snapshot = Snapshot.from_fuser(build_fuser())
        snapshot.save(str(tmp_path / "snap"))
        loaded = Snapshot.load(str(tmp_path / "snap"), mmap=True)
        assert isinstance(loaded.store.probs, np.memmap)
        assert not loaded.store.probs.flags.writeable
        for obj in ("o1", "o2", "o4"):
            assert loaded.posterior(obj) == pytest.approx(snapshot.posterior(obj))

    def test_pickle_round_trip(self):
        snapshot = Snapshot.from_fuser(build_fuser(), version=2)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.version == 2
        assert clone.posterior("o1") == pytest.approx(snapshot.posterior("o1"))
        assert not clone.store.probs.flags.writeable


class TestAlignment:
    """Every published part must fit the store, however it was built."""

    @pytest.mark.parametrize("mmap", [False, True])
    def test_load_rejects_a_store_from_another_save(self, tmp_path, mmap):
        # What a crash inside save leaves behind: store/ from the new
        # save next to meta.pkl from the old one.
        directory = two_object_snapshot().save(str(tmp_path / "snap"))
        Snapshot.from_fuser(build_fuser()).store.save(str(tmp_path / "snap" / "store"))
        with pytest.raises(ValueError, match="2 object ids for a store of 4 objects"):
            Snapshot.load(directory, mmap=mmap)

    def test_unpickling_rejects_misaligned_state(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        for key, value, message in [
            ("object_ids", snapshot.object_ids[:-1], "3 object ids for a store of 4"),
            ("pair_values", snapshot.pair_values[:-1], "pair values for a store of"),
            (
                "conflicts",
                two_object_snapshot().conflicts,
                "conflict index margins has 2 entries for a store of 4",
            ),
            ("accuracy_vector", snapshot.accuracy_vector[:1], "accuracy_vector of shape"),
        ]:
            state = snapshot.__getstate__()
            state[key] = value
            with pytest.raises(ValueError, match=message):
                Snapshot.__new__(Snapshot).__setstate__(state)

    @pytest.mark.parametrize(
        "vector, source_ids, message",
        [
            ([0.9], ["s1", "s2"], "accuracy_vector of shape"),
            ([0.9, 0.8, 0.7], ["s1", "s2"], "accuracy_vector of shape"),
            ([[0.9, 0.8]], ["s1", "s2"], "accuracy_vector of shape"),
            (0.9, ["s1", "s2"], "accuracy_vector of shape"),
            ([0.9], None, "given together"),
        ],
        ids=["short", "long", "2d", "scalar", "no-source-ids"],
    )
    def test_accuracy_vector_must_match_source_ids(self, vector, source_ids, message):
        snapshot = Snapshot.from_fuser(build_fuser())
        with pytest.raises(ValueError, match=message):
            Snapshot(
                snapshot.store,
                snapshot.object_ids,
                snapshot.pair_values,
                accuracy_vector=np.array(vector),
                source_ids=source_ids,
            )


class TestAttachedEncodingPickling:
    """Regression: Snapshot pickling must not silently recompile.

    ``FusionDataset.__getstate__`` drops the cached ``_dense_encoding``
    (for datasets it is a cache), so a snapshot that just pickled its
    dataset would come back without the compiled encoding and the first
    batch consumer would recompile it.  Snapshots ship the encoding
    explicitly via ``export_state``/``from_state``.
    """

    def test_plain_dataset_pickle_drops_encoding(self):
        fuser = build_fuser()
        dataset = fuser.encoding.to_dataset()
        assert dataset._dense_encoding is not None
        restored = pickle.loads(pickle.dumps(dataset))
        assert getattr(restored, "_dense_encoding", None) is None

    def test_snapshot_round_trips_attached_encoding(self):
        snapshot = Snapshot.from_fuser(build_fuser(), with_dataset=True)
        original = snapshot.dataset._dense_encoding
        assert original is not None
        clone = pickle.loads(pickle.dumps(snapshot))
        restored = clone.dataset._dense_encoding
        assert restored is not None
        np.testing.assert_array_equal(restored.pair_offsets, original.pair_offsets)
        np.testing.assert_array_equal(restored.obs_value_code, original.obs_value_code)
        assert restored.pair_values == original.pair_values

    def test_unpickling_never_recompiles(self, monkeypatch):
        snapshot = Snapshot.from_fuser(build_fuser(), with_dataset=True)
        blob = pickle.dumps(snapshot)
        calls = []
        original_init = encoding_module.DenseEncoding.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            return original_init(self, *args, **kwargs)

        monkeypatch.setattr(encoding_module.DenseEncoding, "__init__", counting_init)
        clone = pickle.loads(blob)
        assert clone.dataset._dense_encoding is not None
        # from_state rebuilds the object shell without recompiling; a
        # compile would have gone through __init__.
        assert calls == []

    def test_without_dataset_no_dataset_travels(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        assert snapshot.dataset is None
        assert pickle.loads(pickle.dumps(snapshot)).dataset is None
