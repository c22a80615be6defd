"""Published snapshots: query parity with the live fuser, conflict index,
persistence, and the attached-encoding pickling contract.

The serving contract under test:

* every :class:`~repro.serve.snapshot.Snapshot` query agrees with the
  :class:`~repro.extensions.streaming.StreamingFuser` state it was
  published from (posterior dicts, MAP values, overrides, source
  accuracies);
* the conflict index ranks objects by brute-force MAP margin and
  excludes objects that cannot conflict; a publish does not build it,
  and the first ranking read (``top_conflicts``, ``margin``, ``stats``)
  builds it exactly once per snapshot, racing readers included;
* snapshots round-trip through ``save``/``load`` (plain and ``mmap=True``)
  and through pickle;
* construction, unpickling and ``load`` reject parts whose sizes
  disagree with the store (a torn save directory, a row index that does
  not fit the store or points past the value table, a reliability vector
  that does not match the source ids) and state of another format
  version, unversioned state included;
* pickling a snapshot that carries the accumulated dataset ships the
  compiled encoding explicitly — ``FusionDataset.__getstate__`` drops the
  cache, so without the explicit state restore every unpickle would
  silently recompile (the regression pinned here);
* the publish-time lookups (the id -> position map and each object's MAP
  row) answer every object as a decode straight off the result's arrays
  would, after pickling and a memmapped reload too, and never alias the
  live stream: objects appended after a publish stay unknown to it.  A
  ``slow`` replay checks the published claimed values against the ingest
  oracle at perfbench's ``stream_serve`` shape;
* a publish reads the fuser's live spans, truth-code table and
  append-only value table without compiling, rebuilding the candidate
  value list or ranking conflicts, and equals the compile-path oracle
  (``tests/oracles/streaming.py``) byte for byte: offsets, probabilities,
  value codes, claimed values, overrides and MAP rows.  A snapshot shares
  the stream's value table and answers from the entries it had at
  publish, after later appends and through pickling.
"""

import pickle
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extensions.streaming import StreamingFuser
from repro.fusion import encoding as encoding_module
from repro.fusion.posterior_store import PosteriorStore
from repro.fusion.types import Indexer
from repro.serve import ConflictEntry, FusionServer, Snapshot, build_conflict_index
from repro.serve import snapshot as snapshot_module
from tests.oracles import ingest as oracle_ingest
from tests.oracles import streaming as oracle_streaming

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

    def test_none_truth_outside_domain_is_an_override(self):
        fuser = StreamingFuser()
        fuser.observe_batch([("s1", "o1", "a"), ("s2", "o1", "b"), ("s1", "o2", "x")])
        fuser.reveal_truth("o1", None)
        snapshot = Snapshot.from_fuser(fuser)
        clamped = {"a": 0.0, "b": 0.0, None: 1.0}
        assert fuser.posterior("o1") == clamped
        assert snapshot.overrides == {"o1": None}
        assert snapshot.value("o1") is None
        assert snapshot.confidence("o1") == 1.0
        assert snapshot.posterior("o1") == clamped
        assert fuser.to_result().posteriors["o1"] == clamped

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


class TestLazyConflictIndex:
    """A publish leaves the index to the snapshot's first ranking read."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counting(store):
            calls.append(store)
            return build_conflict_index(store)

        monkeypatch.setattr(snapshot_module, "build_conflict_index", counting)
        return calls

    @pytest.mark.parametrize(
        "read",
        [
            lambda snapshot: snapshot.top_conflicts(2),
            lambda snapshot: snapshot.margin("o1"),
            lambda snapshot: snapshot.stats(),
        ],
        ids=["top_conflicts", "margin", "stats"],
    )
    def test_first_ranking_read_builds_it_once(self, builds, read):
        snapshot = FusionServer(build_fuser()).publish()
        for obj in snapshot.object_ids:
            for query in (snapshot.value, snapshot.posterior, snapshot.confidence):
                query(obj)
        assert builds == []
        read(snapshot)
        assert len(builds) == 1 and builds[0] is snapshot.store
        snapshot.top_conflicts(10)
        snapshot.margin("o2")
        snapshot.stats()
        assert len(builds) == 1
        want = build_conflict_index(snapshot.store)
        for name in ("margins", "second_codes", "order"):
            assert_same_array(getattr(snapshot.conflicts, name), getattr(want, name), name)
        assert snapshot.conflicts.n_ranked == want.n_ranked

    def test_racing_first_readers_agree(self):
        fuser = StreamingFuser()
        fuser.observe_batch(
            [(f"s{s}", f"o{o}", f"v{(o * s) % 3}") for o in range(300) for s in range(4)]
        )
        snapshot = Snapshot.from_fuser(fuser)
        want = Snapshot.from_fuser(fuser).top_conflicts(10)
        start = threading.Barrier(8)
        results = [None] * 8

        def reader(index):
            start.wait(timeout=30)
            results[index] = snapshot.top_conflicts(10)

        threads = [threading.Thread(target=reader, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(want) == 10
        assert all(entries == want for entries in results)


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
            ("value_rows", snapshot.value_rows[:-1], r"\(5,\) for a store of 6 rows"),
            ("value_rows", snapshot.value_rows.astype(float), "must be an int64 array"),
            ("value_table", snapshot.value_table[:-1], "outside a table of 5 values"),
            ("accuracy_vector", snapshot.accuracy_vector[:1], "accuracy_vector of shape"),
        ]:
            state = snapshot.__getstate__()
            state[key] = value
            with pytest.raises(ValueError, match=message):
                Snapshot.__new__(Snapshot).__setstate__(state)

    def test_unpickling_rejects_rows_before_the_table(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        state = snapshot.__getstate__()
        rows = snapshot.value_rows.copy()
        rows[0] = -1
        state["value_rows"] = rows
        with pytest.raises(ValueError, match="outside a table of 6 values"):
            Snapshot.__new__(Snapshot).__setstate__(state)

    @pytest.mark.parametrize("found", [None, 2, 4])
    def test_unpickling_rejects_another_format_version(self, found):
        state = Snapshot.from_fuser(build_fuser()).__getstate__()
        if found is None:
            del state["format_version"]
            saved = "no format version"
        else:
            state["format_version"] = found
            saved = f"format version {found}"
        with pytest.raises(ValueError, match=f"{saved}; .* reads format version 3: re-save"):
            Snapshot.__new__(Snapshot).__setstate__(state)

    def test_load_rejects_an_unversioned_save(self, tmp_path):
        directory = Snapshot.from_fuser(build_fuser()).save(str(tmp_path / "snap"))
        meta = tmp_path / "snap" / "meta.pkl"
        state = pickle.loads(meta.read_bytes())
        del state["format_version"]
        meta.write_bytes(pickle.dumps(state))
        with pytest.raises(ValueError, match="no format version"):
            Snapshot.load(directory)

    def test_derived_state_is_never_persisted(self):
        snapshot = Snapshot.from_fuser(build_fuser())
        snapshot.top_conflicts(1)
        assert len(snapshot.pair_values) == snapshot.store.n_rows
        state = snapshot.__getstate__()
        assert state["format_version"] == snapshot_module.FORMAT_VERSION
        assert not set(state) & set(snapshot_module._DERIVED)
        assert Snapshot.__new__(Snapshot).__setstate__(state) is None

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
                snapshot.value_table,
                snapshot.value_rows,
                accuracy_vector=np.array(vector),
                source_ids=source_ids,
            )


class TestAttachedEncodingPickling:
    """``FusionDataset.__getstate__`` drops the cached ``_dense_encoding``
    (for datasets it is a cache); a stream's one dataset export,
    ``IncrementalEncoding.to_dataset``, attaches it and a pickle drops it.
    """

    def test_plain_dataset_pickle_drops_encoding(self):
        fuser = build_fuser()
        dataset = fuser.encoding.to_dataset()
        assert dataset._dense_encoding is not None
        restored = pickle.loads(pickle.dumps(dataset))
        assert getattr(restored, "_dense_encoding", None) is None


def reference_decode(result, position):
    """``(value, confidence, posterior)`` of one object, read off the result's arrays."""
    obj = result.object_ids[position]
    start, stop = int(result.pair_offsets[position]), int(result.pair_offsets[position + 1])
    values = result.pair_values[start:stop]
    probs = result.posterior_store.probs
    if obj in result.overrides:
        override = result.overrides[obj]
        return override, 1.0, {**dict.fromkeys(values, 0.0), override: 1.0}
    row = start + int(result.value_codes[position])
    return result.pair_values[row], float(probs[row]), dict(zip(values, probs[start:stop].tolist()))


@st.composite
def revealed_streams(draw):
    """Claim batches on up to 12 objects, with truth reveals before each batch.

    Objects claimed once, or only with one value, have a single candidate.
    A reveal names a claimed value (a point mass), a value claimed only
    later, or ``"UNSEEN"`` (an override), on seen or not-yet-seen objects.
    """
    n_objects = draw(st.integers(1, 12))
    claims = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, n_objects - 1), st.integers(0, 3)),
            unique_by=lambda claim: claim[:2],
            min_size=1,
            max_size=40,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(claims)), max_size=4)))
    bounds = [0, *cuts, len(claims)]
    batches = [
        [(f"s{s}", f"o{o}", f"v{v}") for s, o, v in claims[begin:end]]
        for begin, end in zip(bounds, bounds[1:])
    ]
    label = st.tuples(
        st.integers(0, n_objects - 1).map(lambda o: f"o{o}"),
        st.sampled_from(["v0", "v1", "v2", "v3", "UNSEEN"]),
    )
    reveals = draw(
        st.lists(st.lists(label, max_size=3), min_size=len(batches), max_size=len(batches))
    )
    return batches, reveals


class TestPublishedLookups:
    """The publish-time id -> position map and MAP rows."""

    @settings(max_examples=60, deadline=None)
    @given(stream=revealed_streams())
    def test_every_object_matches_the_reference_decode(self, stream):
        batches, reveals = stream
        fuser = StreamingFuser()
        for batch, labels in zip(batches, reveals):
            for obj, value in labels:
                fuser.reveal_truth(obj, value)
            fuser.observe_batch(batch)
        snapshot = Snapshot.from_fuser(fuser)
        result = fuser.to_result()
        with tempfile.TemporaryDirectory() as directory:
            loaded = Snapshot.load(snapshot.save(directory), mmap=True)
            for published in (snapshot, pickle.loads(pickle.dumps(snapshot)), loaded):
                assert published.n_objects == len(result.object_ids)
                for position, obj in enumerate(result.object_ids):
                    value, confidence, posterior = reference_decode(result, position)
                    assert published.position(obj) == position
                    assert published.value(obj) == value
                    assert published.confidence(obj) == confidence
                    assert published.posterior(obj) == posterior
                assert published.position("never-claimed") is None

    def test_a_snapshot_answers_from_its_own_table_length(self, tmp_path):
        fuser = build_fuser()
        fuser.reveal_truth("o3", "UNSEEN")
        first = Snapshot.from_fuser(fuser, version=1)
        table = fuser.encoding.value_table
        n_values = len(table)
        answers = {
            obj: (first.value(obj), first.confidence(obj), first.posterior(obj))
            for obj in first.object_ids
        }
        # New values on published objects and new objects grow the shared table.
        fuser.observe_batch([("s4", "o1", "c"), ("s4", "o2", "x"), ("s1", "o5", "n")])
        second = Snapshot.from_fuser(fuser, version=2)
        assert first.value_table is table is second.value_table
        assert len(table) == n_values + 2
        assert second.posterior("o1").keys() == {"a", "b", "c"}
        directory = first.save(str(tmp_path / "first"))
        for published in (first, pickle.loads(pickle.dumps(first)), Snapshot.load(directory)):
            assert published.pair_values == first.pair_values
            assert len(published.pair_values) == first.store.n_rows == n_values
            for obj, (value, confidence, posterior) in answers.items():
                assert published.value(obj) == value
                assert published.confidence(obj) == confidence
                assert published.posterior(obj) == posterior
            assert published.value("o5") is None
        for published in (pickle.loads(pickle.dumps(first)), Snapshot.load(directory)):
            assert published.value_table == table[:n_values]

    def test_later_appends_never_reach_a_published_snapshot(self):
        fuser = build_fuser()
        first = Snapshot.from_fuser(fuser, version=1)
        result = fuser.to_result()
        n_objects = first.n_objects
        answers = {obj: (first.position(obj), first.value(obj)) for obj in first.object_ids}
        fuser.observe_batch([("s1", "o5", "new"), ("s2", "o6", "new"), ("s3", "o2", "w")])
        second = Snapshot.from_fuser(fuser, version=2)
        assert second.position("o5") == n_objects
        for obj in ("o5", "o6"):
            assert first.position(obj) is None
            assert first.value(obj) is None
            # A result built before the append and indexed after it.
            assert obj not in result.position_index()
        assert first.n_objects == n_objects
        assert {obj: (first.position(obj), first.value(obj)) for obj in answers} == answers
        assert result.position_index() == {obj: i for i, obj in enumerate(result.object_ids)}


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_same_values(got, want, name):
    assert list(got) == list(want), name
    assert list(map(type, got)) == list(map(type, want)), name


def assert_same_publish(fuser, snapshot, compiled):
    """``snapshot`` (published from ``fuser``) equals the compile-path oracle's."""
    if not compiled.has_arrays:
        assert snapshot.n_objects == 0
        return
    want = Snapshot.from_result(
        compiled,
        version=snapshot.version,
        n_observations=fuser.encoding.n_observations,
        n_refits=fuser.n_refits,
        truth=dict(fuser.truth),
    )
    for name in ("offsets", "probs", "value_codes"):
        assert_same_array(getattr(snapshot.store, name), getattr(want.store, name), name)
    assert_same_values(snapshot.pair_values, want.pair_values, "pair_values")
    assert_same_values(snapshot.object_ids, want.object_ids, "object_ids")
    assert_same_values(snapshot.overrides.items(), want.overrides.items(), "overrides")
    assert_same_values(snapshot.overrides.values(), want.overrides.values(), "overrides")
    assert snapshot._map_rows == want._map_rows
    assert snapshot._positions == want._positions
    assert snapshot._source_positions == want._source_positions
    assert snapshot.source_ids == want.source_ids
    assert_same_array(snapshot.accuracy_vector, want.accuracy_vector, "accuracy_vector")
    assert snapshot.truth == want.truth
    assert snapshot.stats() == want.stats()


def assert_same_result(result, compiled):
    """A fuser's ``to_result`` equals the compile-path oracle's, byte for byte."""
    assert result.has_arrays == compiled.has_arrays
    assert result.diagnostics == compiled.diagnostics
    if not compiled.has_arrays:
        assert result == compiled
        return
    assert_same_array(result.pair_offsets, compiled.pair_offsets, "pair_offsets")
    assert_same_array(result.posterior_store.probs, compiled.posterior_store.probs, "probs")
    assert_same_array(result.value_codes, compiled.value_codes, "value_codes")
    assert_same_values(result.pair_values, compiled.pair_values, "pair_values")
    assert_same_values(result.object_ids, compiled.object_ids, "object_ids")
    assert_same_values(result.overrides.items(), compiled.overrides.items(), "overrides")
    assert_same_values(result.overrides.values(), compiled.overrides.values(), "overrides")
    assert result.source_ids == compiled.source_ids
    assert_same_array(
        result.source_accuracy_vector, compiled.source_accuracy_vector, "accuracy_vector"
    )
    assert result.posteriors == compiled.posteriors


CLAIM_VALUES = ["v0", "v1", "v2", None]


@st.composite
def published_streams(draw):
    """Claim batches with reveals before each, refits after some, on up to 8 objects.

    Claims and labels draw from ``v0``-``v2`` and ``None``; labels also
    name ``"UNSEEN"``, which no source claims.  A label may come before or
    after its object arrives, and name a value a later batch claims.
    """
    n_objects = draw(st.integers(1, 8))
    claims = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, n_objects - 1), st.sampled_from(CLAIM_VALUES)
            ),
            unique_by=lambda claim: claim[:2],
            max_size=30,
        )
    )
    batch_size = draw(st.integers(1, 12))
    batches = [
        [(f"s{s}", f"o{o}", v) for s, o, v in claims[start : start + batch_size]]
        for start in range(0, len(claims), batch_size)
    ]
    label = st.tuples(
        st.integers(0, n_objects - 1).map(lambda o: f"o{o}"),
        st.sampled_from([*CLAIM_VALUES, "UNSEEN"]),
    )
    reveals = draw(
        st.lists(st.lists(label, max_size=3), min_size=len(batches), max_size=len(batches))
    )
    refits = draw(st.lists(st.booleans(), min_size=len(batches), max_size=len(batches)))
    return batches, reveals, refits


class TestPublishParity:
    """``to_result`` and ``Snapshot.from_fuser`` against the compile-path oracle."""

    @settings(max_examples=80, deadline=None)
    @given(stream=published_streams())
    # A None label before its object arrives; an unclaimed label that a
    # later batch claims; a refit between publishes.
    @example(
        stream=(
            [[("s0", "o0", "v0"), ("s1", "o0", "v1")], [("s0", "o1", None), ("s2", "o0", "v2")]],
            [[("o1", None), ("o0", "v2")], []],
            [True, False],
        )
    )
    def test_every_publish_matches_the_compile_path(self, stream):
        batches, reveals, refits = stream
        fuser = StreamingFuser()
        for version, (batch, labels, refit) in enumerate(zip(batches, reveals, refits), 1):
            for obj, value in labels:
                fuser.reveal_truth(obj, value)
            fuser.observe_batch(batch)
            if refit and fuser.encoding.n_observations:
                fuser.refit()
            result = fuser.to_result()
            snapshot = Snapshot.from_fuser(fuser, version=version)
            if not refit:
                # The append cleared the compile and the truth-code memo,
                # and the publish rebuilt neither.
                assert fuser.encoding._arrays is None
                assert fuser.encoding._truth_memo is None
            compiled = oracle_streaming.compiled_result(fuser)
            assert_same_result(result, compiled)
            assert_same_publish(fuser, snapshot, compiled)

    def test_empty_stream_matches_the_compile_path(self):
        fuser = StreamingFuser()
        fuser.reveal_truth("o1", "a")
        compiled = oracle_streaming.compiled_result(fuser)
        assert_same_result(fuser.to_result(), compiled)
        assert_same_publish(fuser, Snapshot.from_fuser(fuser), compiled)

    def test_publish_runs_no_python_work_per_candidate(self, monkeypatch):
        server = FusionServer(build_fuser())
        server.refit()
        server.reveal_truth("o1", "b")
        server.reveal_truth("o3", "UNSEEN")
        server.append([("s1", "o9", "q"), ("s4", "o1", "c"), ("s2", "o9", "r")])

        def refuse(*args, **kwargs):
            raise AssertionError("a publish rebuilt the candidate values or ranked conflicts")

        monkeypatch.setattr(encoding_module.IncrementalEncoding, "pair_values", property(refuse))
        monkeypatch.setattr(snapshot_module, "build_conflict_index", refuse)
        snapshot = server.publish()
        answers = {
            obj: (snapshot.value(obj), snapshot.confidence(obj), snapshot.posterior(obj))
            for obj in snapshot.object_ids
        }
        monkeypatch.undo()
        result = oracle_streaming.compiled_result(server.fuser)
        assert snapshot.object_ids == result.object_ids
        for position, obj in enumerate(result.object_ids):
            value, confidence, posterior = reference_decode(result, position)
            assert answers[obj] == (value, confidence, posterior)

    def test_publish_after_an_append_does_not_compile(self, monkeypatch):
        fuser = build_fuser()
        fuser.refit()
        fuser.reveal_truth("o1", "b")
        fuser.reveal_truth("o3", "UNSEEN")
        fuser.reveal_truth("o9", None)
        fuser.observe_batch([("s1", "o9", "q"), ("s4", "o1", "c")])

        def refuse(*args, **kwargs):
            raise AssertionError("a publish compiled or re-coded the truth")

        monkeypatch.setattr(encoding_module, "compile_arrays", refuse)
        monkeypatch.setattr(encoding_module.DenseEncoding, "truth_codes", refuse)
        snapshot = Snapshot.from_fuser(fuser)
        assert fuser.encoding._arrays is None
        assert snapshot.value("o1") == "b"
        assert snapshot.value("o3") == "UNSEEN"
        assert snapshot.posterior("o9") == {"q": 0.0, None: 1.0}
        assert snapshot.overrides == {"o3": "UNSEEN", "o9": None}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_stream_serve_shape_publishes_match_the_ingest_oracle(seed, tmp_path):
    """perfbench's ``stream_serve`` inputs: 1,000-row batches, a publish every 5.

    At every publish the claimed values are the domains the per-record
    ingest oracle builds from the same prefix, every object's value
    decodes through them, and the published store is the compile-path
    oracle's, byte for byte.
    """
    from perfbench.workloads import PUBLISH_EVERY, REFIT_EVERY, SIZES, StreamServe

    inputs = StreamServe(SIZES["full"]["stream_serve"]).setup(seed, tmp_path)
    server = FusionServer(StreamingFuser())
    sources, objects, domains, seen = Indexer(), Indexer(), [], set()
    for obj, value in inputs.train_truth.items():
        server.reveal_truth(obj, value)
    n_batches = len(inputs.batches)
    for number, batch in enumerate(inputs.batches, 1):
        server.append(batch)
        oracle_ingest.intern_observations(batch, sources, objects, domains, seen)
        if number % REFIT_EVERY == 0:
            server.refit()
        if number % PUBLISH_EVERY and number != n_batches:
            continue
        snapshot = server.publish()
        expected = [value for domain in domains for value in domain]
        assert snapshot.pair_values == expected
        assert list(map(type, snapshot.pair_values)) == list(map(type, expected))
        assert snapshot.object_ids == objects.items
        codes = snapshot.store.value_codes.tolist()
        for position, obj in enumerate(snapshot.object_ids):
            if obj in snapshot.overrides:
                expected_value = snapshot.overrides[obj]
            else:
                expected_value = domains[position].item(codes[position])
            assert snapshot.value(obj) == expected_value
        assert_same_publish(server.fuser, snapshot, oracle_streaming.compiled_result(server.fuser))
