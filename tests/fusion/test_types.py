"""Unit tests for repro.fusion.types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fusion import Indexer, Observation
from repro.fusion.types import DatasetStats


class TestObservation:
    def test_fields(self):
        obs = Observation("s", "o", "v")
        assert obs.source == "s"
        assert obs.obj == "o"
        assert obs.value == "v"

    def test_unpacking(self):
        source, obj, value = Observation("s", "o", 3)
        assert (source, obj, value) == ("s", "o", 3)

    def test_frozen(self):
        obs = Observation("s", "o", "v")
        with pytest.raises(AttributeError):
            obs.value = "w"

    def test_equality_and_hash(self):
        assert Observation("s", "o", 1) == Observation("s", "o", 1)
        assert hash(Observation("s", "o", 1)) == hash(Observation("s", "o", 1))
        assert Observation("s", "o", 1) != Observation("s", "o", 2)

    def test_a_record_is_its_triple(self):
        record = Observation("s", "o", 1)
        assert isinstance(record, tuple)
        assert record == ("s", "o", 1)
        assert hash(record) == hash(("s", "o", 1))


class TestIndexer:
    def test_add_returns_stable_indices(self):
        indexer = Indexer()
        assert indexer.add("a") == 0
        assert indexer.add("b") == 1
        assert indexer.add("a") == 0  # idempotent

    def test_init_from_iterable(self):
        indexer = Indexer(["x", "y", "x"])
        assert len(indexer) == 2
        assert indexer.index("y") == 1

    def test_item_roundtrip(self):
        indexer = Indexer(["p", "q"])
        for item in ("p", "q"):
            assert indexer.item(indexer.index(item)) == item

    def test_contains(self):
        indexer = Indexer(["a"])
        assert "a" in indexer
        assert "b" not in indexer

    def test_unknown_item_raises(self):
        with pytest.raises(KeyError):
            Indexer().index("missing")

    def test_iteration_order(self):
        items = ["c", "a", "b"]
        assert list(Indexer(items)) == items

    def test_items_returns_copy(self):
        indexer = Indexer(["a"])
        copy = indexer.items
        copy.append("b")
        assert len(indexer) == 1

    @given(st.lists(st.integers()))
    def test_property_index_item_inverse(self, values):
        indexer = Indexer(values)
        for value in set(values):
            assert indexer.item(indexer.index(value)) == value

    @given(st.lists(st.text(max_size=5), unique=True))
    def test_property_indices_are_dense(self, values):
        indexer = Indexer(values)
        assert sorted(indexer.index(v) for v in values) == list(range(len(values)))


class TestDatasetStats:
    def test_rows_shape_and_labels(self):
        stats = DatasetStats(
            n_sources=10,
            n_objects=20,
            n_observations=50,
            n_domain_features=3,
            n_feature_values=9,
            avg_source_accuracy=0.75,
            avg_observations_per_object=2.5,
            avg_observations_per_source=5.0,
            ground_truth_fraction=1.0,
        )
        rows = stats.rows()
        assert len(rows) == 9
        labels = [label for label, _ in rows]
        assert "# Sources" in labels
        assert ("Avg. Src. Acc.", 0.75) in rows

    def test_missing_accuracy_renders_dash(self):
        stats = DatasetStats(
            n_sources=1,
            n_objects=1,
            n_observations=1,
            n_domain_features=0,
            n_feature_values=0,
            avg_source_accuracy=None,
            avg_observations_per_object=1.0,
            avg_observations_per_source=1.0,
            ground_truth_fraction=0.0,
        )
        assert ("Avg. Src. Acc.", "-") in stats.rows()
