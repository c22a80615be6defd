"""Tests for CSV dataset persistence."""

import csv
import pickle

import numpy as np
import pytest

from repro import SLiMFast
from repro.data import generate, load_dataset, save_dataset
from repro.featurize import FeaturizerPipeline
from repro.fusion import DatasetError, FusionDataset, Observation
from repro.fusion.encoding import encode_dataset
from repro.serve.snapshot import Snapshot


class TestRoundTrip:
    def test_observations_preserved(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert [
            (o.source, o.obj, o.value) for o in loaded.observations
        ] == [(o.source, o.obj, o.value) for o in tiny_dataset.observations]

    def test_ground_truth_preserved(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.ground_truth == tiny_dataset.ground_truth

    def test_features_parsed_back(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.source_features["a1"]["citations"] == 34
        assert loaded.source_features["a1"]["year"] == 2009

    def test_accuracies_preserved(self, tmp_path):
        ds = FusionDataset([("s", "o", "v")], true_accuracies={"s": 0.875})
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.true_accuracies["s"] == pytest.approx(0.875)

    def test_bool_and_float_features(self, tmp_path):
        ds = FusionDataset(
            [("s", "o", "v")],
            source_features={"s": {"flag": True, "rate": 0.25, "label": "xyz"}},
        )
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        feats = loaded.source_features["s"]
        assert feats["flag"] is True
        assert feats["rate"] == 0.25
        assert feats["label"] == "xyz"

    def test_optional_files_absent(self, tmp_path):
        ds = FusionDataset([("s", "o", "v")])
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.ground_truth == {}
        assert loaded.source_features == {}

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_dataset(tmp_path / "nonexistent")

    def test_name_assigned(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        assert load_dataset(tmp_path, name="renamed").name == "renamed"

    def test_simulator_round_trip(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.n_observations == small_dataset.n_observations
        assert loaded.n_sources == small_dataset.n_sources
        assert set(loaded.ground_truth.values()) == set(small_dataset.ground_truth.values())


class TestSaveFromColumns:
    """``observations.csv`` is written from the id-column decoder."""

    def test_round_trip_keeps_which_claims_agree(self, tmp_path):
        dataset = FusionDataset([("s1", "o", 1), ("s2", "o", True), ("s3", "o", 2)])
        np.testing.assert_array_equal(dataset.obs_value_idx, [0, 0, 1])
        save_dataset(dataset, tmp_path)
        np.testing.assert_array_equal(load_dataset(tmp_path).obs_value_idx, [0, 0, 1])

    def test_save_builds_no_record(self, small_dataset, tmp_path):
        loaded = load_dataset(save_dataset(small_dataset, tmp_path / "first"))
        save_dataset(loaded, tmp_path / "second")
        assert loaded._observations is None
        first = (tmp_path / "first" / "observations.csv").read_bytes()
        assert (tmp_path / "second" / "observations.csv").read_bytes() == first

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batch_fuse_shape_matches_a_record_loop_writer(self, seed, tmp_path):
        # perfbench's batch_fuse input: about 100k claims.
        dataset = generate(
            seed=seed,
            name="perfbench",
            n_sources=2000,
            n_objects=10000,
            density=0.005,
            domain_size_range=(2, 4),
        ).dataset
        save_dataset(dataset, tmp_path / "columns")
        with open(tmp_path / "records.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "object", "value"])
            for obs in dataset.observations:
                writer.writerow([obs.source, obs.obj, obs.value])
        saved = (tmp_path / "columns" / "observations.csv").read_bytes()
        assert saved == (tmp_path / "records.csv").read_bytes()


class TestMalformedFiles:
    """Every CSV file goes through one validated row reader."""

    def test_short_row_rejected_with_line(self, tmp_path):
        (tmp_path / "observations.csv").write_text("source,object,value\ns1,o1,a\ns2,o1\n")
        with pytest.raises(DatasetError, match=r"observations\.csv, line 3: expected 3 fields"):
            load_dataset(tmp_path)

    def test_long_row_rejected_with_line(self, tmp_path):
        (tmp_path / "observations.csv").write_text("source,object,value\ns1,o1,a,extra\n")
        with pytest.raises(DatasetError, match=r"observations\.csv, line 2: .*got 4"):
            load_dataset(tmp_path)

    def test_line_counts_quoted_newlines(self, tmp_path):
        (tmp_path / "observations.csv").write_text('source,object,value\ns1,o1,"a\nb"\ns2\n')
        with pytest.raises(DatasetError, match="line 4"):
            load_dataset(tmp_path)

    def test_missing_column_named(self, tmp_path):
        (tmp_path / "observations.csv").write_text("src,object,value\ns1,o1,a\n")
        with pytest.raises(DatasetError, match=r"observations\.csv: no 'source' column"):
            load_dataset(tmp_path)

    def test_side_files_validated(self, tmp_path):
        (tmp_path / "observations.csv").write_text("source,object,value\ns1,o1,a\n")
        (tmp_path / "ground_truth.csv").write_text("object,value\no1\n")
        with pytest.raises(DatasetError, match=r"ground_truth\.csv, line 2"):
            load_dataset(tmp_path)
        (tmp_path / "ground_truth.csv").unlink()
        (tmp_path / "source_features.csv").write_text("source,value\ns1,3\n")
        with pytest.raises(DatasetError, match=r"source_features\.csv: no 'feature' column"):
            load_dataset(tmp_path)
        (tmp_path / "source_features.csv").unlink()
        (tmp_path / "true_accuracies.csv").write_text("source,accuracy\ns1,0.5,0.7\n")
        with pytest.raises(DatasetError, match=r"true_accuracies\.csv, line 2"):
            load_dataset(tmp_path)

    def test_column_order_free_and_blank_lines_skipped(self, tmp_path):
        (tmp_path / "observations.csv").write_text("\nvalue,source,object\n\na,s1,o1\n\nb,s2,o1\n")
        (tmp_path / "ground_truth.csv").write_text("value,object\na,o1\n\n")
        loaded = load_dataset(tmp_path)
        assert [tuple(obs) for obs in loaded.observations] == [("s1", "o1", "a"), ("s2", "o1", "b")]
        assert loaded.ground_truth == {"o1": "a"}


class TestColumnarLoad:
    def test_records_materialize_on_demand(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded._observations is None
        assert loaded.observations == tiny_dataset.observations
        assert loaded.observations is loaded.observations

    def test_pickle_holds_no_records(self, small_dataset, tmp_path):
        loaded = load_dataset(save_dataset(small_dataset, tmp_path))
        before = len(pickle.dumps(loaded))
        assert loaded.observations
        assert len(pickle.dumps(loaded)) == before
        assert pickle.loads(pickle.dumps(loaded))._observations is None

    def test_pickle_keeps_records_lazy(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        clone = pickle.loads(pickle.dumps(loaded))
        assert loaded._observations is None and clone._observations is None
        assert clone.sources.items == loaded.sources.items
        assert clone.objects.items == loaded.objects.items
        for column in ("obs_source_idx", "obs_object_idx", "obs_value_idx"):
            np.testing.assert_array_equal(getattr(clone, column), getattr(loaded, column))
        assert clone.observations == loaded.observations == small_dataset.observations

    def test_fuse_and_publish_build_no_records(self, tiny_dataset, tmp_path, monkeypatch):
        """CSV -> fit -> predict -> snapshot reads only code columns and id tables."""
        save_dataset(tiny_dataset, tmp_path)
        built = []
        original = Observation.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Observation, "__init__", counting_init)
        loaded = load_dataset(tmp_path)
        encode_dataset(loaded)
        model = SLiMFast(featurizer=FeaturizerPipeline()).fit(loaded, {"gigyf2": "false"})
        snapshot = Snapshot.from_result(model.predict())
        assert snapshot.value("gba") == "true"
        assert built == []
        assert loaded._observations is None
