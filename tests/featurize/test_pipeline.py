"""FeaturizerPipeline: determinism, caching, versioning, FeaturizedSpace."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurize import (
    FeatureCache,
    FeaturizerPipeline,
    VolumeGroup,
    cache_key,
    dataset_digest,
    default_groups,
)
from repro.featurize.pipeline import FeaturizedSpace
from repro.fusion import FusionDataset, NotFittedError
from repro.fusion.encoding import encode_dataset
from repro.fusion.types import DatasetError

OBSERVATIONS = [
    ("s0", "o0", "a"),
    ("s1", "o0", "a"),
    ("s2", "o0", "b"),
    ("s0", "o1", "x"),
    ("s2", "o1", "x"),
    ("s1", "o2", "p"),
]


def _dataset(observations=None, **kwargs):
    return FusionDataset(observations or OBSERVATIONS, **kwargs)


class VolumeGroupV2(VolumeGroup):
    version = 2


class TestFeaturize:
    def test_matrix_shape_and_columns(self):
        ds = _dataset()
        result = FeaturizerPipeline().featurize(ds)
        assert result.matrix.shape == (ds.n_sources, result.n_columns)
        assert result.column_names == [
            name for group in default_groups() for name in group.column_names()
        ]
        assert not result.from_cache
        assert result.stats is not None

    def test_deterministic(self):
        ds = _dataset()
        a = FeaturizerPipeline().featurize(ds)
        b = FeaturizerPipeline().featurize(ds)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.version_key == b.version_key
        assert a.digest == b.digest

    def test_dataset_and_encoding_agree(self):
        ds = _dataset()
        from_dataset = FeaturizerPipeline().featurize(ds)
        from_encoding = FeaturizerPipeline().featurize(encode_dataset(ds))
        assert from_dataset.digest == from_encoding.digest
        assert np.array_equal(from_dataset.matrix, from_encoding.matrix)

    def test_metadata_block_appended(self):
        ds = _dataset(source_features={"s0": {"year": 2001}, "s1": {"year": 2010}})
        with_meta = FeaturizerPipeline().featurize(ds)
        without = FeaturizerPipeline(include_metadata=False).featurize(ds)
        assert with_meta.n_columns > without.n_columns
        space = with_meta.space()
        assert space.columns_for("year")

    def test_standardize_zero_mean(self):
        result = FeaturizerPipeline(include_metadata=False).featurize(_dataset())
        np.testing.assert_allclose(result.matrix.mean(axis=0), 0.0, atol=1e-12)

    def test_rejects_duplicate_groups(self):
        with pytest.raises(DatasetError, match="duplicate"):
            FeaturizerPipeline([VolumeGroup(), VolumeGroup()])

    def test_rejects_bad_half_life(self):
        with pytest.raises(DatasetError, match="half_life"):
            FeaturizerPipeline(half_life=0.0)

    def test_rejects_unfeaturizable_source(self):
        with pytest.raises(DatasetError, match="featurizer input"):
            FeaturizerPipeline().featurize(object())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_finite_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        observations = [
            (f"s{rng.integers(0, 6)}", f"o{i}", f"v{rng.integers(0, 3)}")
            for i in range(rng.integers(1, 40))
        ]
        deduped = {(s, o): v for s, o, v in observations}
        ds = _dataset([(s, o, v) for (s, o), v in deduped.items()])
        result = FeaturizerPipeline().featurize(ds)
        assert np.isfinite(result.matrix).all()


class TestCache:
    def test_memory_hit(self):
        pipeline = FeaturizerPipeline()
        ds = _dataset()
        cold = pipeline.featurize(ds)
        warm = pipeline.featurize(ds)
        assert not cold.from_cache
        assert warm.from_cache
        assert np.array_equal(cold.matrix, warm.matrix)
        assert warm.column_names == cold.column_names

    def test_disk_round_trip(self, tmp_path):
        ds = _dataset(source_features={"s0": {"year": 1999}})
        writer = FeaturizerPipeline(cache=str(tmp_path))
        cold = writer.featurize(ds)
        # A fresh pipeline (fresh memo) must hit the on-disk entry.
        reader = FeaturizerPipeline(cache=str(tmp_path))
        warm = reader.featurize(ds)
        assert warm.from_cache
        assert np.array_equal(cold.matrix, warm.matrix)
        assert warm.column_names == cold.column_names
        assert warm.meta["version_key"] == writer.version_key

    def test_data_change_invalidates(self, tmp_path):
        pipeline = FeaturizerPipeline(cache=str(tmp_path))
        pipeline.featurize(_dataset())
        changed = pipeline.featurize(_dataset(OBSERVATIONS + [("s3", "o2", "q")]))
        assert not changed.from_cache

    def test_group_version_bump_invalidates(self, tmp_path):
        ds = _dataset()
        v1 = FeaturizerPipeline([VolumeGroup()], cache=str(tmp_path))
        v2 = FeaturizerPipeline([VolumeGroupV2()], cache=str(tmp_path))
        assert v1.version_key != v2.version_key
        v1.featurize(ds)
        assert not v2.featurize(ds).from_cache

    def test_featurizer_version_bump_invalidates(self, tmp_path, monkeypatch):
        ds = _dataset()
        FeaturizerPipeline(cache=str(tmp_path)).featurize(ds)
        monkeypatch.setattr("repro.featurize.pipeline.FEATURIZER_VERSION", 99)
        bumped = FeaturizerPipeline(cache=str(tmp_path))
        assert "fz99" in bumped.version_key
        assert not bumped.featurize(ds).from_cache

    def test_config_changes_change_version_key(self):
        base = FeaturizerPipeline()
        assert FeaturizerPipeline(half_life=8.0).version_key != base.version_key
        assert FeaturizerPipeline(standardize=False).version_key != base.version_key
        assert FeaturizerPipeline(include_metadata=False).version_key != base.version_key
        assert FeaturizerPipeline([VolumeGroup()]).version_key != base.version_key

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        ds = _dataset()
        pipeline = FeaturizerPipeline(cache=str(tmp_path))
        cold = pipeline.featurize(ds)
        key = cache_key(cold.digest, pipeline.version_key)
        pipeline.cache.path_for(key).write_bytes(b"not an npz")
        pipeline.cache.clear_memory()
        again = pipeline.featurize(ds)
        assert not again.from_cache
        assert np.array_equal(again.matrix, cold.matrix)

    def test_cache_pickles_without_memo(self, tmp_path):
        cache = FeatureCache(str(tmp_path))
        pipeline = FeaturizerPipeline(cache=cache)
        pipeline.featurize(_dataset())
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.path_for("00" * 16).parent == cache.path_for("00" * 16).parent

    def test_digest_tracks_source_features(self):
        plain = _dataset()
        tagged = _dataset(source_features={"s0": {"year": 2000}})
        view = {"plain": plain, "tagged": tagged}
        from repro.featurize.stats import STAT_ARRAYS

        digests = {}
        for name, ds in view.items():
            encoding = encode_dataset(ds)
            arrays = {array: getattr(encoding, array) for array in STAT_ARRAYS}
            digests[name] = dataset_digest(arrays, encoding.source_features)
        assert digests["plain"] != digests["tagged"]


class TestFeaturizedSpace:
    def test_transform_one_raises(self):
        space = FeaturizedSpace(["volume:claim_share"])
        with pytest.raises(NotFittedError, match="claim history"):
            space.transform_one({"year": 2000})

    def test_columns_for_matches_group_prefix(self):
        space = FeaturizedSpace(
            ["volume:claim_share", "volume:log_claims", "recency:staleness", "year=hi"]
        )
        assert [i for i, _ in space.columns_for("volume")] == [0, 1]
        assert [i for i, _ in space.columns_for("year")] == [3]
        assert space.columns_for("nope") == []

    def test_state_round_trip(self):
        space = FeaturizedSpace(["a:b", "c:d"], version_key="vk")
        clone = FeaturizedSpace.from_state(space.to_state())
        assert clone.column_labels == space.column_labels
        assert clone.version_key == "vk"
        assert clone.n_columns == 2
