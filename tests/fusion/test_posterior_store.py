"""Ragged posterior store: dense parity, memmap, lazy promotion.

The out-of-core contract under test:

* the ragged :class:`~repro.fusion.posterior_store.PosteriorStore` behind
  :class:`~repro.fusion.result.FusionResult` is an exact re-layout of the
  old dense matrix — every accessor (``posterior_matrix``, ``posteriors``,
  ``value_codes``, ``confidence_vector``) returns the same numbers;
* stores round-trip through ``.npy`` files and attach as ``numpy.memmap``
  views;
* dict-backed promotion (``attach_dataset``) is lazy — no posterior
  materialization until posteriors are actually read.
"""

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.slimfast import SLiMFast
from repro.fusion import FusionDataset, FusionResult
from repro.fusion.posterior_store import (
    DenseMaterializationWarning,
    PosteriorStore,
    segmented_argmax,
)


@pytest.fixture
def skewed_dataset():
    """Seeded dataset with ragged domains (one object much wider)."""
    rng = np.random.default_rng(7)
    observations = []
    truth = {}
    # A wide-domain hub object: many sources, mostly distinct values.
    truth["hub"] = "hub-v0"
    for s in range(12):
        value = "hub-v0" if rng.random() < 0.4 else f"hub-v{s}"
        observations.append((f"s{s}", "hub", value))
    # Narrow-domain tail objects.
    for o in range(40):
        true_value = f"v{rng.integers(0, 3)}"
        truth[f"o{o}"] = true_value
        for s in rng.choice(25, size=5, replace=False):
            value = true_value if rng.random() < 0.7 else f"v{rng.integers(0, 3)}"
            observations.append((f"s{s}", f"o{o}", value))
    return FusionDataset(observations, ground_truth=truth)


def _fit_predict(dataset, train):
    model = SLiMFast(em_config=EMConfig(solver="lbfgs-warm"))
    return model.fit(dataset, train).predict()


class TestStoreBasics:
    def test_layout_and_dense_round_trip(self, skewed_dataset):
        result = _fit_predict(skewed_dataset, {})
        store = result.posterior_store
        assert store.n_objects == skewed_dataset.n_objects
        assert store.n_rows == int(store.offsets[-1])
        dense = store.dense()
        assert dense.shape == (store.n_objects, store.max_domain)
        rebuilt = PosteriorStore.from_dense(dense, store.domain_sizes)
        np.testing.assert_array_equal(rebuilt.probs, store.probs)
        np.testing.assert_array_equal(rebuilt.value_codes, store.value_codes)

    def test_rows_are_distributions(self, skewed_dataset):
        store = _fit_predict(skewed_dataset, {}).posterior_store
        for position in range(store.n_objects):
            row = store.row(position)
            assert row.shape[0] == store.domain_sizes[position]
            assert row.sum() == pytest.approx(1.0)

    def test_value_codes_match_dense_argmax(self, skewed_dataset):
        store = _fit_predict(skewed_dataset, {}).posterior_store
        np.testing.assert_array_equal(
            store.value_codes, np.argmax(store.dense(), axis=1)
        )

    def test_segmented_argmax_first_row_ties(self):
        offsets = np.array([0, 3, 5])
        values = np.array([0.4, 0.4, 0.2, 0.5, 0.5])
        np.testing.assert_array_equal(segmented_argmax(values, offsets), [0, 0])

    def test_max_probs_matches_dense(self, skewed_dataset):
        store = _fit_predict(skewed_dataset, {}).posterior_store
        np.testing.assert_array_equal(store.max_probs(), store.dense().max(axis=1))

    def test_offsets_validation(self):
        with pytest.raises(ValueError, match="offsets cover"):
            PosteriorStore(np.array([0, 2]), np.array([1.0]))


class TestAccessorParity:
    """FusionResult accessors are unchanged by the ragged re-layout."""

    def test_posterior_matrix_matches_manual_scatter(self, skewed_dataset):
        train = dict(list(skewed_dataset.ground_truth.items())[:10])
        result = _fit_predict(skewed_dataset, train)
        store = result.posterior_store
        offsets = store.offsets
        segment_idx = np.repeat(np.arange(store.n_objects), store.domain_sizes)
        codes_within = np.arange(store.n_rows) - offsets[:-1][segment_idx]
        expected = np.zeros((store.n_objects, store.max_domain))
        expected[segment_idx, codes_within] = store.probs
        np.testing.assert_array_equal(result.posterior_matrix, expected)

    def test_posteriors_dict_view_matches_matrix(self, skewed_dataset):
        result = _fit_predict(skewed_dataset, {})
        matrix = result.posterior_matrix
        index = result.position_index()
        for obj, dist in result.posteriors.items():
            position = index[obj]
            np.testing.assert_allclose(
                list(dist.values()), matrix[position, : len(dist)], atol=0
            )

    def test_confidence_vector_is_map_mass(self, skewed_dataset):
        train = dict(list(skewed_dataset.ground_truth.items())[:5])
        result = _fit_predict(skewed_dataset, train)
        np.testing.assert_array_equal(
            result.confidence_vector(), result.posterior_matrix.max(axis=1)
        )

    def test_clamped_objects_are_point_masses(self, skewed_dataset):
        train = dict(list(skewed_dataset.ground_truth.items())[:10])
        result = _fit_predict(skewed_dataset, train)
        index = result.position_index()
        for obj, value in train.items():
            position = index[obj]
            row = result.posterior_store.row(position)
            code = int(result.value_codes[position])
            assert row[code] == 1.0
            assert row.sum() == 1.0
            assert result.values[obj] == value


class TestDenseGuard:
    def test_warns_past_warn_threshold(self):
        store = PosteriorStore(np.array([0, 2, 4]), np.array([0.5, 0.5, 0.25, 0.75]))
        with pytest.warns(DenseMaterializationWarning, match="dense"):
            store.dense(warn_cells=1)

    def test_raises_past_max_threshold(self):
        store = PosteriorStore(np.array([0, 2, 4]), np.array([0.5, 0.5, 0.25, 0.75]))
        with pytest.raises(MemoryError, match="ragged"):
            store.dense(max_cells=1)

    def test_posterior_matrix_property_is_guarded(self, skewed_dataset, monkeypatch):
        import repro.fusion.posterior_store as ps

        monkeypatch.setattr(ps, "DENSE_MAX_CELLS", 1)
        result = _fit_predict(skewed_dataset, {})
        with pytest.raises(MemoryError, match="refusing to materialize"):
            _ = result.posterior_matrix


class TestMemmapRoundTrip:
    def test_save_load_plain(self, skewed_dataset, tmp_path):
        store = _fit_predict(skewed_dataset, {}).posterior_store
        loaded = PosteriorStore.load(store.save(str(tmp_path / "store")))
        np.testing.assert_array_equal(loaded.offsets, store.offsets)
        np.testing.assert_array_equal(loaded.probs, store.probs)
        np.testing.assert_array_equal(loaded.value_codes, store.value_codes)

    def test_load_mmap_serves_views_from_disk(self, skewed_dataset, tmp_path):
        store = _fit_predict(skewed_dataset, {}).posterior_store
        loaded = PosteriorStore.load(store.save(str(tmp_path / "store")), mmap=True)
        assert isinstance(loaded.probs, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded.probs), store.probs)
        np.testing.assert_array_equal(loaded.max_probs(), store.max_probs())
        np.testing.assert_array_equal(loaded.value_codes, store.value_codes)


class TestEdgeDomains:
    def test_empty_store(self):
        store = PosteriorStore(np.zeros(1, dtype=np.int64), np.zeros(0))
        assert store.n_objects == 0
        assert store.max_domain == 0
        assert store.dense().shape == (0, 0)
        assert store.value_codes.shape == (0,)
        assert store.max_probs().shape == (0,)

    def test_unit_domain_objects(self):
        observations = [("s1", "a", "x"), ("s2", "a", "x"), ("s1", "b", "y")]
        result = SLiMFast().fit(FusionDataset(observations), {}).predict()
        store = result.posterior_store
        np.testing.assert_array_equal(store.domain_sizes, [1, 1])
        np.testing.assert_array_equal(store.probs, [1.0, 1.0])
        np.testing.assert_array_equal(store.value_codes, [0, 0])

    def test_empty_segment_gets_code_zero(self):
        store = PosteriorStore(np.array([0, 0, 2]), np.array([0.3, 0.7]))
        np.testing.assert_array_equal(store.value_codes, [0, 1])
        np.testing.assert_array_equal(store.max_probs(), [0.0, 0.7])


class TestLazyPromotion:
    """attach_dataset must not materialize posteriors (the PR 6 bugfix)."""

    def test_attach_dataset_does_not_materialize(self, skewed_dataset):
        reference = _fit_predict(skewed_dataset, {})
        result = FusionResult(
            values=dict(reference.values),
            posteriors={k: dict(v) for k, v in reference.posteriors.items()},
            source_accuracies=dict(reference.source_accuracies),
        )
        result.attach_dataset(skewed_dataset)
        assert result.has_arrays
        assert result._posterior_store is None
        assert result._posterior_matrix is None

    def test_metrics_after_attach_stay_lazy(self, skewed_dataset):
        reference = _fit_predict(skewed_dataset, {})
        result = FusionResult(
            values=dict(reference.values),
            posteriors={k: dict(v) for k, v in reference.posteriors.items()},
        )
        result.attach_dataset(skewed_dataset)
        assert result.accuracy(skewed_dataset) == reference.accuracy(skewed_dataset)
        assert result._posterior_store is None

    def test_lazy_store_builds_on_first_access(self, skewed_dataset):
        reference = _fit_predict(skewed_dataset, {})
        result = FusionResult(
            values=dict(reference.values),
            posteriors={k: dict(v) for k, v in reference.posteriors.items()},
        )
        result.attach_dataset(skewed_dataset)
        np.testing.assert_allclose(
            result.posterior_store.probs, reference.posterior_store.probs, atol=0
        )
        assert result._posterior_store is not None
        np.testing.assert_allclose(
            result.confidence_vector(), reference.confidence_vector(), atol=0
        )
