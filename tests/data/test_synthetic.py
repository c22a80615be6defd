"""Tests for the synthetic instance generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticConfig, generate
from repro.fusion import DatasetError


class TestConfigValidation:
    def test_bad_density(self):
        with pytest.raises(DatasetError):
            generate(SyntheticConfig(density=0.0))

    def test_bad_accuracy(self):
        with pytest.raises(DatasetError):
            generate(SyntheticConfig(avg_accuracy=1.0))

    def test_bad_domain_range(self):
        with pytest.raises(DatasetError):
            generate(SyntheticConfig(domain_size_range=(1, 2)))
        with pytest.raises(DatasetError):
            generate(SyntheticConfig(domain_size_range=(3, 2)))

    def test_informative_exceeds_features(self):
        with pytest.raises(DatasetError):
            generate(SyntheticConfig(n_features=2, n_informative=3))

    @pytest.mark.parametrize("min_observations", [0, -1])
    def test_min_observations_below_one_is_rejected_before_any_draw(self, min_observations):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        config = SyntheticConfig(
            n_sources=10, n_objects=50, density=0.05, min_observations=min_observations, seed=rng
        )
        with pytest.raises(DatasetError, match="min_observations must be at least 1"):
            generate(config)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("fidelity", [1.5, -0.1])
    def test_copy_fidelity_outside_unit_interval(self, fidelity):
        with pytest.raises(DatasetError, match=r"copy_fidelity must be in \[0, 1\]"):
            generate(n_sources=10, n_objects=20, copy_groups=1, copy_fidelity=fidelity)

    def test_overrides_kwargs(self):
        instance = generate(n_sources=10, n_objects=20, density=0.3, seed=1)
        assert instance.dataset.n_objects == 20


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = generate(n_sources=30, n_objects=40, density=0.2, seed=5)
        b = generate(n_sources=30, n_objects=40, density=0.2, seed=5)
        assert a.dataset.observations == b.dataset.observations
        assert np.allclose(a.true_accuracies, b.true_accuracies)

    def test_different_seed_differs(self):
        a = generate(n_sources=30, n_objects=40, density=0.2, seed=5)
        b = generate(n_sources=30, n_objects=40, density=0.2, seed=6)
        assert a.dataset.observations != b.dataset.observations


class TestInstanceProperties:
    def test_every_object_observed(self):
        instance = generate(n_sources=20, n_objects=50, density=0.02, seed=2)
        ds = instance.dataset
        assert ds.n_objects == 50
        for o_idx in range(ds.n_objects):
            assert ds.object_observation_rows(o_idx).shape[0] >= 1

    def test_truth_always_claimed(self):
        instance = generate(n_sources=20, n_objects=60, density=0.08, avg_accuracy=0.55, seed=3)
        ds = instance.dataset
        for obj, truth in ds.ground_truth.items():
            assert truth in ds.domain(obj)

    def test_mean_accuracy_near_target(self):
        instance = generate(n_sources=200, n_objects=50, density=0.1, avg_accuracy=0.65, seed=4)
        assert float(np.mean(instance.true_accuracies)) == pytest.approx(0.65, abs=0.02)

    def test_empirical_accuracy_tracks_configured(self):
        instance = generate(
            n_sources=40,
            n_objects=400,
            density=0.2,
            avg_accuracy=0.7,
            accuracy_spread=0.05,
            seed=5,
        )
        ds = instance.dataset
        empirical = ds.empirical_accuracies()
        for i, source in enumerate(ds.sources):
            assert empirical[source] == pytest.approx(instance.true_accuracies[i], abs=0.15)

    def test_features_predict_accuracy(self):
        instance = generate(
            n_sources=300,
            n_objects=30,
            density=0.1,
            n_features=6,
            n_informative=4,
            feature_strength=2.0,
            accuracy_spread=0.2,
            seed=6,
        )
        score = instance.feature_matrix @ instance.feature_weights
        corr = np.corrcoef(score, instance.true_accuracies)[0, 1]
        assert corr > 0.6

    def test_domain_sizes_respected(self):
        instance = generate(
            n_sources=30,
            n_objects=60,
            density=0.3,
            domain_size_range=(3, 5),
            avg_accuracy=0.55,
            seed=7,
        )
        ds = instance.dataset
        for o_idx in range(ds.n_objects):
            # claimed domain cannot exceed the candidate pool (truth + wrongs)
            assert len(ds.domain_by_index(o_idx)) <= 5

    def test_copy_groups_recorded(self):
        instance = generate(
            n_sources=40,
            n_objects=60,
            density=0.2,
            copy_groups=3,
            copy_group_size=4,
            seed=8,
        )
        assert len(instance.copy_groups) == 3
        for group in instance.copy_groups:
            assert len(group) == 4

    def test_copiers_agree_more_than_strangers(self):
        instance = generate(
            n_sources=40,
            n_objects=200,
            density=0.25,
            copy_groups=3,
            copy_group_size=4,
            copy_fidelity=0.95,
            avg_accuracy=0.6,
            seed=9,
        )
        ds = instance.dataset
        from repro.core import agreement_matrix

        matrix = agreement_matrix(ds)
        copier_scores = []
        for group in instance.copy_groups:
            leader = ds.sources.index(group[0])
            for member in group[1:]:
                score = matrix.scores[leader, ds.sources.index(member)]
                if not np.isnan(score):
                    copier_scores.append(score)
        mask = matrix.observed_pairs()
        overall = float(np.nanmean(matrix.scores[mask]))
        assert float(np.mean(copier_scores)) > overall + 0.2

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=0.55, max_value=0.9),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_valid_dataset_for_any_accuracy_seed(self, accuracy, seed):
        instance = generate(
            n_sources=15, n_objects=25, density=0.2, avg_accuracy=accuracy, seed=seed
        )
        ds = instance.dataset
        assert ds.n_observations >= 25  # every object covered
        assert set(ds.ground_truth) == set(ds.objects.items)
