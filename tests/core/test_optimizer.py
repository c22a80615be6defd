"""Tests for the EM/ERM optimizer (paper Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.core import decide, em_information_units, erm_information_units
from repro.core.guarantees import erm_generalization_bound
from repro.data import SyntheticConfig, generate
from repro.fusion import FusionDataset, binary_entropy


def uniform_panel_dataset(n_sources, n_objects, panel, n_values=2):
    """Every object observed by exactly ``panel`` sources with ``n_values``
    distinct claimed values (constructed deterministically)."""
    observations = []
    for obj in range(n_objects):
        for k in range(panel):
            source = (obj + k) % n_sources
            value = f"v{k % n_values}"
            observations.append((f"s{source}", f"o{obj}", value))
    return FusionDataset(observations, ground_truth={f"o{obj}": "v0" for obj in range(n_objects)})


class TestEMUnits:
    def test_example8_hand_computed(self):
        """Paper Example 8: m=10 sources, accuracy 0.7, binary domain."""
        ds = uniform_panel_dataset(n_sources=10, n_objects=1, panel=10, n_values=2)
        units = em_information_units(ds, avg_accuracy=0.7)
        from scipy import stats

        p_e = 1.0 - stats.binom.cdf(5, 10, 0.7)
        expected = 1.0 - binary_entropy(p_e)
        assert p_e == pytest.approx(0.8497, abs=1e-3)
        assert units == pytest.approx(expected, abs=1e-9)

    def test_example8_per_observation(self):
        ds = uniform_panel_dataset(n_sources=10, n_objects=1, panel=10, n_values=2)
        per_object = em_information_units(ds, 0.7, per_observation=False)
        per_obs = em_information_units(ds, 0.7, per_observation=True)
        assert per_obs == pytest.approx(10 * per_object)
        assert per_obs == pytest.approx(3.89, abs=0.01)

    def test_low_accuracy_contributes_nothing(self):
        ds = uniform_panel_dataset(n_sources=20, n_objects=5, panel=10, n_values=2)
        assert em_information_units(ds, avg_accuracy=0.5) == 0.0

    def test_units_increase_with_accuracy(self):
        ds = uniform_panel_dataset(n_sources=30, n_objects=10, panel=12, n_values=2)
        low = em_information_units(ds, 0.6)
        high = em_information_units(ds, 0.8)
        assert high > low

    def test_units_increase_with_panel_size(self):
        small = uniform_panel_dataset(n_sources=40, n_objects=10, panel=6)
        large = uniform_panel_dataset(n_sources=40, n_objects=10, panel=20)
        assert em_information_units(large, 0.65) > em_information_units(small, 0.65)

    def test_unanimous_objects_full_unit(self):
        ds = uniform_panel_dataset(n_sources=10, n_objects=4, panel=5, n_values=1)
        assert em_information_units(ds, 0.7) == pytest.approx(4.0)


class TestERMUnits:
    def test_per_object_is_label_count(self, small_dataset):
        truth = dict(list(small_dataset.ground_truth.items())[:13])
        assert erm_information_units(small_dataset, truth) == 13.0

    def test_per_observation_counts_observations(self, tiny_dataset):
        units = erm_information_units(tiny_dataset, {"gigyf2": "false"}, per_observation=True)
        assert units == 3.0  # three articles observe gigyf2


class TestDecide:
    def test_no_labels_picks_em(self, small_dataset):
        decision = decide(small_dataset, {}, n_features=4)
        assert decision.algorithm == "em"
        assert decision.erm_units == 0.0

    def test_abundant_labels_pick_erm(self, small_dataset):
        decision = decide(small_dataset, small_dataset.ground_truth, n_features=4)
        assert decision.algorithm == "erm"

    def test_bound_fast_path(self, small_dataset):
        # huge tau forces the bound check to fire with any labels
        decision = decide(small_dataset, small_dataset.ground_truth, n_features=1, tau=1e9)
        assert decision.reason == "bound"
        assert decision.algorithm == "erm"

    def test_monotone_in_labels(self, small_dataset):
        """More ground truth can only move the decision toward ERM."""
        seen_erm = False
        for fraction in (0.02, 0.2, 0.6, 1.0):
            if fraction < 1.0:
                truth = small_dataset.split(fraction, seed=0).train_truth
            else:
                truth = small_dataset.ground_truth
            decision = decide(small_dataset, truth, n_features=4, tau=0.0)
            if decision.algorithm == "erm":
                seen_erm = True
            else:
                assert not seen_erm, "decision flipped back from ERM to EM"

    def test_oracle_accuracy_override(self, small_dataset):
        truth = dict(list(small_dataset.ground_truth.items())[:5])
        low = decide(small_dataset, truth, n_features=4, tau=0.0, avg_accuracy=0.50)
        high = decide(small_dataset, truth, n_features=4, tau=0.0, avg_accuracy=0.95)
        assert low.em_units <= high.em_units

    def test_diagnostics_populated(self, small_dataset):
        split = small_dataset.split(0.1, seed=0)
        decision = decide(small_dataset, split.train_truth, n_features=4, tau=0.0)
        assert decision.reason == "units"
        assert 0.0 <= decision.estimated_accuracy <= 1.0
        assert np.isfinite(decision.bound)

    def test_accuracy_method_forwarded(self, multi_valued_dataset):
        split = multi_valued_dataset.split(0.1, seed=0)
        paper = decide(multi_valued_dataset, split.train_truth, 4, tau=0.0)
        corrected = decide(
            multi_valued_dataset,
            split.train_truth,
            4,
            tau=0.0,
            accuracy_method="domain-corrected",
        )
        assert corrected.estimated_accuracy >= paper.estimated_accuracy - 1e-9


class TestUnobservedLabels:
    """Only labels on observed objects (``G ∩ O``) count, in the bound and
    in the units."""

    @pytest.fixture
    def dataset(self):
        return generate(n_sources=6, n_objects=30, density=0.6, seed=3).dataset

    def test_unobserved_labels_carry_no_units(self, dataset):
        obj, value = next(iter(dataset.ground_truth.items()))
        truth = {**{f"ghost{i}": "v0" for i in range(500)}, obj: value}
        decision = decide(dataset, truth, n_features=4)
        assert decision.erm_units == 1.0
        assert decision.bound == erm_generalization_bound(4, 1)
        assert decision.algorithm == "em"
        per_obs = erm_information_units(dataset, truth, per_observation=True)
        assert per_obs == len(dataset.observations_of_object(obj))

    def test_only_unobserved_labels_skip_the_bound(self, dataset):
        ghost = {f"ghost{i}": "v0" for i in range(500)}
        decision = decide(dataset, ghost, n_features=1, tau=1e9)
        assert decision.reason == "units"
        assert decision.algorithm == "em"
        assert decision.erm_units == 0.0
        assert decision.bound == float("inf")

    def test_no_observed_label_picks_em_at_zero_em_units(self):
        ds = uniform_panel_dataset(n_sources=20, n_objects=5, panel=10, n_values=2)
        decision = decide(ds, {}, n_features=4, avg_accuracy=0.5)
        assert decision.em_units == 0.0
        assert decision.algorithm == "em"


class TestVoteThreshold:
    def test_binary_domains_identical(self):
        ds = uniform_panel_dataset(n_sources=20, n_objects=10, panel=8, n_values=2)
        majority = em_information_units(ds, 0.7, vote_threshold="majority")
        paper = em_information_units(ds, 0.7, vote_threshold="paper")
        assert majority == pytest.approx(paper)

    def test_multivalued_paper_threshold_is_looser(self):
        ds = uniform_panel_dataset(n_sources=30, n_objects=10, panel=12, n_values=4)
        majority = em_information_units(ds, 0.55, vote_threshold="majority")
        paper = em_information_units(ds, 0.55, vote_threshold="paper")
        assert paper >= majority

    def test_invalid_threshold_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="vote_threshold"):
            em_information_units(small_dataset, 0.7, vote_threshold="plurality")

    def test_decide_forwards_threshold(self, multi_valued_dataset):
        split = multi_valued_dataset.split(0.1, seed=0)
        loose = decide(
            multi_valued_dataset,
            split.train_truth,
            4,
            tau=0.0,
            vote_threshold="paper",
        )
        strict = decide(
            multi_valued_dataset,
            split.train_truth,
            4,
            tau=0.0,
            vote_threshold="majority",
        )
        assert loose.em_units >= strict.em_units


class TestDecideOnRealisticShapes:
    def test_dense_accurate_instance_prefers_em_at_tiny_labels(self):
        instance = generate(
            SyntheticConfig(
                n_sources=100,
                n_objects=200,
                density=0.15,
                avg_accuracy=0.8,
                accuracy_spread=0.05,
                seed=9,
            )
        )
        ds = instance.dataset
        split = ds.split(0.01, seed=0)
        decision = decide(ds, split.train_truth, n_features=8, tau=0.0)
        assert decision.algorithm == "em"
