"""Unit tests for repro.fusion.metrics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fusion import (
    bernoulli_kl,
    binary_entropy,
    dataset_source_accuracy_error,
    log_loss,
    mean_accuracy_kl,
    object_value_accuracy,
    source_accuracy_error,
)


class TestObjectValueAccuracy:
    def test_perfect(self):
        truth = {"a": 1, "b": 2}
        assert object_value_accuracy(truth, truth) == 1.0

    def test_partial(self):
        predictions = {"a": 1, "b": 0}
        truth = {"a": 1, "b": 2}
        assert object_value_accuracy(predictions, truth) == 0.5

    def test_population_restriction(self):
        predictions = {"a": 1, "b": 0}
        truth = {"a": 1, "b": 2}
        assert object_value_accuracy(predictions, truth, ["a"]) == 1.0
        assert object_value_accuracy(predictions, truth, ["b"]) == 0.0

    def test_missing_prediction_counts_as_wrong(self):
        assert object_value_accuracy({}, {"a": 1}) == 0.0

    def test_empty_population_is_nan(self):
        assert math.isnan(object_value_accuracy({}, {}, []))


class TestSourceAccuracyError:
    def test_weighted_average(self):
        estimated = {"s1": 0.9, "s2": 0.5}
        true = {"s1": 1.0, "s2": 0.5}
        counts = {"s1": 3, "s2": 1}
        # (3*0.1 + 1*0.0) / 4
        assert source_accuracy_error(estimated, true, counts) == pytest.approx(0.075)

    def test_skips_missing_estimates(self):
        err = source_accuracy_error({"s1": 0.8}, {"s1": 1.0, "s2": 0.0}, {"s1": 1, "s2": 5})
        assert err == pytest.approx(0.2)

    def test_zero_weights_nan(self):
        assert math.isnan(source_accuracy_error({"s": 0.5}, {"s": 0.5}, {}))

    def test_dataset_variant(self, tiny_dataset):
        # perfect estimates give zero error
        perfect = tiny_dataset.empirical_accuracies()
        assert dataset_source_accuracy_error(tiny_dataset, perfect) == pytest.approx(0.0)

    def test_dataset_variant_weighting(self, tiny_dataset):
        estimated = tiny_dataset.empirical_accuracies()
        estimated["a1"] = estimated["a1"] - 0.5  # a1 has 2 observations of 5
        err = dataset_source_accuracy_error(tiny_dataset, estimated)
        assert err == pytest.approx(0.5 * 2 / 5)


class TestKL:
    def test_zero_when_equal(self):
        assert bernoulli_kl(0.3, 0.3) == pytest.approx(0.0, abs=1e-9)

    def test_positive_when_different(self):
        assert bernoulli_kl(0.9, 0.1) > 0.0

    def test_handles_extremes(self):
        assert np.isfinite(bernoulli_kl(0.0, 1.0))
        assert np.isfinite(bernoulli_kl(1.0, 0.0))

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_property_nonnegative(self, p, q):
        assert bernoulli_kl(p, q) >= -1e-12

    def test_mean_accuracy_kl(self):
        est = {"s1": 0.8, "s2": 0.6}
        true = {"s1": 0.8, "s2": 0.6}
        assert mean_accuracy_kl(est, true) == pytest.approx(0.0, abs=1e-9)

    def test_mean_accuracy_kl_empty_nan(self):
        assert math.isnan(mean_accuracy_kl({}, {"s": 0.5}))


class TestBinaryEntropy:
    def test_max_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_zero_at_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_property_bounds(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_property_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_elementwise_over_arrays(self):
        p = np.array([0.0, 0.1, 0.5, 0.97, 1.0])
        entropy = binary_entropy(p)
        assert isinstance(entropy, np.ndarray)
        assert entropy.tolist() == [binary_entropy(float(x)) for x in p]


class TestLogLoss:
    def test_confident_correct_is_small(self):
        posteriors = {"a": {"x": 0.99, "y": 0.01}}
        assert log_loss(posteriors, {"a": "x"}) < 0.02

    def test_confident_wrong_is_large(self):
        posteriors = {"a": {"x": 0.01, "y": 0.99}}
        assert log_loss(posteriors, {"a": "x"}) > 4.0

    def test_zero_mass_clamped(self):
        posteriors = {"a": {"y": 1.0}}
        assert np.isfinite(log_loss(posteriors, {"a": "x"}))

    def test_empty_nan(self):
        assert math.isnan(log_loss({}, {}))
