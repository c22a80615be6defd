"""Tests for the AccuracyModel."""

import numpy as np
import pytest

from repro.core import AccuracyModel, model_from_flat
from repro.fusion import NotFittedError
from repro.fusion.features import build_design_matrix
from repro.optim import logit, sigmoid


def simple_model(w_sources, w_features=None, design=None, **kwargs):
    w_features = np.zeros(0) if w_features is None else np.asarray(w_features)
    n = len(w_sources)
    design = np.zeros((n, w_features.shape[0])) if design is None else design
    return AccuracyModel(
        w_sources=np.asarray(w_sources, dtype=float),
        w_features=w_features,
        design=design,
        source_ids=[f"s{i}" for i in range(n)],
        **kwargs,
    )


class TestAccuracyModel:
    def test_trust_is_logit_of_accuracy(self):
        model = simple_model([0.0, 1.0, -1.0])
        assert np.allclose(logit(model.accuracies()), model.trust_scores())

    def test_accuracy_map_keys(self):
        model = simple_model([0.5, -0.5])
        accs = model.accuracy_map()
        assert set(accs) == {"s0", "s1"}
        assert accs["s0"] == pytest.approx(float(sigmoid(0.5)))

    def test_features_contribute(self):
        design = np.array([[1.0], [0.0]])
        model = simple_model([0.0, 0.0], w_features=[2.0], design=design)
        accs = model.accuracies()
        assert accs[0] > accs[1]

    def test_intercept_shifts_all(self):
        base = simple_model([0.0, 0.0])
        shifted = simple_model([0.0, 0.0], intercept=1.0)
        assert np.all(shifted.accuracies() > base.accuracies())

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="design must be"):
            AccuracyModel(
                w_sources=np.zeros(2),
                w_features=np.zeros(3),
                design=np.zeros((2, 2)),
                source_ids=["a", "b"],
            )

    def test_source_alignment_validation(self):
        with pytest.raises(ValueError, match="align"):
            AccuracyModel(
                w_sources=np.zeros(3),
                w_features=np.zeros(0),
                design=np.zeros((2, 0)),
                source_ids=["a", "b"],
            )


class TestPredictAccuracy:
    def test_requires_features(self):
        model = simple_model([0.0])
        with pytest.raises(NotFittedError):
            model.predict_accuracy({"x": 1.0})

    def test_uses_features_and_intercept(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        model = AccuracyModel(
            w_sources=np.zeros(3),
            w_features=np.ones(space.n_columns),
            design=design,
            source_ids=tiny_dataset.sources.items,
            feature_space=space,
            intercept=0.5,
        )
        predicted = model.predict_accuracy({"citations": 34, "year": 2009})
        row = space.transform_one({"citations": 34, "year": 2009})
        assert predicted == pytest.approx(float(sigmoid(0.5 + row.sum())))


class TestModelFromFlat:
    def test_round_trip(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        n_params = tiny_dataset.n_sources + design.shape[1]
        w = np.arange(n_params, dtype=float)
        model = model_from_flat(w, tiny_dataset, design, space)
        assert np.allclose(model.w_sources, w[: tiny_dataset.n_sources])
        assert np.allclose(model.w_features, w[tiny_dataset.n_sources :])
        assert model.intercept == 0.0

    def test_with_intercept_and_extra(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        n_base = tiny_dataset.n_sources + design.shape[1]
        w = np.concatenate([np.zeros(n_base), [7.0, 8.0], [0.25]])
        model = model_from_flat(w, tiny_dataset, design, space, intercept=True, n_extra=2)
        assert list(model.w_extra) == [7.0, 8.0]
        assert model.intercept == 0.25

    def test_feature_weight_map(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        w = np.zeros(tiny_dataset.n_sources + design.shape[1])
        w[tiny_dataset.n_sources] = 3.0
        model = model_from_flat(w, tiny_dataset, design, space)
        weight_map = model.feature_weight_map()
        assert weight_map[space.column_labels[0]] == 3.0

    def test_feature_weight_map_empty_without_space(self):
        model = simple_model([0.0])
        assert model.feature_weight_map() == {}
