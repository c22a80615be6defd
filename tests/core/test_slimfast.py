"""Tests for the SLiMFast facade."""

import numpy as np
import pytest

from repro.core import SLiMFast
from repro.core.em import EMConfig
from repro.core.erm import ERMConfig
from repro.core.optimizer import decide
from repro.data import generate
from repro.featurize import FeaturizerPipeline
from repro.fusion import DatasetError, NotFittedError, encode_dataset


class TestFacadeBasics:
    def test_fit_predict_full_pipeline(self, small_dataset):
        split = small_dataset.split(0.2, seed=0)
        result = SLiMFast().fit_predict(small_dataset, split.train_truth)
        assert set(result.values) == set(small_dataset.objects.items)
        assert result.source_accuracies is not None
        assert set(result.source_accuracies) == set(small_dataset.sources.items)

    def test_invalid_learner_rejected(self):
        with pytest.raises(ValueError):
            SLiMFast(learner="vi")

    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            SLiMFast().predict()

    def test_erm_without_truth_rejected(self, small_dataset):
        with pytest.raises(DatasetError):
            SLiMFast(learner="erm").fit(small_dataset, {})

    def test_auto_without_truth_falls_back_to_em(self, small_dataset):
        fuser = SLiMFast(learner="auto")
        fuser.fit(small_dataset, {})
        assert fuser.chosen_learner_ == "em"

    def test_auto_with_only_unobserved_labels_fits_em(self):
        # Labels on objects the dataset never observed give ERM nothing to
        # fit; the optimizer must not count them and pick it.
        dataset = generate(n_sources=6, n_objects=30, density=0.6, seed=3).dataset
        fuser = SLiMFast().fit(dataset, {f"ghost{i}": "v0" for i in range(500)})
        assert fuser.chosen_learner_ == "em"
        assert fuser.decision_.erm_units == 0.0
        assert fuser.predict().accuracy(dataset) > 0.5

    def test_training_objects_clamped(self, small_dataset):
        split = small_dataset.split(0.3, seed=1)
        result = SLiMFast(learner="erm").fit_predict(small_dataset, split.train_truth)
        for obj, value in split.train_truth.items():
            assert result.values[obj] == value

    def test_posteriors_normalized(self, small_dataset):
        split = small_dataset.split(0.2, seed=0)
        result = SLiMFast(learner="erm").fit_predict(small_dataset, split.train_truth)
        for dist in result.posteriors.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)


class TestAutoDecision:
    def test_decision_recorded(self, small_dataset):
        split = small_dataset.split(0.1, seed=0)
        fuser = SLiMFast(learner="auto")
        fuser.fit(small_dataset, split.train_truth)
        assert fuser.decision_ is not None
        assert fuser.chosen_learner_ in ("em", "erm")
        assert fuser.decision_.algorithm == fuser.chosen_learner_
        # The facade runs Algorithm 2 at the optimizer's own defaults.
        design, _ = encode_dataset(small_dataset).design(True)
        assert fuser.decision_ == decide(small_dataset, split.train_truth, design.shape[1])

    def test_fixed_learner_skips_optimizer(self, small_dataset):
        split = small_dataset.split(0.1, seed=0)
        fuser = SLiMFast(learner="em")
        fuser.fit(small_dataset, split.train_truth)
        assert fuser.decision_ is None

    def test_diagnostics_contain_optimizer(self, small_dataset):
        split = small_dataset.split(0.1, seed=0)
        result = SLiMFast(learner="auto").fit_predict(small_dataset, split.train_truth)
        assert "optimizer" in result.diagnostics
        assert result.diagnostics["learner"] in ("em", "erm")


class TestVariantNaming:
    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (dict(learner="auto"), "slimfast"),
            (dict(learner="erm"), "slimfast-erm"),
            (dict(learner="em"), "slimfast-em"),
            (dict(learner="erm", use_features=False), "sources-erm"),
            (dict(learner="em", use_features=False), "sources-em"),
        ],
    )
    def test_method_names(self, small_dataset, kwargs, expected):
        split = small_dataset.split(0.2, seed=0)
        result = SLiMFast(**kwargs).fit_predict(small_dataset, split.train_truth)
        assert result.method == expected


#: The rows of the facade's variants table (``repro.core.slimfast``).
VARIANTS = {
    "SLiMFast": dict(),
    "SLiMFast-ERM": dict(learner="erm"),
    "SLiMFast-EM": dict(learner="em"),
    "Sources-ERM": dict(learner="erm", use_features=False),
    "Sources-EM": dict(learner="em", use_features=False),
}
# A featurizer requires use_features=True.
CONFIG_CASES = {
    f"{name}{'-featurizer' if with_featurizer else ''}": (kwargs, with_featurizer)
    for name, kwargs in VARIANTS.items()
    for with_featurizer in (False, True)
    if kwargs.get("use_features", True) or not with_featurizer
}


class TestLearnerConfigs:
    """Every variant's learner configs are the config classes' defaults."""

    @pytest.mark.parametrize(
        "kwargs, with_featurizer", list(CONFIG_CASES.values()), ids=list(CONFIG_CASES)
    )
    def test_configs_equal_direct_builds(self, kwargs, with_featurizer):
        featurizer = FeaturizerPipeline() if with_featurizer else None
        use_features = kwargs.get("use_features", True)
        fuser = SLiMFast(**kwargs, featurizer=featurizer)
        assert fuser.erm_config == ERMConfig(use_features=use_features, featurizer=featurizer)
        assert fuser.em_config == EMConfig(use_features=use_features, featurizer=featurizer)


class TestTimings:
    def test_phases_recorded(self, small_dataset):
        split = small_dataset.split(0.2, seed=0)
        fuser = SLiMFast(learner="erm")
        fuser.fit_predict(small_dataset, split.train_truth)
        assert {"compile", "optimizer", "learning", "inference"} <= set(fuser.timings_)
        assert all(t >= 0.0 for t in fuser.timings_.values())


class TestQuality:
    def test_em_beats_majority_on_dense_accurate_data(self, small_synthetic):
        from repro.baselines import MajorityVote

        ds = small_synthetic.dataset
        split = ds.split(0.1, seed=0)
        slimfast_acc = (
            SLiMFast(learner="em")
            .fit_predict(ds, split.train_truth)
            .accuracy(ds, list(split.test_objects))
        )
        majority_acc = (
            MajorityVote()
            .fit_predict(ds, split.train_truth)
            .accuracy(ds, list(split.test_objects))
        )
        assert slimfast_acc >= majority_acc - 0.01

    def test_source_accuracy_estimates_reasonable(self, small_synthetic):
        ds = small_synthetic.dataset
        split = ds.split(0.5, seed=0)
        result = SLiMFast(learner="erm").fit_predict(ds, split.train_truth)
        errors = [abs(result.source_accuracies[s] - ds.true_accuracies[s]) for s in ds.sources]
        assert np.mean(errors) < 0.15
