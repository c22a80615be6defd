"""Featurizer wiring through learners, facade, sweeps, harness, streaming."""

import numpy as np
import pytest

from repro import EMConfig, EMLearner, ERMConfig, ERMLearner, SLiMFast
from repro.data import SyntheticConfig, generate
from repro.experiments.harness import sweep
from repro.experiments.methods import get_method
from repro.experiments.sweeps import FitSpec, SweepRunner
from repro.extensions.streaming import StreamingFuser
from repro.featurize import FeaturizerPipeline
from repro.fusion import NotFittedError


@pytest.fixture
def dataset():
    return generate(
        SyntheticConfig(
            n_sources=12,
            n_objects=50,
            density=0.3,
            avg_accuracy=0.72,
            n_features=4,
            n_informative=2,
            seed=3,
            name="wiring-synth",
        )
    ).dataset


class TestLearnerConfig:
    def test_em_requires_use_features(self):
        with pytest.raises(ValueError, match="use_features"):
            EMLearner(EMConfig(use_features=False, featurizer=FeaturizerPipeline()))

    def test_em_requires_design_for(self):
        with pytest.raises(ValueError, match="design_for"):
            EMLearner(EMConfig(featurizer=object()))

    def test_erm_requires_use_features(self):
        with pytest.raises(ValueError, match="use_features"):
            ERMLearner(ERMConfig(use_features=False, featurizer=FeaturizerPipeline()))

    def test_facade_requires_use_features(self):
        with pytest.raises(ValueError, match="use_features"):
            SLiMFast(use_features=False, featurizer=FeaturizerPipeline())


class TestFitIntegration:
    def test_em_fit_uses_reliability_columns(self, dataset):
        learner = EMLearner(EMConfig(featurizer=FeaturizerPipeline(), max_iterations=5))
        model = learner.fit(dataset)
        assert model.feature_space.columns_for("volume")
        assert len(model.w_features) == model.feature_space.n_columns
        assert model.design.shape == (dataset.n_sources, model.feature_space.n_columns)
        with pytest.raises(NotFittedError):
            model.predict_accuracy({"year": 2020})

    def test_erm_fit_featurized(self, dataset):
        truth = {obj: dataset.ground_truth[obj] for obj in list(dataset.objects.items)[:25]}
        model = ERMLearner(ERMConfig(featurizer=FeaturizerPipeline())).fit(dataset, truth)
        assert model.feature_space.columns_for("recency")

    def test_facade_featurized_predicts(self, dataset):
        result = SLiMFast(learner="em", featurizer=FeaturizerPipeline()).fit_predict(dataset)
        assert set(result.values) == set(dataset.objects.items)
        assert all(np.isfinite(list(result.source_accuracies.values())))

    def test_pipeline_cache_reused_across_learners(self, dataset):
        pipeline = FeaturizerPipeline()
        SLiMFast(learner="em", featurizer=pipeline).fit_predict(dataset)
        assert pipeline.featurize(dataset).from_cache

    def test_get_method_featurized(self, dataset):
        runner = get_method("slimfast-em", featurizer=FeaturizerPipeline())
        result = runner(dataset, None)
        assert set(result.values) == set(dataset.objects.items)

    def test_get_method_rejects_featureless_methods(self):
        with pytest.raises(ValueError, match="does not consume"):
            get_method("majority", featurizer=FeaturizerPipeline())


class TestSweepWiring:
    def test_mixed_specs_share_runner(self, dataset):
        pipeline = FeaturizerPipeline()
        runner = SweepRunner(dataset)
        outcomes = runner.run(
            [
                FitSpec(name="plain", learner="em", overrides={"max_iterations": 4}),
                FitSpec(
                    name="featurized",
                    learner="em",
                    overrides={"max_iterations": 4},
                    featurizer=pipeline,
                ),
                FitSpec(
                    name="featurized-2",
                    learner="em",
                    overrides={"max_iterations": 6},
                    featurizer=pipeline,
                ),
            ]
        )
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert set(outcome.result.values) == set(dataset.objects.items)

    def test_featurized_spec_rejects_use_features_false(self, dataset):
        runner = SweepRunner(dataset)
        with pytest.raises(ValueError, match="use_features"):
            runner.run(
                [
                    FitSpec(
                        name="bad",
                        learner="em",
                        use_features=False,
                        featurizer=FeaturizerPipeline(),
                    )
                ]
            )

    def test_harness_sweep_accepts_featurizer(self, dataset):
        results = sweep(
            dataset,
            methods=["slimfast-em", "majority"],
            train_fractions=[0.2],
            seeds=(0,),
            featurizer=FeaturizerPipeline(),
        )
        assert {r.method for r in results} == {"slimfast-em", "majority"}
        for r in results:
            assert 0.0 <= r.object_accuracy <= 1.0


class TestStreamingWiring:
    def test_rejects_featurizer_without_design_from_stats(self):
        with pytest.raises(ValueError, match="design_from_stats"):
            StreamingFuser(featurizer=object())

    def test_refit_with_featurizer_runs(self, dataset):
        pipeline = FeaturizerPipeline()
        fuser = StreamingFuser(
            refit_every=60,
            refit_overrides={"max_iterations": 4},
            featurizer=pipeline,
        )
        observations = [(o.source, o.obj, o.value) for o in dataset.observations]
        for i in range(0, len(observations), 25):
            fuser.observe_batch(observations[i : i + 25])
        assert fuser.n_refits >= 1
        result = fuser.to_result()
        assert set(result.values) <= set(dataset.objects.items)
        # The running accumulators must match a cold pass over the stream.
        from repro.featurize import compute_source_stats
        from repro.featurize.stats import STAT_ARRAYS

        cold = compute_source_stats(
            {name: getattr(fuser.encoding, name) for name in STAT_ARRAYS},
            fuser.encoding.n_sources,
            half_life=pipeline.half_life,
        )
        snap = fuser._running_stats.snapshot(fuser.encoding.n_objects)
        assert np.array_equal(cold.n_claims, snap.n_claims)
        np.testing.assert_allclose(snap.sum_entropy, cold.sum_entropy, atol=1e-9)
