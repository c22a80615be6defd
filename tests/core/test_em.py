"""Tests for the EM learner."""

import numpy as np
import pytest

from repro.core import EMConfig, EMLearner, ERMLearner
from repro.core.inference import map_assignment, posteriors
from repro.data import SyntheticConfig, generate
from repro.fusion import object_value_accuracy


@pytest.fixture(scope="module")
def dense_instance():
    """Dense, accurate instance where unsupervised EM must do well."""
    return generate(
        SyntheticConfig(
            n_sources=50,
            n_objects=150,
            density=0.25,
            avg_accuracy=0.75,
            accuracy_spread=0.12,
            seed=3,
            name="dense",
        )
    )


class TestUnsupervisedEM:
    def test_recovers_object_values(self, dense_instance):
        ds = dense_instance.dataset
        learner = EMLearner(EMConfig(use_features=False))
        model = learner.fit(ds, {})
        values = map_assignment(posteriors(ds, model))
        accuracy = object_value_accuracy(values, ds.ground_truth)
        assert accuracy > 0.9

    def test_recovers_source_accuracies(self, dense_instance):
        ds = dense_instance.dataset
        model = EMLearner(EMConfig(use_features=False)).fit(ds, {})
        estimated = model.accuracies()
        true = dense_instance.true_accuracies
        assert np.corrcoef(estimated, true)[0, 1] > 0.8
        assert np.mean(np.abs(estimated - true)) < 0.1

    def test_trace_populated(self, dense_instance):
        learner = EMLearner(EMConfig(use_features=False))
        learner.fit(dense_instance.dataset, {})
        trace = learner.trace_
        assert trace is not None
        assert trace.n_iterations >= 1
        assert len(trace.accuracy_deltas) == trace.n_iterations

    def test_converges_within_budget(self, dense_instance):
        learner = EMLearner(EMConfig(use_features=False, max_iterations=50))
        learner.fit(dense_instance.dataset, {})
        assert learner.trace_.converged

    def test_deltas_eventually_shrink(self, dense_instance):
        learner = EMLearner(EMConfig(use_features=False))
        learner.fit(dense_instance.dataset, {})
        deltas = learner.trace_.accuracy_deltas
        assert deltas[-1] < max(deltas)


class TestSemiSupervisedEM:
    def test_labels_improve_or_match_unsupervised(self, dense_instance):
        ds = dense_instance.dataset
        split = ds.split(0.3, seed=0)
        unsup = EMLearner(EMConfig(use_features=False)).fit(ds, {})
        semi = EMLearner(EMConfig(use_features=False)).fit(ds, split.train_truth)
        unsup_vals = map_assignment(posteriors(ds, unsup))
        semi_vals = map_assignment(posteriors(ds, semi, clamp=split.train_truth))
        unsup_acc = object_value_accuracy(unsup_vals, ds.ground_truth, split.test_objects)
        semi_acc = object_value_accuracy(semi_vals, ds.ground_truth, split.test_objects)
        assert semi_acc >= unsup_acc - 0.03

    def test_warm_start_toggle(self, dense_instance):
        ds = dense_instance.dataset
        split = ds.split(0.2, seed=1)
        warm = EMLearner(EMConfig(use_features=False, warm_start_erm=True)).fit(
            ds, split.train_truth
        )
        cold = EMLearner(EMConfig(use_features=False, warm_start_erm=False)).fit(
            ds, split.train_truth
        )
        # both must land on sensible solutions
        for model in (warm, cold):
            assert np.mean(model.accuracies()) > 0.55

    def test_warm_start_error_propagates(self, dense_instance, monkeypatch):
        # Only "no observation overlaps the labels" falls back to the
        # uniform init; any other warm-start failure is a bug to surface.
        def broken_fit(self, *args, **kwargs):
            raise RuntimeError("warm start broke")

        monkeypatch.setattr(ERMLearner, "fit", broken_fit)
        split = dense_instance.dataset.split(0.2, seed=1)
        with pytest.raises(RuntimeError, match="warm start broke"):
            EMLearner(EMConfig(use_features=False)).fit(dense_instance.dataset, split.train_truth)

    def test_warm_start_without_overlap_falls_back(self, dense_instance):
        ds = dense_instance.dataset
        ghosts = {f"ghost{i}": "v0" for i in range(5)}
        warm = EMLearner(EMConfig(use_features=False, warm_start_erm=True)).fit(ds, ghosts)
        cold = EMLearner(EMConfig(use_features=False, warm_start_erm=False)).fit(ds, ghosts)
        np.testing.assert_array_equal(warm.w_sources, cold.w_sources)


class TestEMWithFeatures:
    def test_features_help_on_sparse_data(self):
        """On a sparse instance, feature-aware EM beats feature-less EM."""
        instance = generate(
            SyntheticConfig(
                n_sources=150,
                n_objects=120,
                density=0.02,
                avg_accuracy=0.68,
                accuracy_spread=0.18,
                n_features=6,
                n_informative=5,
                feature_strength=1.5,
                seed=5,
                name="sparse",
            )
        )
        ds = instance.dataset
        with_features = EMLearner(EMConfig(use_features=True)).fit(ds, {})
        without = EMLearner(EMConfig(use_features=False)).fit(ds, {})
        # Some configured sources never observe anything and are absent from
        # the dataset; compare on the sources that exist.
        true = np.array([ds.true_accuracies[s] for s in ds.sources])
        err_with = np.mean(np.abs(with_features.accuracies() - true))
        err_without = np.mean(np.abs(without.accuracies() - true))
        assert err_with <= err_without + 0.01


class TestSparseNoCollapse:
    def test_em_does_not_collapse_on_sparse_sources(self):
        """Regression: ~4 observations per source once collapsed EM to the
        all-0.5 fixed point (ridge pulled every source to 0.5).  The
        unpenalized M-step intercept keeps the population mean alive."""
        instance = generate(
            SyntheticConfig(
                n_sources=500,
                n_objects=200,
                density=0.01,
                avg_accuracy=0.6,
                seed=0,
            )
        )
        ds = instance.dataset
        model = EMLearner(EMConfig(use_features=False)).fit(ds, {})
        accuracies = model.accuracies()
        # mean estimate near the true population mean, not 0.5
        assert float(np.mean(accuracies)) > 0.55
        values = map_assignment(posteriors(ds, model))
        accuracy = object_value_accuracy(values, ds.ground_truth)
        from repro.baselines import MajorityVote

        majority = MajorityVote().fit_predict(ds, {})
        majority_accuracy = object_value_accuracy(majority.values, ds.ground_truth)
        assert accuracy >= majority_accuracy - 0.03


class TestEMConfig:
    def test_overrides(self):
        learner = EMLearner(max_iterations=3)
        assert learner.config.max_iterations == 3

    def test_max_iterations_respected(self, dense_instance):
        learner = EMLearner(EMConfig(use_features=False, max_iterations=2))
        learner.fit(dense_instance.dataset, {})
        assert learner.trace_.n_iterations <= 2

    def test_sgd_mstep_runs(self, dense_instance):
        learner = EMLearner(
            EMConfig(use_features=False, solver="sgd", max_iterations=3, sgd_epochs=5)
        )
        model = learner.fit(dense_instance.dataset, {})
        assert np.all(np.isfinite(model.accuracies()))


class TestWarmSolver:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            EMLearner(EMConfig(solver="newton-raphson"))

    def test_warm_solver_recovers_object_values(self, dense_instance):
        ds = dense_instance.dataset
        model = EMLearner(EMConfig(use_features=False, solver="lbfgs-warm")).fit(ds, {})
        values = map_assignment(posteriors(ds, model))
        assert object_value_accuracy(values, ds.ground_truth) > 0.9

    def test_warm_solver_traces_convergence(self, dense_instance):
        ds = dense_instance.dataset
        learner = EMLearner(EMConfig(solver="lbfgs-warm"))
        learner.fit(ds, {})
        assert learner.trace_ is not None
        assert learner.trace_.converged
        assert learner.trace_.accuracy_deltas[-1] < learner.config.tolerance

    def test_warm_matches_scipy_on_default_tolerances(self, dense_instance):
        ds = dense_instance.dataset
        scipy_model = EMLearner(EMConfig(solver="lbfgs")).fit(ds, {})
        warm_model = EMLearner(EMConfig(solver="lbfgs-warm")).fit(ds, {})
        np.testing.assert_allclose(warm_model.accuracies(), scipy_model.accuracies(), atol=5e-3)
