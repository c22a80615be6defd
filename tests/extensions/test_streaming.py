"""Tests for streaming fusion."""

import numpy as np
import pytest

from repro.extensions import DecayConfig, StreamingFuser, replay_dataset
from repro.fusion import DatasetError, Observation, object_value_accuracy


class TestStreamingFuserBasics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamingFuser(prior_correct=2.0, prior_total=2.0)
        with pytest.raises(ValueError, match="refit_every"):
            StreamingFuser(refit_every=0)

    def test_single_observation(self):
        fuser = StreamingFuser()
        fuser.observe(Observation("s", "o", "v"))
        assert fuser.current_value("o") == "v"
        assert fuser.n_processed == 1

    def test_unseen_object_none(self):
        assert StreamingFuser().current_value("ghost") is None

    def test_truth_feedback_updates_source(self):
        fuser = StreamingFuser(self_training=False)
        fuser.reveal_truth("o1", "right")
        fuser.observe(Observation("good", "o1", "right"))
        fuser.observe(Observation("bad", "o1", "wrong"))
        accs = fuser.source_accuracies()
        assert accs["good"] > accs["bad"]

    def test_retrospective_credit(self):
        """Truth revealed after the claims still credits the sources."""
        fuser = StreamingFuser(self_training=False)
        fuser.observe(Observation("good", "o1", "right"))
        fuser.observe(Observation("bad", "o1", "wrong"))
        before = fuser.source_accuracies()
        assert before["good"] == pytest.approx(before["bad"])
        fuser.reveal_truth("o1", "right")
        after = fuser.source_accuracies()
        assert after["good"] > after["bad"]

    def test_truth_clamps_posterior(self):
        fuser = StreamingFuser()
        fuser.reveal_truth("o", "a")
        fuser.observe(Observation("s1", "o", "b"))
        fuser.observe(Observation("s2", "o", "b"))
        assert fuser.current_value("o") == "a"

    def test_decay_shrinks_history(self):
        # half_life=1 halves the counts at each of the source's observations.
        fuser = StreamingFuser(trust_decay=DecayConfig(half_life=1.0), self_training=False)
        fuser.reveal_truth("o1", "v")
        for i in range(10):
            fuser.observe(Observation("s", "o1", "v") if i == 0 else Observation("s", f"x{i}", "v"))
        # decayed totals stay bounded instead of growing linearly
        assert float(fuser._total[0]) < 5.0


class TestBatchIngest:
    def test_observe_batch_bulk(self):
        fuser = StreamingFuser()
        fuser.observe_batch(
            [
                Observation("s1", "o1", "a"),
                Observation("s2", "o1", "b"),
                Observation("s1", "o2", "c"),
            ]
        )
        assert fuser.n_processed == 3
        assert set(fuser.posterior("o1")) == {"a", "b"}
        assert fuser.current_value("o2") == "c"

    def test_empty_batch_is_noop(self):
        fuser = StreamingFuser()
        fuser.observe_batch([])
        assert fuser.n_processed == 0

    def test_empty_fuser_snapshots_cleanly(self):
        """to_result before any observation returns an empty result."""
        fuser = StreamingFuser()
        fuser.reveal_truth("o", "v")  # truth-only state is still empty
        result = fuser.to_result()
        assert result.values == {}
        assert result.source_accuracies == {}
        assert result.diagnostics["n_processed"] == 0

    def test_duplicate_claim_rejected(self):
        fuser = StreamingFuser()
        fuser.observe(Observation("s", "o", "a"))
        with pytest.raises(DatasetError, match="duplicate"):
            fuser.observe(Observation("s", "o", "b"))

    def test_nan_claim_rejected_atomically(self):
        fuser = StreamingFuser()
        fuser.observe_batch([("a", "o", "x")])
        with pytest.raises(DatasetError, match="NaN claim value for source='c'"):
            fuser.observe_batch([("b", "o", "x"), ("c", "o", float("nan"))])
        # The rejected batch left the encoding untouched, so the valid
        # claim can be retried on its own.
        assert fuser.encoding.n_observations == 1
        assert fuser.encoding.n_sources == 1
        assert fuser.n_processed == 1
        fuser.observe_batch([("b", "o", "x")])
        assert fuser.encoding.n_observations == 2

    def test_truth_promoted_when_claimed_later(self):
        """A truth value outside the claimed domain clamps once claimed."""
        fuser = StreamingFuser(self_training=False)
        fuser.observe(Observation("s1", "o", "wrong"))
        fuser.reveal_truth("o", "right")
        accs_before = fuser.source_accuracies()
        fuser.observe(Observation("s2", "o", "right"))
        accs = fuser.source_accuracies()
        assert accs["s2"] > accs_before["s1"]
        assert fuser.current_value("o") == "right"

    def test_periodic_refit_runs(self, small_dataset):
        fuser = StreamingFuser(
            refit_every=40,
            refit_overrides={"max_iterations": 3},
        )
        fuser.run(
            small_dataset.observations,
            truth=dict(small_dataset.ground_truth),
            batch_size=25,
        )
        assert fuser.n_refits >= 1
        result = fuser.to_result()
        assert result.diagnostics["n_refits"] == fuser.n_refits
        assert result.has_arrays
        accs = fuser.source_accuracies()
        assert all(0.0 < acc < 1.0 for acc in accs.values())


class TestReplayDataset:
    def test_matches_batch_on_easy_instance(self, small_dataset):
        split = small_dataset.split(0.5, seed=0)
        result = replay_dataset(small_dataset, split.train_truth, seed=0)
        accuracy = object_value_accuracy(
            result.values, small_dataset.ground_truth, split.test_objects
        )
        from repro.baselines import MajorityVote

        majority = MajorityVote().fit_predict(small_dataset, split.train_truth)
        majority_accuracy = object_value_accuracy(
            majority.values, small_dataset.ground_truth, split.test_objects
        )
        assert accuracy >= majority_accuracy - 0.08

    def test_result_structure(self, small_dataset):
        result = replay_dataset(small_dataset, {}, seed=1)
        assert result.method == "streaming"
        assert result.diagnostics["n_processed"] == small_dataset.n_observations
        assert set(result.values) == set(small_dataset.objects.items)

    def test_source_accuracies_track_truth(self, small_dataset):
        """With full truth revealed, streaming estimates approach empirical."""
        result = replay_dataset(
            small_dataset,
            dict(small_dataset.ground_truth),
            seed=0,
            self_training=False,
        )
        empirical = small_dataset.empirical_accuracies()
        errors = [
            abs(result.source_accuracies[s] - empirical[s])
            for s in empirical
            if s in result.source_accuracies
        ]
        assert float(np.mean(errors)) < 0.12

    def test_order_invariance_is_soft(self, small_dataset):
        """Different replay orders give similar (not identical) results."""
        split = small_dataset.split(0.5, seed=0)
        a = replay_dataset(small_dataset, split.train_truth, seed=0)
        b = replay_dataset(small_dataset, split.train_truth, seed=99)
        acc_a = object_value_accuracy(a.values, small_dataset.ground_truth, split.test_objects)
        acc_b = object_value_accuracy(b.values, small_dataset.ground_truth, split.test_objects)
        assert abs(acc_a - acc_b) < 0.15


class TestRefitReanchorsUnderDrift:
    """A post-drift re-fit pulls the accuracy vector toward the new regime."""

    def _scenario(self):
        from repro.data import DriftSchedule, drift_scenario

        schedules = [DriftSchedule.step(0.95, 0.05, at=0.5) for _ in range(3)]
        schedules += [DriftSchedule.constant(0.7) for _ in range(5)]
        return drift_scenario(
            n_sources=8,
            objects_per_step=10,
            n_steps=12,
            schedules=schedules,
            reveal_fraction=0.6,
            seed=4,
        )

    def _replay(self, fuser, steps):
        for step in steps:
            fuser.observe_batch(step.observations)
            for obj, value in step.reveal.items():
                fuser.reveal_truth(obj, value)

    def test_explicit_refit_after_drift(self):
        scn = self._scenario()
        half = scn.n_steps // 2
        fuser = StreamingFuser(self_training=False, refit_overrides={"max_iterations": 15})
        self._replay(fuser, scn.steps[:half])
        pre_drift = fuser.source_accuracies()
        assert pre_drift["s0"] > 0.85  # drifter looks great before the step

        self._replay(fuser, scn.steps[half:])
        eval_objects = scn.eval_objects(at_step=scn.n_steps - 1, window=half)

        def held_out_accuracy():
            hits = [fuser.current_value(o) == scn.truth[o] for o in eval_objects]
            return float(np.mean(hits))

        acc_before = held_out_accuracy()
        fuser.refit()
        refit = fuser.source_accuracies()

        # the drifted source's estimate drops far below its pre-drift level...
        assert refit["s0"] < pre_drift["s0"] - 0.3
        # ...the stable source overtakes it...
        assert refit["s5"] > refit["s0"]
        assert abs(refit["s5"] - 0.7) < 0.15
        # ...and the rebuilt score table fixes post-drift fused values.
        assert held_out_accuracy() > acc_before

    def test_periodic_refit_tracks_drift_automatically(self):
        scn = self._scenario()
        auto = StreamingFuser(
            self_training=False,
            refit_every=max(scn.n_observations // 3, 1),
            refit_overrides={"max_iterations": 10},
        )
        self._replay(auto, scn.steps)
        assert auto.n_refits >= 2
        accs = auto.source_accuracies()
        assert accs["s5"] > accs["s0"]
