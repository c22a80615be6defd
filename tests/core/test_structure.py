"""Tests for the flattened pair structure."""

import numpy as np

from repro.core import SLiMFast, build_pair_structure
from repro.core.inference import map_rows, package_posteriors, posterior_rows
from repro.extensions.streaming import StreamingFuser
from repro.fusion import FusionDataset
from repro.fusion.encoding import IncrementalEncoding


class TestBuildPairStructure:
    def test_rows_per_object(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        # gigyf2 has 2 claimed values, gba has 1 -> 3 rows
        assert structure.n_pairs == 3
        assert structure.n_objects == 2

    def test_pair_values_order(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        gig_pos = structure.object_ids.index("gigyf2")
        rows = structure.rows_of(gig_pos)
        assert [structure.pair_values[r] for r in rows] == ["false", "true"]

    def test_observation_votes(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        # each observation votes for the row of its claimed value
        assert structure.obs_pair_idx.shape[0] == tiny_dataset.n_observations
        # count votes for gigyf2=false: a1 and a3
        gig_pos = structure.object_ids.index("gigyf2")
        false_row = structure.rows_of(gig_pos).start
        votes = np.sum(structure.obs_pair_idx == false_row)
        assert votes == 2

    def test_subset_of_objects(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset, ["gba"])
        assert structure.n_objects == 1
        assert structure.n_pairs == 1
        assert structure.obs_pair_idx.shape[0] == 2  # a1 and a3 observe gba

    def test_label_rows(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        labels = structure.label_rows({"gigyf2": "false", "gba": "true"})
        gig_pos = structure.object_ids.index("gigyf2")
        assert labels[gig_pos] == structure.rows_of(gig_pos).start

    def test_label_rows_unclaimed_truth(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        labels = structure.label_rows({"gigyf2": "maybe"})  # never claimed
        gig_pos = structure.object_ids.index("gigyf2")
        assert labels[gig_pos] == -1

    def test_label_rows_unlabeled(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        labels = structure.label_rows({})
        assert np.all(labels == -1)

    def test_base_scores_binary_zero(self, tiny_dataset):
        structure = build_pair_structure(tiny_dataset)
        # gigyf2 domain size 2 -> log(1) = 0; gba domain size 1 -> log(1) = 0
        assert np.allclose(structure.base_scores, 0.0)

    def test_base_scores_multivalued(self):
        ds = FusionDataset([("s1", "o", "a"), ("s2", "o", "b"), ("s3", "o", "c"), ("s4", "o", "a")])
        structure = build_pair_structure(ds)
        # domain size 3 -> each vote adds log(2); value 'a' has two votes
        expected = np.array([2.0, 1.0, 1.0]) * np.log(2.0)
        assert np.allclose(structure.base_scores, expected)

    def test_offsets_are_cumulative(self, multi_valued_dataset):
        structure = build_pair_structure(multi_valued_dataset)
        sizes = np.diff(structure.pair_offsets)
        assert sizes.sum() == structure.n_pairs
        assert np.all(sizes >= 1)

    def test_pair_object_pos_consistent_with_offsets(self, multi_valued_dataset):
        structure = build_pair_structure(multi_valued_dataset)
        for position in range(structure.n_objects):
            for row in structure.rows_of(position):
                assert structure.pair_object_pos[row] == position


class TestFullCoverageValues:
    """The full-coverage structure reads candidate values only to decode."""

    def test_a_streaming_refit_never_builds_the_candidate_values(
        self, monkeypatch, small_dataset
    ):
        fuser = StreamingFuser()
        fuser.observe_batch(small_dataset.observations)
        for obj in small_dataset.objects.items[:30]:
            fuser.reveal_truth(obj, small_dataset.ground_truth[obj])

        def refuse(self):
            raise AssertionError("a refit built the candidate-value list")

        monkeypatch.setattr(IncrementalEncoding, "pair_values", property(refuse))
        fuser.refit()
        assert fuser.n_refits == 1

    def test_decoded_posteriors_of_a_batch_fit_are_unchanged(self, small_dataset):
        truth = {obj: small_dataset.ground_truth[obj] for obj in small_dataset.objects.items[:30]}
        model = SLiMFast(learner="em").fit(small_dataset, truth).model_
        structure = build_pair_structure(small_dataset)
        listed = build_pair_structure(small_dataset, small_dataset.objects.items)
        assert structure.selected_values is None
        assert structure.pair_values == listed.selected_values
        assert structure.n_pairs == listed.n_pairs == len(listed.selected_values)
        probs = posterior_rows(structure, model)
        np.testing.assert_array_equal(probs, posterior_rows(listed, model))
        assert package_posteriors(structure, probs, truth) == package_posteriors(
            listed, probs, truth
        )
        assert map_rows(structure, probs, truth) == map_rows(listed, probs, truth)
