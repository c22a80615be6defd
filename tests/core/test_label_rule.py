"""One label rule: a truth entry labels its object whatever its value.

``None`` is a label like any other value, coded by the object's domain
lookup (``DenseEncoding.truth_codes``): -1 when no covered source claims it.
ERM's training pairs, EM's clamp rows and warm start, the optimizer's label
count, ``FusionResult.from_rows``' clamp and the stream's publish must all
agree on which objects are labeled, on full, object-subset and
source-masked structures alike.
"""

import numpy as np
import pytest

from repro.core.em import EMLearner
from repro.core.erm import correctness_pairs_from_structure, correctness_training_pairs
from repro.core.optimizer import erm_information_units
from repro.core.structure import build_masked_structure, build_pair_structure
from repro.extensions import StreamingFuser
from repro.fusion import FusionDataset, FusionResult
from repro.fusion.encoding import encode_dataset
from repro.optim.numerics import logit
from repro.optim.objectives import segment_softmax
from tests.oracles import learners as oracle_learners
from tests.oracles import structure as oracle_structure
from tests.oracles.streaming import compiled_result

OBSERVATIONS = [
    ("s0", "none-claimed", None),
    ("s1", "none-claimed", "x"),
    ("s2", "none-claimed", "y"),
    ("s1", "none-unclaimed", "x"),
    ("s2", "none-unclaimed", "y"),
    ("s3", "none-unclaimed", "x"),
    ("s0", "valued", "x"),
    ("s3", "valued", "y"),
    ("s4", "valued", "x"),
    ("s1", "unlabeled", "x"),
    ("s4", "unlabeled", "y"),
    ("s0", "unlabeled-2", "p"),
    ("s2", "unlabeled-2", "q"),
    ("s3", "unlabeled-2", "p"),
]
# A None some source claims, a None nobody claims, a plain value, and a
# label on an object the data never observes.
TRUTH = {"none-claimed": None, "none-unclaimed": None, "valued": "x", "ghost": None}


@pytest.fixture
def dataset():
    return FusionDataset(OBSERVATIONS)


STRUCTURES = {
    "full": lambda dataset: build_pair_structure(dataset),
    "object-subset": lambda dataset: build_pair_structure(
        dataset, ["none-unclaimed", "valued", "unlabeled", "none-claimed"]
    ),
    # Dropping s0 leaves the claimed None of "none-claimed" unclaimed.
    "masked": lambda dataset: build_masked_structure(dataset, ["s0"]),
}


def _observation_positions(structure):
    return structure.pair_object_pos[structure.obs_pair_idx]


@pytest.mark.parametrize("kind", list(STRUCTURES))
class TestStructuresAgree:
    def test_labeled_set_is_truth_membership(self, dataset, kind):
        structure = STRUCTURES[kind](dataset)
        labeled, codes = structure.truth_codes(TRUTH)
        expected = [obj in TRUTH for obj in structure.object_ids]
        np.testing.assert_array_equal(labeled, expected)
        rows = structure.label_rows(TRUTH)
        np.testing.assert_array_equal(rows, oracle_structure.label_rows(structure, TRUTH))
        np.testing.assert_array_equal(rows >= 0, labeled & (codes >= 0))

    def test_erm_pairs_cover_the_labeled_objects(self, dataset, kind):
        structure = STRUCTURES[kind](dataset)
        labeled, _ = structure.truth_codes(TRUTH)
        rows = structure.label_rows(TRUTH)
        positions = _observation_positions(structure)
        expected = sorted(
            (int(source), float(row == rows[position]))
            for source, row, position in zip(
                structure.obs_source_idx, structure.obs_pair_idx, positions
            )
            if labeled[position]
        )
        source_idx, labels = correctness_pairs_from_structure(structure, TRUTH)
        assert sorted(zip(source_idx.tolist(), labels.tolist())) == expected
        if kind == "masked":
            oracle_pairs = oracle_learners.correctness_training_pairs(
                dataset, TRUTH, exclude_sources=["s0"]
            )
            assert sorted(zip(*(a.tolist() for a in oracle_pairs))) == expected
        if kind == "full":
            dataset_pairs = correctness_training_pairs(dataset, TRUTH)
            oracle_pairs = oracle_learners.correctness_training_pairs(dataset, TRUTH)
            for got, want in zip(dataset_pairs, oracle_pairs):
                np.testing.assert_array_equal(got, want)
            assert sorted(zip(*(a.tolist() for a in dataset_pairs))) == expected

    def test_em_warm_start_reads_the_labeled_sources(self, dataset, kind):
        structure = STRUCTURES[kind](dataset)
        labeled, _ = structure.truth_codes(TRUTH)
        positions = _observation_positions(structure)
        expected = set(structure.obs_source_idx[labeled[positions]].tolist())
        design, space = encode_dataset(dataset).design(True)
        w = EMLearner()._initial_weights(dataset, dict(TRUTH), design, space, structure)
        warm = set(np.flatnonzero(w[: dataset.n_sources] != logit(0.7)).tolist())
        assert warm == expected

    def test_from_rows_clamps_the_labeled_objects(self, dataset, kind):
        structure = STRUCTURES[kind](dataset)
        uniform = segment_softmax(
            np.zeros(structure.n_pairs), structure.pair_object_pos, structure.n_objects
        )
        result = FusionResult.from_rows(structure, uniform, clamp=TRUTH)
        clamped = {obj for obj, dist in result.posteriors.items() if max(dist.values()) == 1.0}
        assert clamped == {obj for obj in structure.object_ids if obj in TRUTH}
        for obj in clamped:
            assert result.values[obj] == TRUTH[obj]
            assert result.posteriors[obj][TRUTH[obj]] == 1.0


def test_optimizer_counts_every_observed_label(dataset):
    assert erm_information_units(dataset, TRUTH) == 3.0
    assert erm_information_units(dataset, TRUTH, per_observation=True) == 9.0


@pytest.mark.parametrize("batch_size", [1, 4])
def test_stream_publish_clamps_the_labeled_objects(dataset, batch_size):
    fuser = StreamingFuser()
    # "none-claimed" and "ghost" are labeled before they arrive (the ghost
    # never does), the others after their first claim.
    fuser.reveal_truth("none-claimed", None)
    fuser.reveal_truth("ghost", None)
    late = {"none-unclaimed": None, "valued": "x"}
    for start in range(0, len(OBSERVATIONS), batch_size):
        batch = OBSERVATIONS[start : start + batch_size]
        fuser.observe_batch(batch)
        for _, obj, _ in batch:
            if obj in late:
                fuser.reveal_truth(obj, late.pop(obj))
    assert fuser.truth == TRUTH
    objects = fuser.encoding.objects.items
    np.testing.assert_array_equal(
        fuser._truth_code[: len(objects)] != -1, [obj in TRUTH for obj in objects]
    )
    result = fuser.to_result()
    reference = compiled_result(fuser)
    np.testing.assert_array_equal(result.value_codes, reference.value_codes)
    assert result.overrides == reference.overrides == {"none-unclaimed": None}
    clamped = {obj for obj, dist in result.posteriors.items() if max(dist.values()) == 1.0}
    assert clamped == {"none-claimed", "none-unclaimed", "valued"}
    assert result.values["none-claimed"] is None
