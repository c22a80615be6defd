"""The per-encoding memos: the featurizer digest and ``truth_codes``.

Both are pure functions of the encoding's state, so the encoding keeps
them next to its compiled arrays and ``IncrementalEncoding.append`` clears
them with the arrays.  These tests pin that a memo hit returns what a
fresh computation would (the per-label loop of ``tests/oracles/structure.py``
for the truth codes, a cold featurization for the digest), that appends
and in-place truth edits invalidate, that the shared truth arrays are
read-only, and that the paper's evaluation loop — ERM and EM across label
budgets on one dataset — fits bit-identically with and without memo hits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slimfast import SLiMFast
from repro.core.structure import build_pair_structure
from repro.data import generate
from repro.featurize import FeaturizerPipeline, dataset_digest
from repro.featurize import pipeline as pipeline_module
from repro.fusion.encoding import DenseEncoding, IncrementalEncoding, encode_dataset
from repro.fusion.types import DatasetError
from tests.oracles import structure as oracle

DATA = dict(n_sources=40, n_objects=300, density=0.08, seed=11, name="memos")


@pytest.fixture
def dataset():
    return generate(**DATA).dataset


@pytest.fixture
def digest_calls(monkeypatch):
    """Count the featurizer's ``dataset_digest`` calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dataset_digest(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "dataset_digest", counting)
    return calls


def _assert_truth_codes_match_oracle(encoding, truth):
    labeled, codes = encoding.truth_codes(truth)
    want_labeled, want_codes = oracle.truth_codes(encoding, truth)
    np.testing.assert_array_equal(labeled, want_labeled)
    np.testing.assert_array_equal(codes, want_codes)
    if encoding.n_observations:
        structure = build_pair_structure(encoding)
        want_rows = oracle.label_rows(structure, truth)
        np.testing.assert_array_equal(structure.label_rows(truth), want_rows)


class TestDigestMemo:
    def test_design_for_digests_once(self, dataset, digest_calls):
        pipeline = FeaturizerPipeline()
        designs = [pipeline.design_for(dataset)[0] for _ in range(3)]
        assert len(digest_calls) == 1
        for design in designs[1:]:
            np.testing.assert_array_equal(design, designs[0])

    def test_append_recomputes_digest(self, dataset, digest_calls):
        observations = list(dataset.observations)
        half = len(observations) // 2
        encoding = IncrementalEncoding(source_features=dataset.source_features)
        encoding.append(observations[:half])
        pipeline = FeaturizerPipeline()
        before = pipeline.featurize(encoding)
        assert pipeline.featurize(encoding).from_cache
        assert len(digest_calls) == 1

        encoding.append(observations[half:])
        after = pipeline.featurize(encoding)
        assert len(digest_calls) == 2
        assert not after.from_cache
        assert after.digest != before.digest
        cold = FeaturizerPipeline().featurize(encoding.to_dataset())
        assert after.digest == cold.digest
        np.testing.assert_array_equal(after.matrix, cold.matrix)
        assert after.column_names == cold.column_names

    def test_rebuilt_encoding_digests_afresh(self, dataset, digest_calls):
        # An encoding rebuilt from exported state starts with empty memos:
        # a cold featurization of it pays for the digest again.
        pipeline = FeaturizerPipeline()
        pipeline.featurize(dataset)
        rebuilt = DenseEncoding.from_state(dataset, encode_dataset(dataset).export_state())
        again = pipeline.featurize(rebuilt)
        assert len(digest_calls) == 2
        assert again.from_cache


class TestTruthCodesMemo:
    def test_arrays_are_read_only(self, dataset):
        truth = dataset.split(0.3, seed=0).train_truth
        labeled, codes = encode_dataset(dataset).truth_codes(truth)
        with pytest.raises(ValueError):
            labeled[0] = not labeled[0]
        with pytest.raises(ValueError):
            codes[0] = 7

    def test_equal_truth_shares_the_arrays(self, dataset):
        encoding = encode_dataset(dataset)
        truth = dataset.split(0.3, seed=0).train_truth
        labeled, codes = encoding.truth_codes(truth)
        again = encoding.truth_codes(dict(truth))
        assert again[0] is labeled and again[1] is codes

    def test_in_place_edit_after_a_call_recodes(self, dataset):
        encoding = encode_dataset(dataset)
        truth = dict(dataset.split(0.3, seed=0).train_truth)
        encoding.truth_codes(truth)
        unlabeled = next(obj for obj in dataset.objects if obj not in truth)
        added = dataset.objects.index(unlabeled)
        truth[unlabeled] = encoding.domain_by_index(added).item(0)
        relabeled = next(iter(truth))
        truth[relabeled] = "never-claimed"
        _assert_truth_codes_match_oracle(encoding, truth)
        labeled, codes = encoding.truth_codes(truth)
        assert labeled[added] and codes[added] == 0
        assert codes[dataset.objects.index(relabeled)] == -1

    def test_append_that_claims_the_label_recodes(self):
        encoding = IncrementalEncoding()
        encoding.append([("s0", "o0", "a")])
        truth = {"o0": "b", "o1": "x"}
        labeled, codes = encoding.truth_codes(truth)
        assert labeled.tolist() == [True] and codes.tolist() == [-1]

        encoding.append([("s1", "o0", "b"), ("s1", "o1", "x")])
        labeled, codes = encoding.truth_codes(truth)
        assert labeled.tolist() == [True, True]
        assert codes.tolist() == [1, 0]


# Small pools so objects and values collide across appends and labels;
# 1 / 1.0 / True hash and compare equal, so they code identically.
SOURCES = st.sampled_from(["s0", "s1", "s2", "s3"])
OBJECTS = st.sampled_from(["o0", "o1", "o2", "o3", "o4", 5])
VALUES = st.sampled_from(["a", "b", "c", 1, 1.0, True, 0, None])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(st.tuples(SOURCES, OBJECTS, VALUES), max_size=5)),
        st.tuples(st.just("label"), OBJECTS, VALUES),
        st.tuples(st.just("unlabel"), OBJECTS),
        st.tuples(st.just("copy")),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_random_calls_appends_and_edits_match_the_per_label_loop(ops):
    encoding = IncrementalEncoding()
    truth = {}
    for op in ops:
        if op[0] == "append":
            try:
                encoding.append(op[1])
            except DatasetError:
                pass  # duplicate (source, object) claim: rejected atomically
        elif op[0] == "label":
            truth[op[1]] = op[2]
        elif op[0] == "unlabel":
            truth.pop(op[1], None)
        else:
            truth = dict(truth)
        _assert_truth_codes_match_oracle(encoding, truth)


# ----------------------------------------------------------------------
# Memo hits never change a fit
# ----------------------------------------------------------------------
GRID_LEARNERS = ("erm", "em")
GRID_FRACTIONS = (0.01, 0.05, 0.1, 0.2)


def _grid_fit(dataset, pipeline, learner, fraction):
    split = dataset.split(fraction, seed=0)
    model = SLiMFast(learner=learner, featurizer=pipeline).fit(dataset, split.train_truth)
    result = model.predict()
    return model.model_, result, result.accuracy(dataset, list(split.test_objects))


def test_memo_hits_never_change_a_fit():
    """The label-budget loop on one warm dataset equals fresh fits bit for bit."""
    shared = generate(**DATA).dataset
    pipeline = FeaturizerPipeline()
    grid = [(learner, fraction) for learner in GRID_LEARNERS for fraction in GRID_FRACTIONS]
    warm = [_grid_fit(shared, pipeline, *cell) for cell in grid]
    fresh = [_grid_fit(generate(**DATA).dataset, FeaturizerPipeline(), *cell) for cell in grid]
    for (w_model, w_result, w_acc), (f_model, f_result, f_acc) in zip(warm, fresh):
        np.testing.assert_array_equal(w_model.w_sources, f_model.w_sources)
        np.testing.assert_array_equal(w_model.w_features, f_model.w_features)
        assert w_model.intercept == f_model.intercept
        np.testing.assert_array_equal(w_result.value_codes, f_result.value_codes)
        np.testing.assert_array_equal(
            w_result.posterior_store.probs, f_result.posterior_store.probs
        )
        assert w_acc == f_acc
