"""Equivalence contract of the incremental (append-only) encoding layer.

Two machine-checked contracts:

1. **Encoding equivalence** — after *any* sequence of appends, every
   materialized :class:`repro.fusion.encoding.IncrementalEncoding` array
   equals a cold :class:`repro.fusion.encoding.DenseEncoding` compile of
   the accumulated dataset: index arrays and ``base_scores`` exactly, the
   design matrix at ``atol=1e-12`` (byte-equal in practice).  The replay
   tests below cut seeded random datasets into random batch sizes to sweep
   the relocation/doubling paths.
2. **Streaming equivalence** — :class:`repro.extensions.streaming.StreamingFuser`
   reproduces the sequential dict-loop oracle (``tests/oracles/streaming.py``)
   exactly at batch size 1 (bit-identical posteriors and source accuracies,
   including decay and self-training), and tracks it closely under
   mini-batching (batch-start trusts; see the streaming module docstring
   for the declared batch semantics).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import EMConfig, EMLearner, fit_incremental
from repro.core.structure import build_pair_structure
from repro.data import SyntheticConfig, generate
from repro.extensions.streaming import DecayConfig, StreamingFuser, replay_dataset
from repro.fusion.dataset import FusionDataset, subset_sources
from repro.fusion.encoding import DenseEncoding, IncrementalEncoding, encode_dataset
from tests.oracles import learners as oracle_learners
from tests.oracles import streaming as oracle_streaming

ARRAY_NAMES = [
    "obs_order",
    "obs_offsets",
    "obs_object_idx",
    "obs_source_idx",
    "obs_value_code",
    "domain_sizes",
    "pair_offsets",
    "pair_object_idx",
    "pair_value_code",
    "obs_pair_idx",
]

CONFIGS = [
    SyntheticConfig(
        n_sources=40,
        n_objects=90,
        density=0.15,
        avg_accuracy=0.72,
        n_features=6,
        n_informative=3,
        seed=101,
        name="binary-featureful",
    ),
    SyntheticConfig(
        n_sources=25,
        n_objects=70,
        density=0.25,
        avg_accuracy=0.6,
        domain_size_range=(3, 5),
        n_features=5,
        n_informative=2,
        seed=202,
        name="multi-valued",
    ),
    SyntheticConfig(
        n_sources=30,
        n_objects=60,
        density=0.2,
        avg_accuracy=0.8,
        n_features=0,
        n_informative=0,
        seed=303,
        name="featureless",
    ),
]


@pytest.fixture(params=CONFIGS, ids=lambda c: c.name)
def dataset(request):
    return generate(request.param).dataset


def _random_batches(items, rng, max_batch=40):
    """Cut ``items`` into random-size batches (including size-1 batches)."""
    batches = []
    i = 0
    while i < len(items):
        size = int(rng.integers(1, max_batch))
        batches.append(items[i : i + size])
        i += size
    return batches


def _assert_matches_cold(incremental: IncrementalEncoding, cold: DenseEncoding):
    for name in ARRAY_NAMES:
        np.testing.assert_array_equal(getattr(incremental, name), getattr(cold, name), err_msg=name)
    np.testing.assert_array_equal(incremental.log_alternatives, cold.log_alternatives)
    np.testing.assert_array_equal(incremental.base_scores, cold.base_scores)
    assert incremental.pair_values == cold.pair_values
    for use_features in (True, False):
        design_inc, space_inc = incremental.design(use_features)
        design_cold, space_cold = cold.design(use_features)
        np.testing.assert_allclose(design_inc, design_cold, atol=1e-12)
        assert space_inc.column_labels == space_cold.column_labels


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("replay_seed", [0, 1, 2])
    def test_random_batch_replay_matches_cold_compile(self, dataset, replay_seed):
        """Appending in random batch sizes reproduces the cold arrays."""
        rng = np.random.default_rng(replay_seed)
        incremental = IncrementalEncoding(
            source_features=dataset.source_features, name=dataset.name
        )
        for batch in _random_batches(list(dataset.observations), rng):
            incremental.append(batch)
        _assert_matches_cold(incremental, encode_dataset(dataset))

    def test_intermediate_snapshots_also_match(self, dataset):
        """Every prefix of the stream is itself cold-equivalent."""
        observations = list(dataset.observations)
        incremental = IncrementalEncoding(source_features=dataset.source_features)
        rng = np.random.default_rng(7)
        consumed = 0
        for batch in _random_batches(observations, rng, max_batch=120):
            incremental.append(batch)
            consumed += len(batch)
            prefix = FusionDataset(observations[:consumed], source_features=dataset.source_features)
            np.testing.assert_array_equal(
                incremental.obs_pair_idx, DenseEncoding(prefix).obs_pair_idx
            )

    def test_truth_codes_and_label_rows_match(self, dataset):
        truth = dataset.split(0.4, seed=3).train_truth
        incremental = IncrementalEncoding.from_dataset(dataset)
        cold = encode_dataset(dataset)
        labeled_inc, codes_inc = incremental.truth_codes(truth)
        labeled_cold, codes_cold = cold.truth_codes(truth)
        np.testing.assert_array_equal(labeled_inc, labeled_cold)
        np.testing.assert_array_equal(codes_inc, codes_cold)
        np.testing.assert_array_equal(incremental.label_rows(truth), cold.label_rows(truth))

    def test_incremental_structure_matches_vectorized_build(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        built = build_pair_structure(incremental)
        reference = build_pair_structure(dataset)
        assert built.object_ids == reference.object_ids
        assert built.pair_values == reference.pair_values
        np.testing.assert_array_equal(built.pair_offsets, reference.pair_offsets)
        np.testing.assert_array_equal(built.obs_pair_idx, reference.obs_pair_idx)
        np.testing.assert_array_equal(built.base_scores, reference.base_scores)
        truth = dataset.split(0.3, seed=1).train_truth
        np.testing.assert_array_equal(built.label_rows(truth), reference.label_rows(truth))

    def test_to_dataset_round_trip_attaches_snapshot(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        rebuilt = incremental.to_dataset(ground_truth=dataset.ground_truth)
        assert rebuilt.observations == dataset.observations
        assert rebuilt.ground_truth == dataset.ground_truth
        attached = encode_dataset(rebuilt)
        # The attached encoding is fabricated from the snapshot, not a
        # recompile — equal arrays, but frozen *copies* so later appends
        # to the incremental encoding cannot reach the export (see
        # TestAsDenseAliasing).
        assert attached.obs_pair_idx is not incremental.obs_pair_idx
        np.testing.assert_array_equal(attached.obs_pair_idx, incremental.obs_pair_idx)
        np.testing.assert_array_equal(attached.base_scores, DenseEncoding(rebuilt).base_scores)

    def test_object_claims_and_live_domain_sizes(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        cold = encode_dataset(dataset)
        np.testing.assert_array_equal(incremental.live_domain_sizes, cold.domain_sizes)
        for o_idx in range(0, dataset.n_objects, 17):
            sources, codes = incremental.object_claims(o_idx)
            span = slice(int(cold.obs_offsets[o_idx]), int(cold.obs_offsets[o_idx + 1]))
            np.testing.assert_array_equal(sources, cold.obs_source_idx[span])
            np.testing.assert_array_equal(codes, cold.obs_value_code[span])

    def test_live_reads_never_compile(self, dataset, monkeypatch):
        """The streaming hot path's reads stay O(1): no compile per batch."""
        from repro.fusion import encoding as encoding_module

        incremental = IncrementalEncoding.from_dataset(dataset)
        compiles = []
        compile_arrays = encoding_module.compile_arrays

        def counting_compile(*args):
            compiles.append(True)
            return compile_arrays(*args)

        monkeypatch.setattr(encoding_module, "compile_arrays", counting_compile)
        incremental.append([("late-source", "late-object", "v")])
        last = incremental.n_objects - 1
        assert incremental.n_observations == dataset.n_observations + 1
        assert incremental.n_sources == dataset.n_sources + 1
        assert incremental.live_domain_sizes[last] == 1
        assert incremental.object_claims(last)[1].tolist() == [0]
        assert incremental.domain_by_index(last).items == ["v"]
        assert not compiles
        _ = incremental.obs_pair_idx, incremental.base_scores
        assert len(compiles) == 1

    def test_duplicate_claim_rejected(self):
        from repro.fusion import DatasetError

        incremental = IncrementalEncoding()
        incremental.append([("s", "o", "a")])
        with pytest.raises(DatasetError, match="duplicate"):
            incremental.append([("s", "o", "b")])

    def test_rejected_batch_leaves_encoding_untouched(self):
        """Appends are atomic: a mid-batch duplicate mutates nothing."""
        from repro.fusion import DatasetError

        incremental = IncrementalEncoding()
        incremental.append([("s1", "o1", "a")])
        bad_batch = [("s2", "o2", "b"), ("s3", "o3", "c"), ("s1", "o1", "x")]
        with pytest.raises(DatasetError, match="duplicate"):
            incremental.append(bad_batch)
        assert incremental.n_sources == 1
        assert incremental.n_objects == 1
        assert incremental.n_observations == 1
        # The valid prefix was not interned and can be appended cleanly.
        incremental.append(bad_batch[:2])
        _assert_matches_cold(
            incremental,
            DenseEncoding(FusionDataset([("s1", "o1", "a"), *bad_batch[:2]])),
        )
        # Intra-batch duplicates are rejected up front too.
        with pytest.raises(DatasetError, match="duplicate"):
            incremental.append([("s9", "o9", "a"), ("s9", "o9", "b")])
        assert incremental.n_observations == 3

    def test_nan_claim_rejected_atomically(self):
        from repro.fusion import DatasetError

        incremental = IncrementalEncoding()
        incremental.append([("s1", "o1", "a")])
        with pytest.raises(DatasetError, match="NaN claim value for source='s2' obj='o1'"):
            incremental.append([("s3", "o2", "b"), ("s2", "o1", float("nan"))])
        assert incremental.n_sources == 1
        assert incremental.n_objects == 1
        assert incremental.n_observations == 1

    def test_empty_batch_is_noop(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        before = incremental.obs_pair_idx
        batch = incremental.append([])
        assert len(batch) == 0
        assert incremental.obs_pair_idx is before  # cache not invalidated


class TestExtendedDataset:
    """The immutable append API on the dataset container."""

    def test_extended_preserves_prefix_indices(self, dataset):
        fresh = [("brand-new-source", obj, "zzz") for obj in list(dataset.objects)[:3]]
        extended = dataset.extended(fresh, ground_truth={fresh[0][1]: "zzz"})
        assert extended.n_observations == dataset.n_observations + 3
        # Existing source/object indices and value codes are preserved.
        np.testing.assert_array_equal(
            extended.obs_source_idx[: dataset.n_observations], dataset.obs_source_idx
        )
        np.testing.assert_array_equal(
            extended.obs_value_idx[: dataset.n_observations], dataset.obs_value_idx
        )
        assert extended.ground_truth[fresh[0][1]] == "zzz"

    def test_extended_matches_incremental_append(self, dataset):
        fresh = [("late-source", obj, "late-value") for obj in list(dataset.objects)[:5]]
        extended = dataset.extended(fresh)
        incremental = IncrementalEncoding.from_dataset(dataset)
        incremental.append(fresh)
        _assert_matches_cold(incremental, encode_dataset(extended))


def _grouped_rows(dataset, key):
    """Brute-force grouping of the observation rows, ascending per group."""
    groups = {}
    for row, obs in enumerate(dataset.observations):
        groups.setdefault(key(obs), []).append(row)
    return groups


class TestRowSpans:
    """The container's CSR row accessors equal a brute-force grouping.

    Order is part of the contract: the agreement and copying statistics
    and the catd/accu/counts/majority baselines walk these rows and add
    floats in that order.
    """

    def test_row_accessors_match_brute_force_grouping(self, dataset):
        late = [("late-source", obj, "late-value") for obj in dataset.objects.items[:7]]
        variants = [
            dataset,
            dataset.extended(late),
            subset_sources(dataset, dataset.sources.items[::2]),
        ]
        for variant in variants:
            by_object = _grouped_rows(variant, lambda obs: obs.obj)
            by_source = _grouped_rows(variant, lambda obs: obs.source)
            for o_idx, obj in enumerate(variant.objects.items):
                rows = variant.object_observation_rows(o_idx)
                assert rows.dtype == np.int64 and not rows.flags.writeable
                assert rows.tolist() == by_object[obj]
                expected = [variant.observations[row] for row in by_object[obj]]
                assert variant.observations_of_object(obj) == expected
            counts = variant.source_observation_counts()
            assert counts.tolist() == [len(by_source[s]) for s in variant.sources.items]
            for s_idx, source in enumerate(variant.sources.items):
                rows = variant.source_observation_rows(s_idx)
                assert rows.dtype == np.int64 and not rows.flags.writeable
                assert rows.tolist() == by_source[source]
                expected = [variant.observations[row] for row in by_source[source]]
                assert variant.observations_of_source(source) == expected


class TestDegenerateInputs:
    """Clear errors (not opaque numpy failures) at the encoding boundary."""

    def test_zero_observations_raise_clear_error(self, dataset):
        # The container already rejects an empty build...
        from repro.fusion import DatasetError

        with pytest.raises(DatasetError, match="at least one observation"):
            FusionDataset([])
        # ...and the encoder guards against emptied/stubbed datasets too.
        hollow = FusionDataset([("s", "o", "v")])
        hollow.obs_source_idx = hollow.obs_object_idx = hollow.obs_value_idx = np.zeros(
            0, dtype=np.int64
        )
        with pytest.raises(ValueError, match="zero observations"):
            DenseEncoding(hollow)
        with pytest.raises(ValueError, match="zero observations"):
            _ = IncrementalEncoding().obs_offsets

    def test_empty_domain_raises_clear_error(self):
        hollow = FusionDataset([("s", "o", "v")])
        hollow._domains[0] = type(hollow._domains[0])()  # empty the domain
        with pytest.raises(ValueError, match="empty claimed domain"):
            DenseEncoding(hollow)

    def test_single_source_unit_domain_encodes_cleanly(self):
        """A one-source, unit-domain object is degenerate but valid.

        Unit domains (unanimous claims) are ubiquitous in real datasets,
        so the boundary must accept them: the candidate block is a single
        row with zero base score and a point-mass posterior, on both the
        cold and the incremental path.
        """
        unit = FusionDataset([("only-source", "only-object", "the-value")])
        cold = encode_dataset(unit)
        assert cold.n_pairs == 1
        np.testing.assert_array_equal(cold.base_scores, [0.0])
        incremental = IncrementalEncoding()
        incremental.append([("only-source", "only-object", "the-value")])
        _assert_matches_cold(incremental, cold)
        fuser = StreamingFuser()
        fuser.observe_batch(unit.observations)
        assert fuser.posterior("only-object") == {"the-value": 1.0}


class TestStreamingEquivalence:
    """Streaming fuser vs the sequential dict-loop oracle."""

    @pytest.mark.parametrize(
        "fuser_kwargs",
        [
            {},
            {"self_training": False},
            {"trust_decay": DecayConfig(half_life=140.0)},
            {"trust_decay": DecayConfig(window=8.0)},
        ],
        ids=["default", "no-self-training", "decaying", "windowed"],
    )
    def test_single_observation_batches_are_exact(self, dataset, fuser_kwargs):
        truth = dataset.split(0.4, seed=0).train_truth
        rng = np.random.default_rng(5)
        order = rng.permutation(dataset.n_observations)
        stream = [dataset.observations[int(i)] for i in order]
        reference = oracle_streaming.ReferenceStreamingFuser(**fuser_kwargs).run(stream, truth)
        vectorized = StreamingFuser(**fuser_kwargs).run(stream, truth=truth, batch_size=1)
        ref_accs = reference.source_accuracies()
        vec_accs = vectorized.source_accuracies()
        assert ref_accs.keys() == vec_accs.keys()
        for source, acc in ref_accs.items():
            assert vec_accs[source] == acc  # bit-identical
        for obj in dataset.objects:
            ref_post = reference.posterior(obj)
            vec_post = vectorized.posterior(obj)
            assert ref_post.keys() == vec_post.keys()
            for value, prob in ref_post.items():
                assert vec_post[value] == prob  # bit-identical

    def test_to_result_matches_reference_packaging(self, dataset):
        truth = dataset.split(0.3, seed=1).train_truth
        ref = oracle_streaming.replay_dataset(dataset, truth, seed=2)
        vec = replay_dataset(dataset, truth, seed=2, batch_size=1)
        assert vec.has_arrays
        assert set(vec.values) == set(ref.values)
        for obj, dist in ref.posteriors.items():
            assert vec.posteriors[obj].keys() == dist.keys()
            for value, prob in dist.items():
                assert vec.posteriors[obj][value] == pytest.approx(prob, abs=1e-9)
        for source, acc in ref.source_accuracies.items():
            assert vec.source_accuracies[source] == pytest.approx(acc, abs=1e-12)

    def test_minibatch_replay_tracks_reference(self, dataset):
        """Batched replay (batch-start trusts) stays close to sequential."""
        truth = dataset.split(0.4, seed=0).train_truth
        ref = oracle_streaming.replay_dataset(dataset, truth, seed=0)
        vec = replay_dataset(dataset, truth, seed=0, batch_size=64)
        agreement = np.mean([ref.values[obj] == vec.values[obj] for obj in dataset.objects.items])
        assert agreement >= 0.9
        deltas = [
            abs(ref.source_accuracies[s] - vec.source_accuracies[s])
            for s in ref.source_accuracies
        ]
        assert float(np.mean(deltas)) < 0.05

    def test_unclaimed_truth_becomes_override(self):
        fuser = StreamingFuser()
        fuser.observe_batch([("s1", "o", "a"), ("s2", "o", "b")])
        fuser.reveal_truth("o", "never-claimed")
        assert fuser.current_value("o") == "never-claimed"
        result = fuser.to_result()
        assert result.values["o"] == "never-claimed"
        assert result.posteriors["o"]["never-claimed"] == 1.0

    def test_refit_warm_state_handoff(self, dataset):
        """Periodic re-fits reuse the warm state and stay sane."""
        truth = dataset.split(0.5, seed=0).train_truth
        fuser = StreamingFuser(
            source_features=dataset.source_features,
            refit_every=max(40, dataset.n_observations // 3),
            refit_overrides={"max_iterations": 4},
        )
        fuser.run(dataset.observations, truth=truth, batch_size=64)
        assert fuser.n_refits >= 1
        assert fuser._warm_state is not None
        # Re-anchored accuracies should correlate with a direct EM fit.
        model, _ = fit_incremental(fuser.encoding, truth=truth, max_iterations=4)
        accs = fuser.source_accuracies()
        fitted = dict(zip(dataset.sources.items, model.accuracies()))
        correlation = np.corrcoef([accs[s] for s in fitted], [fitted[s] for s in fitted])[0, 1]
        assert correlation > 0.5


class TestFitIncremental:
    def test_matches_cold_em_fit(self, dataset):
        truth = dataset.split(0.3, seed=2).train_truth
        incremental = IncrementalEncoding.from_dataset(dataset)
        model, learner = fit_incremental(incremental, truth=truth, max_iterations=6)
        cold = EMLearner(EMConfig(max_iterations=6, solver="lbfgs-warm")).fit(dataset, truth)
        np.testing.assert_allclose(model.accuracies(), cold.accuracies(), atol=1e-8)
        assert learner.warm_state_ is not None

    def test_matches_em_oracle(self, dataset):
        truth = dataset.split(0.3, seed=2).train_truth
        incremental = IncrementalEncoding.from_dataset(dataset)
        model, _ = fit_incremental(
            incremental, truth=truth, max_iterations=6, m_step_tolerance=1e-13
        )
        reference = oracle_learners.fit_em(dataset, truth, max_iterations=6, m_step_tolerance=1e-13)
        assert model.source_ids == reference.source_ids
        # Bounded by scipy's double-precision stopping plateau, as for
        # EMLearner(solver="lbfgs-warm") in tests/test_vectorized_equivalence.py.
        np.testing.assert_allclose(model.accuracies(), reference.accuracies(), atol=5e-5)

    def test_warm_state_does_not_change_optimum(self, dataset):
        truth = dataset.split(0.3, seed=2).train_truth
        incremental = IncrementalEncoding.from_dataset(dataset)
        cold_model, learner = fit_incremental(incremental, truth=truth, max_iterations=6)
        seeded_model, _ = fit_incremental(
            incremental, truth=truth, warm_state=learner.warm_state_, max_iterations=6
        )
        np.testing.assert_allclose(seeded_model.accuracies(), cold_model.accuracies(), atol=1e-6)


class TestAsDenseAliasing:
    """The encoding ``to_dataset`` attaches must be a frozen snapshot.

    An export that handed out the *live* compiled arrays and
    ``_design_cache`` row stores could be mutated or invalidated by a later
    ``append``/compile (or a design-cache growth).  The export is a
    read-only copy, pinned here.
    """

    def test_export_is_stable_across_later_appends(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        incremental.design(True)  # warm the cache so the export carries it
        exported_dataset = incremental.to_dataset()
        dense = exported_dataset._dense_encoding
        expected = encode_dataset(FusionDataset(dataset.observations))
        before = {name: getattr(dense, name).copy() for name in ARRAY_NAMES}
        design_before = dense.design(True)[0].copy()

        # Keep appending (new objects, new sources, repeat claims on old
        # objects) and recompiling; the exported view must not move.
        incremental.append([("fresh-source", "fresh-object", "v")])
        _ = incremental.obs_pair_idx
        incremental.append(
            [("fresh-source", obj, dataset.domain(obj)[0]) for obj in dataset.objects.items[:5]]
        )
        _ = incremental.obs_pair_idx
        incremental.design(True)

        for name in ARRAY_NAMES:
            np.testing.assert_array_equal(getattr(dense, name), before[name], err_msg=name)
            np.testing.assert_array_equal(
                getattr(dense, name), getattr(expected, name), err_msg=name
            )
        np.testing.assert_array_equal(dense.design(True)[0], design_before)

    def test_export_does_not_alias_live_buffers(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        incremental.design(True)
        incremental.design(False)
        dense = incremental.to_dataset()._dense_encoding
        for name in ARRAY_NAMES:
            exported = getattr(dense, name)
            live = getattr(incremental, name)
            assert exported is not live, name
            assert not np.shares_memory(exported, live), name
        for key, (rows, _n_encoded, _space) in incremental._design_cache.items():
            assert not np.shares_memory(dense.design(key)[0], rows), key

    def test_exported_arrays_are_read_only(self, dataset):
        incremental = IncrementalEncoding.from_dataset(dataset)
        dense = incremental.to_dataset()._dense_encoding
        for name in ARRAY_NAMES + ["base_scores", "log_alternatives"]:
            array = getattr(dense, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[...] = 0

    def test_frozen_export_still_fits(self, dataset):
        # The read-only arrays must be transparent to the learners.
        incremental = IncrementalEncoding.from_dataset(dataset)
        exported = incremental.to_dataset(ground_truth=dataset.ground_truth)
        truth = exported.split(0.3, seed=0).train_truth
        model = EMLearner(EMConfig(max_iterations=3)).fit(exported, truth)
        reference = EMLearner(EMConfig(max_iterations=3)).fit(dataset, truth)
        np.testing.assert_allclose(model.accuracies(), reference.accuracies(), atol=1e-10)


class TestDatasetViewFastPath:
    """fit_incremental fits over the encoding itself (no observations() walk)."""

    def test_streaming_refit_uses_fast_path(self, dataset):
        # A periodic re-fit must not materialize the observation list or
        # export a dataset.
        fuser = StreamingFuser(refit_every=60, refit_overrides={"max_iterations": 2})
        walked = []
        original_observations = IncrementalEncoding.observations
        original_to_dataset = IncrementalEncoding.to_dataset

        def _spy_observations(self):
            walked.append("observations")
            return original_observations(self)

        def _spy_to_dataset(self, *args, **kwargs):
            walked.append("to_dataset")
            return original_to_dataset(self, *args, **kwargs)

        IncrementalEncoding.observations = _spy_observations
        IncrementalEncoding.to_dataset = _spy_to_dataset
        try:
            fuser.run(dataset.observations, truth=dataset.split(0.3, seed=0).train_truth)
        finally:
            IncrementalEncoding.observations = original_observations
            IncrementalEncoding.to_dataset = original_to_dataset
        assert fuser.n_refits > 0
        assert not walked
