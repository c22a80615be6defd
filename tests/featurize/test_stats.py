"""Reliability statistics: hand-checked values, chunk invariance, streaming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurize import (
    RunningSourceStats,
    SourceStats,
    compute_object_stats,
    compute_source_stats,
    compute_source_stats_chunk,
)
from repro.featurize.stats import STAT_ARRAYS
from repro.fusion import FusionDataset, IncrementalEncoding
from repro.fusion.encoding import encode_dataset

# Arrival-ordered observations with every interesting case: a contested
# object (o0), a corroborated uncontested one (o1), and a solo claim (o2).
HAND_OBSERVATIONS = [
    ("s0", "o0", "a"),  # row 0
    ("s1", "o0", "a"),  # row 1
    ("s2", "o0", "b"),  # row 2
    ("s0", "o1", "x"),  # row 3
    ("s2", "o1", "x"),  # row 4
    ("s1", "o2", "p"),  # row 5
]


def _arrays(dataset_or_encoding):
    encoding = encode_dataset(dataset_or_encoding)
    return {name: getattr(encoding, name) for name in STAT_ARRAYS}


def _random_dataset(seed, n_sources, n_objects, domain_size):
    rng = np.random.default_rng(seed)
    observations = []
    for s in range(n_sources):
        claimed = rng.choice(n_objects, size=rng.integers(1, n_objects + 1), replace=False)
        for o in claimed:
            observations.append((f"s{s}", f"o{o}", f"v{rng.integers(0, domain_size)}"))
    rng.shuffle(observations)
    # Duplicate (source, object) pairs are impossible by construction.
    return FusionDataset(observations)


class TestObjectStats:
    def test_hand_computed(self):
        ds = FusionDataset(HAND_OBSERVATIONS)
        obj = compute_object_stats(_arrays(ds))
        assert obj.claims_per_object.tolist() == [3, 2, 1]
        assert obj.domain_sizes.tolist() == [2, 1, 1]
        # o0 votes: a=2, b=1 -> consensus a (code 0)
        assert obj.votes.tolist() == [2, 1, 2, 1]
        assert obj.consensus_code.tolist() == [0, 0, 0]
        h = -(2 / 3 * np.log(2 / 3) + 1 / 3 * np.log(1 / 3)) / np.log(2)
        np.testing.assert_allclose(obj.entropy, [h, 0.0, 0.0])

    def test_consensus_tie_breaks_to_lowest_code(self):
        ds = FusionDataset([("s0", "o", "a"), ("s1", "o", "b")])
        obj = compute_object_stats(_arrays(ds))
        assert obj.consensus_code.tolist() == [0]


class TestSourceStats:
    def test_hand_computed(self):
        ds = FusionDataset(HAND_OBSERVATIONS)
        stats = compute_source_stats(_arrays(ds), ds.n_sources, half_life=3.0)
        assert stats.n_claims.tolist() == [2, 2, 2]
        assert stats.n_solo.tolist() == [0, 1, 0]
        assert stats.n_consensus.tolist() == [2, 2, 1]
        assert stats.n_contradicted.tolist() == [1, 1, 1]
        assert stats.sum_domain.tolist() == [3.0, 3.0, 3.0]
        assert stats.sum_coclaim.tolist() == [3.0, 2.0, 3.0]
        assert stats.sum_agree.tolist() == [2.0, 1.0, 1.0]
        assert stats.sum_row.tolist() == [3.0, 6.0, 6.0]
        assert stats.first_row.tolist() == [0, 1, 2]
        assert stats.last_row.tolist() == [3, 5, 4]
        h = -(2 / 3 * np.log(2 / 3) + 1 / 3 * np.log(1 / 3)) / np.log(2)
        np.testing.assert_allclose(stats.sum_entropy, [h, h, h])
        # s0: rows 0 and 3, last=3, half-life 3 -> 2^-1 + 2^0
        np.testing.assert_allclose(stats.decayed_volume[0], 0.5 + 1.0)
        # s0 agree counts: row 0 (o0=a, votes 2) and row 3 (o1=x, votes 2)
        np.testing.assert_allclose(stats.decayed_agree[0], 0.5 * 1.0 + 1.0 * 1.0)

    def test_empty_source_range(self):
        ds = FusionDataset(HAND_OBSERVATIONS)
        obj = compute_object_stats(_arrays(ds))
        chunk = compute_source_stats_chunk(_arrays(ds), obj, 1, 1)
        assert chunk.n_sources == 0
        assert chunk.n_claims.shape == (0,)

    def test_concat_requires_contiguity(self):
        ds = FusionDataset(HAND_OBSERVATIONS)
        obj = compute_object_stats(_arrays(ds))
        a = compute_source_stats_chunk(_arrays(ds), obj, 0, 1)
        c = compute_source_stats_chunk(_arrays(ds), obj, 2, 3)
        with pytest.raises(ValueError, match="contiguous"):
            SourceStats.concat([a, c])


class TestChunkInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_sources=st.integers(min_value=1, max_value=12),
        n_objects=st.integers(min_value=1, max_value=15),
        domain_size=st.integers(min_value=2, max_value=4),
        n_chunks=st.integers(min_value=2, max_value=8),
    )
    def test_any_chunking_is_bit_identical(self, seed, n_sources, n_objects, domain_size, n_chunks):
        from repro.experiments.parallel import chunk_indices

        ds = _random_dataset(seed, n_sources, n_objects, domain_size)
        arrays = _arrays(ds)
        obj = compute_object_stats(arrays)
        full = compute_source_stats_chunk(arrays, obj, 0, ds.n_sources)
        parts = [
            compute_source_stats_chunk(arrays, obj, c.start, c.stop)
            for c in chunk_indices(ds.n_sources, n_chunks)
            if len(c)
        ]
        glued = SourceStats.concat(parts)
        for name in SourceStats.ARRAY_FIELDS:
            # Bit-for-bit, floats included: no tolerance.
            assert np.array_equal(getattr(full, name), getattr(glued, name)), name

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_deterministic_per_seed(self, seed):
        ds = _random_dataset(seed, 8, 10, 3)
        arrays = _arrays(ds)
        a = compute_source_stats(arrays, ds.n_sources)
        b = compute_source_stats(arrays, ds.n_sources)
        for name in SourceStats.ARRAY_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_process_pool_matches_serial(self):
        # A real ProcessPoolExecutor fan-out (n_jobs=3) must reproduce the
        # serial computation bit-for-bit.
        ds = _random_dataset(7, 12, 30, 3)
        arrays = _arrays(ds)
        serial = compute_source_stats(arrays, ds.n_sources, n_jobs=1)
        parallel = compute_source_stats(arrays, ds.n_sources, n_jobs=3)
        for name in SourceStats.ARRAY_FIELDS:
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name


class TestRunningSourceStats:
    INT_FIELDS = ("n_claims", "n_solo", "n_consensus", "n_contradicted", "first_row", "last_row")
    FLOAT_FIELDS = (
        "sum_domain",
        "sum_coclaim",
        "sum_agree",
        "sum_entropy",
        "sum_row",
        "decayed_volume",
        "decayed_agree",
    )

    def _replay(self, observations, batch_size, half_life=64.0):
        encoding = IncrementalEncoding()
        running = RunningSourceStats(half_life=half_life)
        for i in range(0, len(observations), batch_size):
            batch = encoding.append(observations[i : i + batch_size])
            running.observe(encoding, batch)
        cold = compute_source_stats(_arrays(encoding), encoding.n_sources, half_life=half_life)
        return cold, running.snapshot(encoding.n_objects)

    @pytest.mark.parametrize("batch_size", [1, 2, 6])
    def test_matches_cold_on_hand_example(self, batch_size):
        cold, snap = self._replay(HAND_OBSERVATIONS, batch_size, half_life=3.0)
        for name in self.INT_FIELDS:
            assert np.array_equal(getattr(cold, name), getattr(snap, name)), name
        for name in self.FLOAT_FIELDS:
            np.testing.assert_allclose(
                getattr(snap, name), getattr(cold, name), atol=1e-9, err_msg=name
            )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    def test_matches_cold_on_random_streams(self, seed, batch_size):
        ds = _random_dataset(seed, 6, 12, 3)
        observations = [(o.source, o.obj, o.value) for o in ds.observations]
        cold, snap = self._replay(observations, batch_size)
        for name in self.INT_FIELDS:
            assert np.array_equal(getattr(cold, name), getattr(snap, name)), name
        for name in self.FLOAT_FIELDS:
            np.testing.assert_allclose(
                getattr(snap, name), getattr(cold, name), atol=1e-9, err_msg=name
            )

    def test_empty_batch_is_noop(self):
        encoding = IncrementalEncoding()
        running = RunningSourceStats()
        batch = encoding.append([])
        running.observe(encoding, batch)
        assert running.n_observations == 0
