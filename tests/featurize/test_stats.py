"""Reliability statistics: hand-checked values, determinism, streaming."""

from types import MethodType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.featurize import (
    RunningSourceStats,
    SourceStats,
    compute_object_stats,
    compute_source_stats,
)
from repro.featurize.stats import STAT_ARRAYS
from repro.fusion import FusionDataset, IncrementalEncoding
from repro.fusion.encoding import encode_dataset
from tests.oracles import stats as oracle_stats

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


class TestChunkInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_deterministic_per_seed(self, seed):
        ds = _random_dataset(seed, 8, 10, 3)
        arrays = _arrays(ds)
        a = compute_source_stats(arrays, ds.n_sources)
        b = compute_source_stats(arrays, ds.n_sources)
        for name in SourceStats.ARRAY_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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


def _claim_stream(seed, n_rows, n_sources, n_objects, max_domain):
    """Up to ``n_rows`` claims on distinct random (source, object) pairs."""
    rng = np.random.default_rng(seed)
    n_pairs = n_sources * n_objects
    pairs = rng.choice(n_pairs, size=min(n_rows, n_pairs), replace=False).tolist()
    values = rng.integers(0, max_domain, size=len(pairs)).tolist()
    return [(f"s{p // n_objects}", f"o{p % n_objects}", v) for p, v in zip(pairs, values)]


class TestRunningStatsOracle:
    """Distinct-source reductions vs the full-source-range ``observe``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch_sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
        n_sources=st.integers(1, 600),
        n_objects=st.integers(1, 200),
        max_domain=st.integers(1, 6),
        half_life=st.sampled_from([1.0, 3.0, 64.0, 256.0]),
    )
    # Many known sources, then size-1 batches that touch one of them.
    @example(
        seed=0,
        batch_sizes=[300, 300, 1, 1, 1, 2, 300],
        n_sources=600,
        n_objects=20,
        max_domain=4,
        half_life=3.0,
    )
    def test_accumulators_match_after_every_batch(
        self, seed, batch_sizes, n_sources, n_objects, max_domain, half_life
    ):
        stream = _claim_stream(seed, sum(batch_sizes), n_sources, n_objects, max_domain)
        encoding = IncrementalEncoding()
        running = RunningSourceStats(half_life=half_life)
        reference = RunningSourceStats(half_life=half_life)
        reference.observe = MethodType(oracle_stats.observe_running_stats, reference)
        start = 0
        for size in batch_sizes:
            batch = encoding.append(stream[start : start + size])
            start += size
            running.observe(encoding, batch)
            reference.observe(encoding, batch)
            assert running.n_observations == reference.n_observations
            assert running._n_sources == reference._n_sources
            for name in SourceStats.ARRAY_FIELDS:
                np.testing.assert_array_equal(
                    getattr(running, name), getattr(reference, name), err_msg=name
                )
