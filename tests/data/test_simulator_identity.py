"""Every simulator in :mod:`repro.data` returns exactly the oracle's dataset.

The oracle (``tests/oracles/simulators.py``) draws the whole ``(S, O)``
observation mask at once, rescans the claims per unclaimed truth and builds
each dataset from a sorted :class:`Observation` list.  Production draws the
mask in row blocks and builds from id columns; for every seed and
configuration the two must agree with ``==``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    SyntheticConfig,
    generate,
    generate_crowd,
    generate_demos,
    generate_genomics,
    generate_stocks,
)
from repro.data import simulators
from repro.fusion import DatasetError
from tests.oracles import simulators as oracle


def typed(items):
    return [(type(item), item) for item in items]


def assert_same_dataset(got, want):
    assert got.observations == want.observations
    assert typed(got.sources.items) == typed(want.sources.items)
    assert typed(got.objects.items) == typed(want.objects.items)
    assert [typed(domain.items()) for domain in got._domains] == [
        typed(domain.items()) for domain in want._domains
    ]
    for column in ("obs_source_idx", "obs_object_idx", "obs_value_idx"):
        got_codes, want_codes = getattr(got, column), getattr(want, column)
        assert got_codes.dtype == want_codes.dtype
        np.testing.assert_array_equal(got_codes, want_codes)
    assert typed(got.ground_truth.items()) == typed(want.ground_truth.items())
    assert got.source_features == want.source_features
    assert typed(got.true_accuracies.items()) == typed(want.true_accuracies.items())
    assert got.name == want.name


def assert_same_instance(config):
    try:
        want = oracle.generate(config)
    except DatasetError as error:
        with pytest.raises(DatasetError) as raised:
            generate(config)
        assert str(raised.value) == str(error)
        return
    got = generate(config)
    assert_same_dataset(got.dataset, want.dataset)
    np.testing.assert_array_equal(got.true_accuracies, want.true_accuracies)
    np.testing.assert_array_equal(got.feature_matrix, want.feature_matrix)
    np.testing.assert_array_equal(got.feature_weights, want.feature_weights)
    assert got.copy_groups == want.copy_groups


SMALL = dict(n_sources=30, n_objects=40, density=0.1)
CONFIGS = {
    "plain": SMALL,
    "sparse": dict(n_sources=20, n_objects=60, density=0.01),
    "dense": dict(n_sources=12, n_objects=15, density=1.0),
    "copy-groups": dict(SMALL, copy_groups=3, copy_group_size=4, copy_fidelity=0.8),
    "copy-groups-overflow": dict(n_sources=9, n_objects=30, density=0.3, copy_groups=4),
    "min-observations-3": dict(SMALL, density=0.02, min_observations=3),
    "min-observations-7": dict(n_sources=8, n_objects=25, density=0.05, min_observations=7),
    "wide-domains": dict(SMALL, domain_size_range=(2, 9), avg_accuracy=0.3),
    "low-accuracy": dict(SMALL, density=0.05, avg_accuracy=0.1, domain_size_range=(3, 5)),
    "no-truth-fix": dict(SMALL, avg_accuracy=0.2, ensure_truth_claimed=False),
    "bad-density": dict(SMALL, density=0.0),
    "bad-domain-range": dict(SMALL, domain_size_range=(1, 2)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthetic_matches_oracle(name, seed):
    assert_same_instance(SyntheticConfig(**CONFIGS[name], seed=seed))


@pytest.mark.parametrize(
    "production, reference",
    [
        (generate_stocks, oracle.generate_stocks),
        (generate_demos, oracle.generate_demos),
        (generate_crowd, oracle.generate_crowd),
        (generate_genomics, oracle.generate_genomics),
    ],
    ids=["stocks", "demos", "crowd", "genomics"],
)
def test_paper_simulators_match_oracle_at_defaults(production, reference):
    assert_same_dataset(production(seed=0), reference(seed=0))


class TestMaskBlocks:
    """Inputs whose mask spans several row blocks (the tiny ones fit in one)."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    def test_synthetic(self, monkeypatch, rows_per_block, seed):
        config = SyntheticConfig(
            n_sources=31, n_objects=40, density=0.1, copy_groups=2, copy_group_size=4, seed=seed
        )
        monkeypatch.setattr(simulators, "MASK_BLOCK_CELLS", rows_per_block * 40 + 39)
        assert_same_instance(config)

    def test_demos_and_stocks(self, monkeypatch):
        monkeypatch.setattr(simulators, "MASK_BLOCK_CELLS", 4 * 300)
        assert_same_dataset(
            generate_demos(n_sources=61, n_objects=300, density=0.05, seed=4),
            oracle.generate_demos(n_sources=61, n_objects=300, density=0.05, seed=4),
        )
        monkeypatch.setattr(simulators, "MASK_BLOCK_CELLS", 4 * 200)
        assert_same_dataset(
            generate_stocks(n_objects=200, seed=4), oracle.generate_stocks(n_objects=200, seed=4)
        )

    def test_a_row_longer_than_a_block_is_one_block(self, monkeypatch):
        monkeypatch.setattr(simulators, "MASK_BLOCK_CELLS", 10)
        got = simulators.observed_objects(np.random.default_rng(5), 6, 50, 0.2)
        mask = np.random.default_rng(5).random((6, 50)) < 0.2
        assert len(got) == 6
        for source, objects in enumerate(got):
            np.testing.assert_array_equal(objects, np.flatnonzero(mask[source]))


def test_generation_memory_is_bounded_by_the_claims():
    """About 10,500 claims out of 20.25M cells, whose dense draw alone is 154 MiB.

    The peak measured 10.3 MiB, most of it one mask block.  Few ids and
    features keep the traced run short.
    """
    tracemalloc.start()
    try:
        instance = generate(
            n_sources=4500, n_objects=4500, density=0.0005, n_features=2, n_informative=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert instance.dataset.n_observations > 10_000
    assert peak < 32 * 2**20
