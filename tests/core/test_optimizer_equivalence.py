"""The array optimizer path equals the per-object loops bit for bit.

The agreement counts, the average domain size, the EM information units
and the whole :class:`~repro.core.optimizer.OptimizerDecision` are
compared with ``==`` against :mod:`tests.oracles.optimizer`, on datasets
that cover multi-valued domains, singleton and unanimous objects, and a
hub object whose source pairs span many :data:`PAIR_CHUNK` chunks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import agreement, optimizer
from repro.core.copying import find_candidate_pairs
from repro.data import SyntheticConfig, generate
from repro.fusion import FusionDataset
from repro.fusion.encoding import encode_dataset, expand_spans
from tests.oracles import optimizer as oracle

#: Chunk size for the second hub run: far below the hub's pair count, so
#: chunk boundaries fall inside one object.
SMALL_CHUNK = 1_000


def perfbench_shape() -> FusionDataset:
    """The benchmark's generator shape, at its test size."""
    return generate(
        seed=0,
        name="perfbench",
        n_sources=100,
        n_objects=600,
        density=0.05,
        domain_size_range=(2, 4),
    ).dataset


def multi_valued() -> FusionDataset:
    return generate(
        SyntheticConfig(
            n_sources=40,
            n_objects=150,
            density=0.2,
            avg_accuracy=0.6,
            domain_size_range=(3, 5),
            seed=11,
            name="multi-valued",
        )
    ).dataset


def singletons_and_unanimous() -> FusionDataset:
    """Conflicted objects plus singleton, unanimous and isolated-source
    objects, with the observations of every object interleaved."""
    base = generate(n_sources=30, n_objects=60, density=0.15, seed=5).dataset
    observations = [(obs.source, obs.obj, obs.value) for obs in base.observations]
    observations += [(f"s{i % 30}", f"single{i}", "x") for i in range(20)]
    observations += [(f"lonely{i}", f"alone{i}", "y") for i in range(5)]
    observations += [
        (f"s{(3 * i + k) % 30}", f"unan{i}", "same") for i in range(15) for k in range(4)
    ]
    order = np.random.default_rng(0).permutation(len(observations))
    return FusionDataset(
        [observations[i] for i in order], ground_truth=base.ground_truth, name="edges"
    )


def hub_and_tail(n_tail: int = 1_500, hub_domain: int = 300, obs_per_tail: int = 3):
    """One object claimed (distinctly) by every source, plus a narrow tail."""
    rng = np.random.default_rng(11)
    sources = [f"s{i}" for i in range(hub_domain)]
    observations = [(sources[v], "hub", f"hub-v{v}") for v in range(hub_domain)]
    truth = {"hub": "hub-v0"}
    base_source = rng.integers(0, hub_domain, size=n_tail)
    truth_codes = rng.integers(0, 3, size=n_tail)
    correct = rng.random((n_tail, obs_per_tail)) < 0.7
    noise = rng.integers(0, 3, size=(n_tail, obs_per_tail))
    for o in range(n_tail):
        truth[f"o{o}"] = f"v{truth_codes[o]}"
        for j in range(obs_per_tail):
            code = truth_codes[o] if correct[o, j] else noise[o, j]
            source = sources[(base_source[o] + j) % hub_domain]
            observations.append((source, f"o{o}", f"v{code}"))
    return FusionDataset(observations, ground_truth=truth, name="hub-and-tail")


BUILDERS = {
    "perfbench-shape": perfbench_shape,
    "multi-valued": multi_valued,
    "singletons-unanimous": singletons_and_unanimous,
    "hub-and-tail": hub_and_tail,
}
CASES = [(name, None) for name in BUILDERS] + [("hub-and-tail", SMALL_CHUNK)]


@pytest.fixture(scope="module")
def datasets():
    return {}


@pytest.fixture(params=CASES, ids=lambda case: case[0] + ("-chunked" if case[1] else ""))
def dataset(request, datasets, monkeypatch):
    name, chunk = request.param
    if name not in datasets:
        datasets[name] = BUILDERS[name]()
    if chunk is not None:
        monkeypatch.setattr(agreement, "PAIR_CHUNK", chunk)
    return datasets[name]


def _fields(decision) -> tuple:
    """Decision fields with ``nan`` made comparable by ``==``."""
    return tuple(
        "nan" if isinstance(value, float) and math.isnan(value) else value
        for value in vars(decision).values()
    )


def test_chunks_hold_at_most_pair_chunk_pairs(monkeypatch):
    chunk_sizes = []

    def recording_expand_spans(starts, lengths):
        chunk_sizes.append(int(np.sum(lengths)))
        return expand_spans(starts, lengths)

    monkeypatch.setattr(agreement, "PAIR_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(agreement, "expand_spans", recording_expand_spans)
    dataset = hub_and_tail()
    agreement.agreement_matrix(dataset)
    counts = np.diff(encode_dataset(dataset).obs_offsets)
    m = int(counts[dataset.objects.index("hub")])
    hub_pairs = m * (m - 1) // 2
    assert hub_pairs > 40 * SMALL_CHUNK  # chunk boundaries fall inside the hub
    assert sum(chunk_sizes) == int(np.sum(counts * (counts - 1) // 2))
    assert max(chunk_sizes) <= SMALL_CHUNK
    assert len(chunk_sizes) >= hub_pairs // SMALL_CHUNK


@pytest.mark.parametrize("min_overlap", [1, 2, 3])
@pytest.mark.parametrize("method", ["paper", "domain-corrected"])
def test_estimate_average_accuracy(dataset, method, min_overlap):
    production = agreement.estimate_average_accuracy(dataset, min_overlap, method)
    assert production == oracle.estimate_average_accuracy(dataset, min_overlap, method)


def test_agreement_matrix(dataset):
    production = agreement.agreement_matrix(dataset, min_overlap=2)
    reference = oracle.agreement_matrix(dataset, min_overlap=2)
    assert np.array_equal(production.scores, reference.scores, equal_nan=True)
    assert np.array_equal(production.overlaps, reference.overlaps, equal_nan=True)


def test_average_domain_size(dataset):
    assert agreement.average_domain_size(dataset) == oracle.average_domain_size(dataset)


@pytest.mark.parametrize("avg_accuracy", [0.55, 0.8])
@pytest.mark.parametrize("per_observation", [False, True])
@pytest.mark.parametrize("vote_threshold", ["majority", "paper"])
def test_em_information_units(dataset, vote_threshold, per_observation, avg_accuracy):
    args = (dataset, avg_accuracy, per_observation, vote_threshold)
    assert optimizer.em_information_units(*args) == oracle.em_information_units(*args)


@pytest.mark.parametrize(
    "variant",
    [
        dict(tau=1e9, n_features=1),  # the Theorem-1 bound fires
        dict(tau=0.0, n_features=4),
        dict(tau=0.0, n_features=4, per_observation=True, vote_threshold="paper"),
        dict(tau=0.0, n_features=4, accuracy_method="paper"),
    ],
    ids=["bound", "units", "units-per-observation-paper", "units-paper-accuracy"],
)
def test_decision(dataset, variant):
    truth = {
        **dataset.split(0.1, seed=0).train_truth,
        **{f"unobserved{i}": "v0" for i in range(7)},
    }
    production = optimizer.decide(dataset, truth, **variant)
    reference = oracle.decide(dataset, truth, **variant)
    assert production.reason == ("bound" if variant["tau"] else "units")
    assert _fields(production) == _fields(reference)


def test_copying_candidates_unchanged(dataset, monkeypatch):
    # find_candidate_pairs keeps its own pair loop; only its base rate
    # reads the agreement estimate and the average domain size.
    production = find_candidate_pairs(dataset, min_overlap=2, max_pairs=50)
    monkeypatch.setattr(agreement, "estimate_average_accuracy", oracle.estimate_average_accuracy)
    monkeypatch.setattr(agreement, "average_domain_size", oracle.average_domain_size)
    assert find_candidate_pairs(dataset, min_overlap=2, max_pairs=50) == production
