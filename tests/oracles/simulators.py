"""Identity oracle for the simulators in :mod:`repro.data`: the generators as
first written, with the whole ``(S, O)`` observation mask drawn at once.

Production draws the Bernoulli mask in row blocks
(:func:`repro.data.simulators.observed_objects`), fixes unclaimed truths with
the shared :func:`repro.data.simulators.ensure_truth_claimed` and builds every
dataset through :func:`repro.data.simulators.claims_dataset`
(:meth:`FusionDataset.from_columns`, no record per claim).  These functions
keep the original forms: the dense ``rng.random((n_sources, n_objects))``
draw, the per-violator claim rescan in :func:`generate`, the per-leader
claim scan of the copying step, and a sorted :class:`Observation` list
handed to the :class:`FusionDataset` constructor.  For every seed and
configuration, production must return datasets equal to these
(``tests/data/test_simulator_identity.py``).

They share the unforked pieces with production: the config and instance
containers, source-accuracy sampling, the per-pair claim draws and the
feature tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.crowd import CHANNELS, CITIES, COUNTRIES, SENTIMENTS
from repro.data.demos import FEATURE_EFFECTS as DEMOS_FEATURE_EFFECTS
from repro.data.demos import N_LEVELS as DEMOS_N_LEVELS
from repro.data.genomics import JOURNAL_TIERS, STUDY_TYPES
from repro.data.simulators import (
    SeedLike,
    as_generator,
    draw_claims,
    ensure_truth_claimed,
    feature_driven_accuracies,
    panel_pairs,
    quantile_levels,
)
from repro.data.stocks import FEATURE_EFFECTS as STOCKS_FEATURE_EFFECTS
from repro.data.stocks import N_LEVELS as STOCKS_N_LEVELS
from repro.data.synthetic import SyntheticConfig, SyntheticInstance, _source_accuracies
from repro.fusion.dataset import FusionDataset
from repro.fusion.types import Observation


def bernoulli_pairs(
    rng: np.random.Generator, n_sources: int, n_objects: int, density: float
) -> List[Tuple[int, int]]:
    """All (source, object) pairs selected i.i.d. with probability ``density``."""
    mask = rng.random((n_sources, n_objects)) < density
    sources, objects = np.nonzero(mask)
    return list(zip(sources.tolist(), objects.tolist()))


def generate(config: Optional[SyntheticConfig] = None, **overrides: object) -> SyntheticInstance:
    """Generate a synthetic fusion instance.

    Either pass a full :class:`SyntheticConfig` or keyword overrides of its
    defaults, e.g. ``generate(density=0.02, avg_accuracy=0.6)``.
    """
    if config is None:
        config = SyntheticConfig(**overrides)
    elif overrides:
        config = SyntheticConfig(**{**config.__dict__, **overrides})
    config.validate()
    rng = as_generator(config.seed)

    accuracies, features, weights = _source_accuracies(config, rng)

    source_ids = [f"s{i}" for i in range(config.n_sources)]
    object_ids = [f"o{j}" for j in range(config.n_objects)]
    lo, hi = config.domain_size_range
    wrong_pool_sizes = rng.integers(lo - 1, hi - 1, size=config.n_objects, endpoint=True)

    # Copying structure: leaders own their followers' claims.
    followers_of: Dict[int, List[int]] = {}
    copy_groups: List[List[str]] = []
    if config.copy_groups:
        chosen = rng.choice(
            config.n_sources,
            size=min(config.copy_groups * config.copy_group_size, config.n_sources),
            replace=False,
        )
        for g in range(config.copy_groups):
            block = chosen[g * config.copy_group_size : (g + 1) * config.copy_group_size]
            if block.size < 2:
                continue
            leader, members = int(block[0]), [int(b) for b in block[1:]]
            followers_of[leader] = members
            copy_groups.append([source_ids[leader]] + [source_ids[m] for m in members])
    follower_set = {m for members in followers_of.values() for m in members}

    claims: Dict[Tuple[int, int], int] = {}

    def draw_claim(source: int, obj: int) -> int:
        if rng.random() < accuracies[source]:
            return 0  # canonical true value
        return int(rng.integers(1, wrong_pool_sizes[obj] + 1))

    # Independent observations.
    observed = rng.random((config.n_sources, config.n_objects)) < config.density
    for source in range(config.n_sources):
        if source in follower_set:
            continue
        for obj in np.nonzero(observed[source])[0]:
            claims[(source, int(obj))] = draw_claim(source, int(obj))

    # Followers: replicate the leader's claims with given fidelity, plus
    # their own independent draws elsewhere.
    for leader, members in followers_of.items():
        leader_claims = {obj: value for (src, obj), value in claims.items() if src == leader}
        for member in members:
            for obj, value in leader_claims.items():
                if rng.random() < config.copy_fidelity:
                    claims[(member, obj)] = value
                else:
                    claims[(member, obj)] = draw_claim(member, obj)
            for obj in np.nonzero(observed[member])[0]:
                key = (member, int(obj))
                if key not in claims:
                    claims[key] = draw_claim(member, int(obj))

    # Coverage guarantee: every object needs min_observations claims.
    per_object: Dict[int, List[int]] = {}
    for (source, obj) in claims:
        per_object.setdefault(obj, []).append(source)
    for obj in range(config.n_objects):
        existing = per_object.get(obj, [])
        while len(existing) < config.min_observations:
            source = int(rng.integers(config.n_sources))
            if (source, obj) in claims:
                if len(existing) >= config.n_sources:
                    break
                continue
            claims[(source, obj)] = draw_claim(source, obj)
            existing.append(source)

    # Single-truth semantics: at least one source must claim the truth.
    if config.ensure_truth_claimed:
        truth_claimed = {obj: False for obj in range(config.n_objects)}
        for (source, obj), value in claims.items():
            if value == 0:
                truth_claimed[obj] = True
        for obj, has_truth in truth_claimed.items():
            if not has_truth:
                holders = [src for (src, o) in claims if o == obj]
                if holders:
                    lucky = holders[int(rng.integers(len(holders)))]
                    claims[(lucky, obj)] = 0

    observations = [
        Observation(source_ids[source], object_ids[obj], f"v{value}")
        for (source, obj), value in sorted(claims.items())
    ]
    ground_truth = {object_ids[obj]: "v0" for obj in range(config.n_objects)}
    source_features = {
        source_ids[i]: {
            f"{config.feature_prefix}{k}": bool(features[i, k])
            for k in range(config.n_features)
        }
        for i in range(config.n_sources)
    }
    true_accuracy_map = {source_ids[i]: float(accuracies[i]) for i in range(config.n_sources)}

    dataset = FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracy_map,
        name=config.name,
    )
    return SyntheticInstance(
        dataset=dataset,
        true_accuracies=accuracies,
        feature_matrix=features,
        feature_weights=weights,
        copy_groups=copy_groups,
    )


def generate_demos(
    n_sources: int = 522,
    n_objects: int = 3105,
    density: float = 0.017,
    avg_accuracy: float = 0.604,
    n_copy_groups: int = 40,
    copy_group_size: int = 6,
    copy_fidelity: float = 0.92,
    seed: SeedLike = 0,
) -> FusionDataset:
    """Generate the simulated Demonstrations dataset.

    Roughly ``n_copy_groups * (copy_group_size - 1)`` sources are followers
    whose claims mirror their leader's — correlated errors included.
    """
    FEATURE_EFFECTS, N_LEVELS = DEMOS_FEATURE_EFFECTS, DEMOS_N_LEVELS
    rng = as_generator(seed)

    raw = {name: rng.lognormal(sigma=1.0, size=n_sources) for name in FEATURE_EFFECTS}
    levels = {name: quantile_levels(values, N_LEVELS) for name, values in raw.items()}
    logits = np.zeros(n_sources)
    for name, effect in FEATURE_EFFECTS.items():
        idx = np.asarray([int(level[1:]) - 1 for level in levels[name]], dtype=float)
        logits += effect * (idx - (N_LEVELS - 1) / 2.0)
    accuracies = feature_driven_accuracies(logits, avg_accuracy, rng, noise_scale=0.25)

    true_values: List[str] = [
        "real" if rng.random() < 0.6 else "spurious" for _ in range(n_objects)
    ]

    def wrong_value(_: np.random.Generator, obj: int) -> str:
        return "spurious" if true_values[obj] == "real" else "real"

    # Copying clusters.
    n_grouped = min(n_copy_groups * copy_group_size, n_sources // 2)
    grouped = rng.choice(n_sources, size=n_grouped, replace=False)
    followers_of: Dict[int, List[int]] = {}
    follower_set = set()
    for g in range(n_copy_groups):
        block = grouped[g * copy_group_size : (g + 1) * copy_group_size]
        if block.size < 2:
            break
        leader = int(block[0])
        members = [int(b) for b in block[1:]]
        followers_of[leader] = members
        follower_set.update(members)

    # Independent sources (leaders included) draw their own claims.
    independent_pairs: List[Tuple[int, int]] = []
    mask = rng.random((n_sources, n_objects)) < density
    for source in range(n_sources):
        if source in follower_set:
            continue
        for obj in np.nonzero(mask[source])[0]:
            independent_pairs.append((source, int(obj)))
    claims = draw_claims(rng, accuracies, independent_pairs, true_values, wrong_value)

    # Followers replicate their leader (claims *and* errors).
    for leader, members in followers_of.items():
        leader_claims = {obj: v for (src, obj), v in claims.items() if src == leader}
        for member in members:
            for obj, value in leader_claims.items():
                if rng.random() < copy_fidelity:
                    claims[(member, obj)] = value
                else:
                    claims[(member, obj)] = (
                        true_values[obj]
                        if rng.random() < accuracies[member]
                        else wrong_value(rng, obj)
                    )

    # Every object needs at least one claim.
    covered = {obj for (_, obj) in claims}
    for obj in range(n_objects):
        if obj in covered:
            continue
        source = int(rng.integers(n_sources))
        value = (true_values[obj] if rng.random() < accuracies[source] else wrong_value(rng, obj))
        claims[(source, obj)] = value
    ensure_truth_claimed(rng, claims, true_values, n_objects)

    source_ids = [f"news-{i}.example.org" for i in range(n_sources)]
    object_ids = [f"event-{obj}" for obj in range(n_objects)]
    observations = [
        Observation(source_ids[source], object_ids[obj], value)
        for (source, obj), value in sorted(claims.items())
    ]
    ground_truth = {object_ids[obj]: true_values[obj] for obj in range(n_objects)}
    source_features = {
        source_ids[i]: {name: levels[name][i] for name in FEATURE_EFFECTS}
        for i in range(n_sources)
    }
    true_accuracy_map = {source_ids[i]: float(accuracies[i]) for i in range(n_sources)}
    return FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracy_map,
        name="demos-sim",
    )


def generate_stocks(
    n_sources: int = 34,
    n_objects: int = 907,
    density: float = 0.998,
    avg_accuracy: float = 0.45,
    n_wrong_values: int = 2,
    stale_bias: float = 0.8,
    hard_fraction: float = 0.10,
    hard_accuracy: float = 0.30,
    seed: SeedLike = 0,
) -> FusionDataset:
    """Generate the simulated Stocks dataset."""
    FEATURE_EFFECTS, N_LEVELS = STOCKS_FEATURE_EFFECTS, STOCKS_N_LEVELS
    rng = as_generator(seed)

    # Raw numeric metadata, then decile discretization.
    raw = {name: rng.lognormal(mean=0.0, sigma=1.0, size=n_sources) for name in FEATURE_EFFECTS}
    levels = {name: quantile_levels(values, N_LEVELS) for name, values in raw.items()}
    level_index = {
        name: np.asarray([int(level[1:]) - 1 for level in levels[name]], dtype=float)
        for name in FEATURE_EFFECTS
    }

    logits = np.zeros(n_sources)
    for name, effect in FEATURE_EFFECTS.items():
        centered = level_index[name] - (N_LEVELS - 1) / 2.0
        logits += effect * centered
    accuracies = feature_driven_accuracies(logits, avg_accuracy, rng, noise_scale=0.2)

    # Values: the truth plus a small pool of shared wrong alternatives per
    # object (feed-lag copies / rounded numbers).
    true_values = [f"volume_{obj}_true" for obj in range(n_objects)]

    def wrong_value(generator: np.random.Generator, obj: int) -> str:
        if n_wrong_values == 1 or generator.random() < stale_bias:
            return f"volume_{obj}_alt0"
        alt = 1 + int(generator.integers(n_wrong_values - 1))
        return f"volume_{obj}_alt{alt}"

    hard = rng.random(n_objects) < hard_fraction
    pairs = bernoulli_pairs(rng, n_sources, n_objects, density)
    claims = {}
    for source, obj in pairs:
        p_correct = hard_accuracy if hard[obj] else accuracies[source]
        if rng.random() < p_correct:
            claims[(source, obj)] = true_values[obj]
        else:
            claims[(source, obj)] = wrong_value(rng, obj)
    ensure_truth_claimed(rng, claims, true_values, n_objects)

    source_ids = [f"stock-site-{i}" for i in range(n_sources)]
    object_ids = [f"stock-{obj}" for obj in range(n_objects)]
    observations = [
        Observation(source_ids[source], object_ids[obj], value)
        for (source, obj), value in sorted(claims.items())
    ]
    ground_truth = {object_ids[obj]: true_values[obj] for obj in range(n_objects)}
    source_features = {
        source_ids[i]: {name: levels[name][i] for name in FEATURE_EFFECTS}
        for i in range(n_sources)
    }
    true_accuracy_map = {source_ids[i]: float(accuracies[i]) for i in range(n_sources)}
    return FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracy_map,
        name="stocks-sim",
    )


def generate_crowd(
    n_workers: int = 102,
    n_objects: int = 992,
    panel_size: int = 20,
    avg_accuracy: float = 0.54,
    neutral_bias: float = 0.5,
    seed: SeedLike = 0,
) -> FusionDataset:
    """Generate the simulated Crowd dataset."""
    rng = as_generator(seed)

    channel_names = list(CHANNELS)
    worker_channel = [
        channel_names[int(rng.integers(len(channel_names)))] for _ in range(n_workers)
    ]
    country_names = list(COUNTRIES)
    worker_country = [
        country_names[int(rng.integers(len(country_names)))] for _ in range(n_workers)
    ]
    worker_city = [CITIES[int(rng.integers(len(CITIES)))] for _ in range(n_workers)]

    logits = np.asarray(
        [CHANNELS[worker_channel[i]] + COUNTRIES[worker_country[i]] for i in range(n_workers)]
    )
    accuracies = feature_driven_accuracies(logits, avg_accuracy, rng, noise_scale=0.25)

    true_values: List[str] = [
        SENTIMENTS[int(rng.integers(len(SENTIMENTS)))] for _ in range(n_objects)
    ]

    def wrong_value(generator: np.random.Generator, obj: int) -> str:
        truth = true_values[obj]
        if truth != "neutral" and generator.random() < neutral_bias:
            return "neutral"
        alternatives = [s for s in SENTIMENTS if s != truth]
        return alternatives[int(generator.integers(len(alternatives)))]

    pairs = panel_pairs(rng, n_workers, n_objects, panel_size)
    claims = draw_claims(rng, accuracies, pairs, true_values, wrong_value)
    ensure_truth_claimed(rng, claims, true_values, n_objects)

    worker_ids = [f"worker-{i}" for i in range(n_workers)]
    object_ids = [f"tweet-{obj}" for obj in range(n_objects)]
    observations = [
        Observation(worker_ids[source], object_ids[obj], value)
        for (source, obj), value in sorted(claims.items())
    ]
    ground_truth = {object_ids[obj]: true_values[obj] for obj in range(n_objects)}

    # Coverage: fraction of tweets each worker judged, bucketed to one
    # decimal exactly like the paper's "coverage=0.2" style features.
    counts = np.zeros(n_workers)
    for (source, _obj) in claims:
        counts[source] += 1
    coverage = np.round(counts / n_objects, 1)

    source_features = {
        worker_ids[i]: {
            "channel": worker_channel[i],
            "country": worker_country[i],
            "city": worker_city[i],
            "coverage": float(coverage[i]),
        }
        for i in range(n_workers)
    }
    true_accuracy_map = {worker_ids[i]: float(accuracies[i]) for i in range(n_workers)}
    return FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracy_map,
        name="crowd-sim",
    )


def generate_genomics(
    n_sources: int = 2750,
    n_objects: int = 571,
    mean_claims_per_source: float = 1.11,
    avg_accuracy: float = 0.62,
    n_authors: int = 1500,
    seed: SeedLike = 0,
) -> FusionDataset:
    """Generate the simulated Genomics dataset."""
    rng = as_generator(seed)

    study = [list(STUDY_TYPES)[int(rng.integers(len(STUDY_TYPES)))] for _ in range(n_sources)]
    journal = [list(JOURNAL_TIERS)[int(rng.integers(len(JOURNAL_TIERS)))] for _ in range(n_sources)]
    citations = rng.lognormal(mean=2.5, sigma=1.2, size=n_sources).astype(int)
    pub_year = rng.integers(1995, 2016, size=n_sources)
    authors = [f"author-{int(rng.integers(n_authors))}" for _ in range(n_sources)]

    citation_effect = 0.25 * (np.log1p(citations) - float(np.mean(np.log1p(citations))))
    year_effect = 0.03 * (pub_year - float(np.mean(pub_year)))
    logits = (
        np.asarray([STUDY_TYPES[s] for s in study])
        + np.asarray([JOURNAL_TIERS[j] for j in journal])
        + citation_effect
        + year_effect
    )
    accuracies = feature_driven_accuracies(logits, avg_accuracy, rng, noise_scale=0.2)

    true_values: List[str] = [
        "positive" if rng.random() < 0.55 else "negative" for _ in range(n_objects)
    ]

    # Sparse claim assignment: each article makes ~1 claim.
    claims: Dict[Tuple[int, int], str] = {}
    for source in range(n_sources):
        n_claims = max(1, int(rng.poisson(mean_claims_per_source)))
        objects = rng.choice(n_objects, size=min(n_claims, n_objects), replace=False)
        for obj in objects:
            obj = int(obj)
            if rng.random() < accuracies[source]:
                claims[(source, obj)] = true_values[obj]
            else:
                claims[(source, obj)] = (
                    "negative" if true_values[obj] == "positive" else "positive"
                )

    # Cover every object (the real dataset keeps only objects with
    # conflicting observations from >= 2 sources, so enforce >= 2 claims).
    per_object: Dict[int, int] = {}
    for (_, obj) in claims:
        per_object[obj] = per_object.get(obj, 0) + 1
    for obj in range(n_objects):
        while per_object.get(obj, 0) < 2:
            source = int(rng.integers(n_sources))
            if (source, obj) in claims:
                continue
            if rng.random() < accuracies[source]:
                claims[(source, obj)] = true_values[obj]
            else:
                claims[(source, obj)] = (
                    "negative" if true_values[obj] == "positive" else "positive"
                )
            per_object[obj] = per_object.get(obj, 0) + 1
    ensure_truth_claimed(rng, claims, true_values, n_objects)

    source_ids = [f"pmid-{100000 + i}" for i in range(n_sources)]
    object_ids = [f"gene-disease-{obj}" for obj in range(n_objects)]
    observations = [
        Observation(source_ids[source], object_ids[obj], value)
        for (source, obj), value in sorted(claims.items())
    ]
    ground_truth = {object_ids[obj]: true_values[obj] for obj in range(n_objects)}
    source_features = {
        source_ids[i]: {
            "journal": journal[i],
            "citations": int(citations[i]),
            "pub_year": int(pub_year[i]),
            "study": study[i],
            "author": authors[i],
        }
        for i in range(n_sources)
    }
    true_accuracy_map = {source_ids[i]: float(accuracies[i]) for i in range(n_sources)}
    return FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracy_map,
        name="genomics-sim",
    )
