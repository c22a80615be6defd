"""Demonstrations (GDELT) dataset simulator (Table 1 column "Demos").

The original dataset holds GDELT extractions of African demonstration
events (Jan-Apr 2015): 522 online-news sources, 3105 boolean objects ("is
this extracted event real?"), ~27.7k observations, average source accuracy
≈ 0.60.  The paper's headline result on this dataset — SLiMFast beating
independence-assuming baselines by up to 50% — hinges on *source
correlations*: news domains copy stories (and extraction errors) from each
other.

Mechanisms matched here:

* 522 sources / 3105 binary objects / ≈0.017 density / avg accuracy 0.604;
* copying clusters: a configurable fraction of sources are followers that
  replicate a leader's claims (errors included) with high fidelity —
  breaking the conditional-independence assumption of Counts/ACCU;
* 7 Alexa traffic features with informative usage statistics (as in the
  Stocks simulator) driving the *leaders'* accuracies.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from .simulators import (
    SeedLike,
    as_generator,
    claims_dataset,
    draw_claims,
    ensure_truth_claimed,
    feature_driven_accuracies,
    observed_objects,
    quantile_levels,
)

FEATURE_EFFECTS: Dict[str, float] = {
    "Rank": -0.05,
    "CountryRank": -0.03,
    "BounceRate": -0.25,
    "DailyPageViewsPerVisitor": 0.12,
    "DailyTimeOnSite": 0.25,
    "SearchVisits": 0.10,
    "TotalSitesLinkingIn": 0.0,
}

N_LEVELS = 7


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
    observed = observed_objects(rng, n_sources, n_objects, density)
    independent_pairs: List[Tuple[int, int]] = [
        (source, obj)
        for source in range(n_sources)
        if source not in follower_set
        for obj in observed[source].tolist()
    ]
    claims = draw_claims(rng, accuracies, independent_pairs, true_values, wrong_value)

    # Followers replicate their leader (claims *and* errors).  A leader is
    # never a follower, so its claims so far are exactly its independent ones.
    for leader, members in followers_of.items():
        leader_claims = {obj: claims[(leader, obj)] for obj in observed[leader].tolist()}
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
    source_features = {
        source_ids[i]: {name: levels[name][i] for name in FEATURE_EFFECTS}
        for i in range(n_sources)
    }
    return claims_dataset(
        claims, source_ids, object_ids, true_values, source_features, accuracies, "demos-sim"
    )
