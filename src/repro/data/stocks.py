"""Stocks dataset simulator (paper Section 5.1, Table 1 column "Stocks").

The original dataset [24] has 34 web sources reporting July-2011 stock
*volumes* for 907 stock-day objects — nearly dense (an observation for
almost every source/object pair), with average source accuracy **below
0.5**: most sources report slightly differing volumes, yet the correct
value is still recoverable because the erroneous values scatter over a
small pool of popular alternatives (feed-lag copies, rounded figures).

Mechanisms matched here:

* ~0.998 density, 34 sources, 907 objects (Table 1);
* average accuracy ≈ 0.45 with wrong claims drawn from two shared
  per-object alternatives, so conflicts have small claimed domains;
* 7 Alexa-style traffic features discretized to deciles (70 feature
  values).  Bounce rate and daily-time-on-site carry real signal, while
  ``TotalSitesLinkingIn`` (the PageRank proxy) is deliberately
  *uninformative* — reproducing the paper's Figure 6 insight that
  PageRank does not predict web-source accuracy.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..fusion.dataset import FusionDataset
from .simulators import (
    SeedLike,
    as_generator,
    bernoulli_pairs,
    claims_dataset,
    ensure_truth_claimed,
    feature_driven_accuracies,
    quantile_levels,
)

#: Feature name -> log-odds effect per decile step (0 = uninformative).
FEATURE_EFFECTS: Dict[str, float] = {
    "Rank": -0.05,
    "CountryRank": -0.04,
    "BounceRate": -0.30,
    "DailyPageViewsPerVisitor": 0.10,
    "DailyTimeOnSite": 0.30,
    "SearchVisits": 0.08,
    "TotalSitesLinkingIn": 0.0,  # the PageRank proxy: no signal (Figure 6)
}

N_LEVELS = 10


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
    """Generate the simulated Stocks dataset.

    ``stale_bias`` is the probability that an erroneous report lands on the
    object's *stale* shared value (alternative 0) rather than a uniform
    other alternative: real stock-volume errors concentrate on a lagged
    figure that many feeds replicate, which is what makes the dataset hard
    (the popular wrong value rivals the truth in vote count).

    A ``hard_fraction`` of objects is irreducibly hard (e.g. volumes around
    a split or trading halt): every source's per-claim accuracy on them
    drops to ``hard_accuracy`` uniformly, so no weighting scheme can fully
    resolve them — capping the best achievable accuracy below 1.0, as in
    the real dataset.

    Parameters mirror Table 1; reduce ``n_objects`` for faster tests.
    """
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
    source_features = {
        source_ids[i]: {name: levels[name][i] for name in FEATURE_EFFECTS}
        for i in range(n_sources)
    }
    return claims_dataset(
        claims, source_ids, object_ids, true_values, source_features, accuracies, "stocks-sim"
    )
