"""Crowd dataset simulator — CrowdFlower "weather sentiment" (Table 1).

The original task asks 20 crowd workers per tweet to classify the tweet's
weather sentiment into four classes (positive / negative / neutral / not
weather related); 102 workers, 992 tweets, 19,840 judgements, average
worker accuracy ≈ 0.54.  The paper stresses that crowd workers are
genuinely *conditionally independent* — which is why the generative ACCU
baseline is competitive on this dataset — and that the **labor channel** a
worker was hired through predicts their accuracy (Figure 9).

Mechanisms matched here:

* 102 workers, 992 4-valued objects, exactly 20 judgements per object;
* independent workers, avg accuracy 0.54, confusion biased toward
  "neutral" (plausible human error mode);
* features: labor ``channel`` (strongly informative — some channels host
  careless workers), ``country`` (mildly informative), ``city``
  (uninformative), and ``coverage`` (fraction of tweets judged,
  uninformative), reproducing the Figure 9 lasso-path insight.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..fusion.dataset import FusionDataset
from .simulators import (
    SeedLike,
    as_generator,
    claims_dataset,
    draw_claims,
    ensure_truth_claimed,
    feature_driven_accuracies,
    panel_pairs,
)

SENTIMENTS = ["positive", "negative", "neutral", "not_weather"]

#: Labor channels with their accuracy effect (log-odds).
CHANNELS: Dict[str, float] = {
    "clixsense": -0.9,
    "instagc": -0.5,
    "neodev": 0.1,
    "prodege": 0.3,
    "elite": 0.8,
}

COUNTRIES: Dict[str, float] = {
    "USA": 0.3,
    "GBR": 0.2,
    "IND": -0.1,
    "VNM": -0.4,
    "PHL": -0.2,
}

CITIES = ["springfield", "riverton", "fairview", "kingsport", "lakeshore", "midvale"]


def generate_crowd(
    n_workers: int = 102,
    n_objects: int = 992,
    panel_size: int = 20,
    avg_accuracy: float = 0.54,
    neutral_bias: float = 0.5,
    seed: SeedLike = 0,
) -> FusionDataset:
    """Generate the simulated Crowd dataset.

    ``neutral_bias`` is the probability that an erroneous judgement lands
    on "neutral" (when it is not the truth) rather than a uniform wrong
    class.
    """
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
    return claims_dataset(
        claims, worker_ids, object_ids, true_values, source_features, accuracies, "crowd-sim"
    )
