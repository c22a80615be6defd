"""Genomics (GAD) dataset simulator (Table 1 column "Genomics").

The original dataset, from the Genetic Association Database, contains
gene-disease association claims extracted from scientific articles: 2750
article sources but only 3052 observations — **1.11 observations per
source** — over 571 conflicted boolean objects.  With that extreme
sparsity, per-source conflict signal is essentially nonexistent; Table 1
cannot even report an average source accuracy.  Domain features (journal,
citation count, publication year, study design) carry nearly all usable
signal, which is why SLiMFast's improvement is largest here (Table 2:
0.720 vs ≈ 0.60 for the best baseline at 20% training data).

Mechanisms matched here:

* 2750 sources with Poisson(1.11)-ish claim counts (minimum 1), 571
  binary objects, ≈ 3k observations;
* accuracy determined almost entirely by features: study type
  (knockout ≫ GWAS, matching the expert intuition of Example 1), journal
  tier, citation count and recency;
* a long-tailed ``author`` feature with thousands of values that is
  *uninformative* — the L1-regularization story (Theorem 2's sparse bound)
  depends on surviving such features.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from .simulators import (
    SeedLike,
    as_generator,
    claims_dataset,
    ensure_truth_claimed,
    feature_driven_accuracies,
)

STUDY_TYPES: Dict[str, float] = {
    "knockout": 0.9,
    "case-control": 0.2,
    "meta-analysis": 0.5,
    "GWAS": -0.7,
}

JOURNAL_TIERS: Dict[str, float] = {
    "tier1": 0.8,
    "tier2": 0.3,
    "tier3": -0.2,
    "tier4": -0.6,
}


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
    return claims_dataset(
        claims, source_ids, object_ids, true_values, source_features, accuracies, "genomics-sim"
    )
