"""Synthetic fusion-instance generator (paper Example 6 / Figure 4).

Generates datasets with controllable:

* number of sources / objects and observation **density** (probability that
  a source observes an object — the paper's ``p``);
* **average source accuracy** and its spread;
* **domain-feature informativeness**: accuracies are driven by a linear
  model over binary source features, so domain features genuinely predict
  accuracy (the mechanism SLiMFast exploits);
* **domain size** per object (binary by default, multi-valued supported);
* **copying groups**: clusters of sources that replicate a leader's claims
  with high fidelity, creating the correlated-error structure that breaks
  conditional-independence baselines (used by the Demonstrations
  simulator and the Appendix D experiment).

All randomness flows through a single seeded generator, so datasets are
reproducible and every experiment can average over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.types import DatasetError
from ..optim.numerics import sigmoid
from .simulators import (
    SeedLike,
    as_generator,
    claims_dataset,
    ensure_truth_claimed,
    observed_objects,
)


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic generator.

    Attributes
    ----------
    n_sources, n_objects:
        Instance size (paper Example 6 uses 1000 x 1000).
    density:
        Probability a source observes any given object.
    avg_accuracy, accuracy_spread:
        Mean and dispersion of true source accuracies.
    n_features, n_informative, feature_strength:
        Binary feature count, how many actually drive accuracy, and how
        strongly (log-odds units per active informative feature).
    domain_size_range:
        Inclusive (lo, hi) range of wrong-value pool sizes per object; the
        claimed domain an object ends up with depends on which values get
        sampled.
    copy_groups, copy_group_size, copy_fidelity:
        Copying structure: ``copy_groups`` leaders each have
        ``copy_group_size - 1`` followers replicating their claims with
        probability ``copy_fidelity`` (in [0, 1]).
    ensure_truth_claimed:
        Enforce single-truth semantics (at least one source provides the
        true value) by flipping one claim per violating object.
    min_observations:
        Guarantee every object receives at least this many observations
        (at least 1: an object nobody claims cannot be in the dataset).
    """

    n_sources: int = 1000
    n_objects: int = 1000
    density: float = 0.01
    avg_accuracy: float = 0.7
    accuracy_spread: float = 0.1
    n_features: int = 10
    n_informative: int = 5
    feature_strength: float = 1.0
    domain_size_range: Tuple[int, int] = (2, 2)
    copy_groups: int = 0
    copy_group_size: int = 5
    copy_fidelity: float = 0.9
    ensure_truth_claimed: bool = True
    min_observations: int = 1
    feature_prefix: str = "f"
    name: str = "synthetic"
    seed: SeedLike = 0

    def validate(self) -> None:
        if self.n_sources < 1 or self.n_objects < 1:
            raise DatasetError("n_sources and n_objects must be positive")
        if not 0.0 < self.density <= 1.0:
            raise DatasetError("density must be in (0, 1]")
        if not 0.0 < self.avg_accuracy < 1.0:
            raise DatasetError("avg_accuracy must be in (0, 1)")
        if self.domain_size_range[0] < 2 or self.domain_size_range[1] < self.domain_size_range[0]:
            raise DatasetError("domain_size_range must be (lo >= 2, hi >= lo)")
        if self.n_informative > self.n_features:
            raise DatasetError("n_informative cannot exceed n_features")
        if self.min_observations < 1:
            raise DatasetError(
                f"min_observations must be at least 1 (got {self.min_observations}): "
                "every object needs a claim to be in the dataset"
            )
        if not 0.0 <= self.copy_fidelity <= 1.0:
            raise DatasetError(f"copy_fidelity must be in [0, 1] (got {self.copy_fidelity})")


@dataclass
class SyntheticInstance:
    """A generated dataset plus the latent quantities that produced it."""

    dataset: FusionDataset
    true_accuracies: np.ndarray
    feature_matrix: np.ndarray
    feature_weights: np.ndarray
    copy_groups: List[List[str]] = field(default_factory=list)


def _source_accuracies(config: SyntheticConfig, rng: np.random.Generator) -> Tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Draw binary features and feature-driven accuracies."""
    features = (rng.random((config.n_sources, config.n_features)) < 0.5).astype(float)
    weights = np.zeros(config.n_features)
    if config.n_informative:
        signs = rng.choice([-1.0, 1.0], size=config.n_informative)
        weights[: config.n_informative] = signs * config.feature_strength
    score = features @ weights
    if score.std() > 0:
        score = (score - score.mean()) / score.std()
    noise = rng.normal(scale=0.5, size=config.n_sources)
    logits = float(np.log(config.avg_accuracy / (1.0 - config.avg_accuracy)))
    spread_scale = 4.0 * config.accuracy_spread  # spread in probability units
    accuracies = sigmoid(logits + spread_scale * score + 0.3 * noise)
    accuracies = np.clip(accuracies, 0.02, 0.98)
    # Re-center the mean exactly on avg_accuracy.
    accuracies += config.avg_accuracy - float(accuracies.mean())
    return np.clip(accuracies, 0.02, 0.98), features, weights


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

    claims: Dict[Tuple[int, int], str] = {}
    labels = [f"v{k}" for k in range(hi)]  # "v0" is every object's true value

    def draw_claim(source: int, obj: int) -> str:
        if rng.random() < accuracies[source]:
            return labels[0]
        return labels[int(rng.integers(1, wrong_pool_sizes[obj] + 1))]

    # Independent observations.
    observed = observed_objects(rng, config.n_sources, config.n_objects, config.density)
    for source in range(config.n_sources):
        if source in follower_set:
            continue
        for obj in observed[source].tolist():
            claims[(source, obj)] = draw_claim(source, obj)

    # Followers: replicate the leader's claims with given fidelity, plus
    # their own independent draws elsewhere.  A leader is never a follower,
    # so its claims so far are exactly its independent ones.
    for leader, members in followers_of.items():
        leader_claims = {obj: claims[(leader, obj)] for obj in observed[leader].tolist()}
        for member in members:
            for obj, value in leader_claims.items():
                if rng.random() < config.copy_fidelity:
                    claims[(member, obj)] = value
                else:
                    claims[(member, obj)] = draw_claim(member, obj)
            for obj in observed[member].tolist():
                key = (member, obj)
                if key not in claims:
                    claims[key] = draw_claim(member, obj)

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
    true_values = [labels[0]] * config.n_objects
    if config.ensure_truth_claimed:
        ensure_truth_claimed(rng, claims, true_values, config.n_objects)

    source_features = {
        source_ids[i]: {
            f"{config.feature_prefix}{k}": bool(features[i, k])
            for k in range(config.n_features)
        }
        for i in range(config.n_sources)
    }
    return SyntheticInstance(
        dataset=claims_dataset(
            claims, source_ids, object_ids, true_values, source_features, accuracies, config.name
        ),
        true_accuracies=accuracies,
        feature_matrix=features,
        feature_weights=weights,
        copy_groups=copy_groups,
    )
