"""Shared machinery for the paper-dataset simulators.

The paper evaluates on four proprietary/non-redistributable datasets
(Stocks, Demonstrations, Crowd, Genomics).  Each simulator in this package
generates a synthetic dataset matched to the Table 1 statistics *and* to the
mechanism the paper identifies as driving that dataset's results (e.g.
correlated news sources for Demonstrations, feature-dominated accuracy for
Genomics).  See DESIGN.md section 3 for the substitution rationale.

This module holds the pieces all simulators share: feature-driven accuracy
sampling, observation-noise models, the block-wise Bernoulli observation
mask (:func:`observed_objects`), the single-truth fix
(:func:`ensure_truth_claimed`) and the one way to build a dataset
(:func:`claims_dataset`).  Each costs memory and Python work in proportion
to the claims a simulator emits, never to ``n_sources * n_objects``.  The
seed-normalization helpers
(:data:`SeedLike`, :func:`as_generator`, :func:`spawn_generators`) live in
the leaf module :mod:`repro._rng` and are re-exported here unchanged —
this import path is the stable public one.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .._rng import SeedLike, as_generator, spawn_generators
from ..fusion.dataset import FusionDataset
from ..fusion.types import Value
from ..optim.numerics import logit, sigmoid

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "feature_driven_accuracies",
    "quantile_levels",
    "draw_claims",
    "ensure_truth_claimed",
    "observed_objects",
    "bernoulli_pairs",
    "panel_pairs",
    "claims_dataset",
]

#: Cells of the observation mask drawn at once by :func:`observed_objects`.
MASK_BLOCK_CELLS = 1 << 20


def feature_driven_accuracies(
    logits: np.ndarray,
    target_mean: float,
    rng: np.random.Generator,
    noise_scale: float = 0.3,
    clip: Tuple[float, float] = (0.02, 0.98),
) -> np.ndarray:
    """Turn per-source log-odds contributions into accuracies.

    The feature contributions are centered, a base log-odds matching
    ``target_mean`` is added plus idiosyncratic noise, and the result is
    squashed and re-centered so the empirical mean lands on ``target_mean``.
    """
    centered = logits - float(np.mean(logits))
    base = float(logit(target_mean))
    noise = rng.normal(scale=noise_scale, size=logits.shape[0])
    accuracies = sigmoid(base + centered + noise)
    accuracies = np.clip(accuracies, *clip)
    accuracies = accuracies + (target_mean - float(np.mean(accuracies)))
    return np.clip(accuracies, *clip)


def quantile_levels(values: np.ndarray, n_levels: int, prefix: str = "Q") -> List[str]:
    """Discretize numeric values into ``n_levels`` quantile labels.

    Simulators pre-discretize their numeric metadata (the paper does the
    same with Alexa statistics), so Table 1's "# Feature Values" is a
    controlled quantity.
    """
    edges = np.quantile(values, np.linspace(0, 1, n_levels + 1)[1:-1])
    bins = np.searchsorted(edges, values, side="right")
    return [f"{prefix}{int(b) + 1}" for b in bins]


def draw_claims(
    rng: np.random.Generator,
    accuracies: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    true_values: Sequence[object],
    wrong_value: Callable[[np.random.Generator, int], object],
) -> Dict[Tuple[int, int], object]:
    """Sample a claim per (source, object) pair.

    ``wrong_value(rng, obj)`` supplies an incorrect value for the object
    when the source errs; correctness is Bernoulli(``accuracies[source]``).
    """
    claims: Dict[Tuple[int, int], object] = {}
    for source, obj in pairs:
        if rng.random() < accuracies[source]:
            claims[(source, obj)] = true_values[obj]
        else:
            claims[(source, obj)] = wrong_value(rng, obj)
    return claims


def ensure_truth_claimed(
    rng: np.random.Generator,
    claims: Dict[Tuple[int, int], object],
    true_values: Sequence[object],
    n_objects: int,
) -> None:
    """Enforce single-truth semantics in place.

    Any object whose true value no source claims gets one randomly chosen
    observer flipped to the truth (the paper's datasets satisfy "at least
    one source provides the correct value" by construction).
    """
    holders: Dict[int, List[int]] = {}
    has_truth = [False] * n_objects
    for (source, obj), value in claims.items():
        holders.setdefault(obj, []).append(source)
        if value == true_values[obj]:
            has_truth[obj] = True
    for obj in range(n_objects):
        if has_truth[obj] or obj not in holders:
            continue
        lucky = holders[obj][int(rng.integers(len(holders[obj])))]
        claims[(lucky, obj)] = true_values[obj]


def observed_objects(
    rng: np.random.Generator, n_sources: int, n_objects: int, density: float
) -> List[np.ndarray]:
    """Each source's observed object indices, each object observed with probability ``density``.

    Source ``s`` observes object ``o`` when cell ``(s, o)`` of one
    ``rng.random((n_sources, n_objects))`` draw is below ``density``.  The
    draw is made in row blocks of at most :data:`MASK_BLOCK_CELLS` cells
    (one row when a row is longer), which consume the same values in the
    same order, so only one block and the observed indices are ever held.
    """
    rows_per_block = max(1, MASK_BLOCK_CELLS // n_objects)
    observed: List[np.ndarray] = []
    for start in range(0, n_sources, rows_per_block):
        n_rows = min(rows_per_block, n_sources - start)
        rows, objects = np.nonzero(rng.random((n_rows, n_objects)) < density)
        observed.extend(np.split(objects, np.searchsorted(rows, np.arange(1, n_rows))))
    return observed


def bernoulli_pairs(
    rng: np.random.Generator, n_sources: int, n_objects: int, density: float
) -> List[Tuple[int, int]]:
    """All (source, object) pairs of :func:`observed_objects`, in row-major order."""
    observed = observed_objects(rng, n_sources, n_objects, density)
    return [(source, obj) for source, objects in enumerate(observed) for obj in objects.tolist()]


def panel_pairs(
    rng: np.random.Generator, n_sources: int, n_objects: int, panel_size: int
) -> List[Tuple[int, int]]:
    """Each object observed by a uniform random panel of ``panel_size`` sources.

    Used by the Crowd simulator (every tweet is labeled by exactly 20
    workers in the original dataset).
    """
    pairs: List[Tuple[int, int]] = []
    for obj in range(n_objects):
        panel = rng.choice(n_sources, size=min(panel_size, n_sources), replace=False)
        pairs.extend((int(source), obj) for source in panel)
    return pairs


def claims_dataset(
    claims: Mapping[Tuple[int, int], Value],
    source_ids: Sequence[str],
    object_ids: Sequence[str],
    true_values: Sequence[Value],
    source_features: Mapping[str, Mapping[str, object]],
    true_accuracies: np.ndarray,
    name: str,
) -> FusionDataset:
    """The dataset of a simulator's ``(source, obj) -> value`` claims, keyed by index.

    Rows are the claims sorted by ``(source, obj)``, handed to
    :meth:`FusionDataset.from_columns` as id columns (no record per
    claim).  Object ``obj``'s ground truth is ``true_values[obj]`` and
    source ``i``'s true accuracy ``true_accuracies[i]``.
    """
    n = len(claims)
    pairs = np.fromiter(chain.from_iterable(claims), dtype=np.int64, count=2 * n).reshape(n, 2)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    sources, objects = pairs[order].T
    values = list(claims.values())
    return FusionDataset.from_columns(
        np.asarray(source_ids, dtype=object)[sources].tolist(),
        np.asarray(object_ids, dtype=object)[objects].tolist(),
        [values[row] for row in order.tolist()],
        ground_truth=dict(zip(object_ids, true_values)),
        source_features=source_features,
        true_accuracies=dict(zip(source_ids, true_accuracies.tolist())),
        name=name,
    )
