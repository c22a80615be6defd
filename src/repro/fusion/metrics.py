"""Evaluation metrics (paper Section 5.1, "Evaluation Methodology").

Two primary metrics:

* **Accuracy for true object values** — fraction of test objects whose
  estimated value matches the ground truth.
* **Error for estimated source accuracies** — weighted average of per-source
  absolute accuracy-estimation error, weighted by the number of observations
  each source provides (so a bad estimate for a prolific source is penalized
  more, matching Li et al.'s weighting scheme the paper adopts).

The module also provides the Bernoulli KL divergence used in Theorem 3 and
binary entropy used by the optimizer's information-units model.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

import numpy as np

from .dataset import FusionDataset
from .types import ObjectId, SourceId, Value

_EPS = 1e-12


def object_value_accuracy(
    predictions: Mapping[ObjectId, Value],
    truth: Mapping[ObjectId, Value],
    objects: Optional[Iterable[ObjectId]] = None,
) -> float:
    """Fraction of objects whose predicted value equals the true value.

    Parameters
    ----------
    predictions:
        Estimated true values ``v_o``.
    truth:
        Ground-truth values ``v*_o``.
    objects:
        The evaluation population (usually the test split).  Defaults to all
        objects in ``truth``.  Objects without a prediction count as wrong,
        matching the paper's accounting (every test object must be resolved).
    """
    population = list(objects) if objects is not None else list(truth)
    if not population:
        return float("nan")
    correct = sum(1 for obj in population if obj in truth and predictions.get(obj) == truth[obj])
    return correct / len(population)


def value_accuracy_from_codes(
    predicted_codes: np.ndarray,
    truth_codes: np.ndarray,
    positions: np.ndarray,
    extra_correct: int = 0,
) -> float:
    """Accuracy over ``positions`` from within-domain value codes.

    The array-native counterpart of :func:`object_value_accuracy` used by
    array-backed :class:`~repro.fusion.result.FusionResult` instances:
    ``predicted_codes`` / ``truth_codes`` are per-object value codes (-1 =
    no in-domain value), ``positions`` the evaluation population as object
    indices.  ``extra_correct`` credits matches resolved outside the code
    space (out-of-domain overrides compared as values by the caller).
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return float("nan")
    predicted = predicted_codes[positions]
    matched = (predicted >= 0) & (predicted == truth_codes[positions])
    return (int(np.count_nonzero(matched)) + extra_correct) / positions.size


def source_accuracy_error(
    estimated: Mapping[SourceId, float],
    true: Mapping[SourceId, float],
    observation_counts: Mapping[SourceId, int],
) -> float:
    """Observation-weighted mean absolute error of source-accuracy estimates.

    Sources present in ``true`` but absent from ``estimated`` are skipped —
    a method is only scored on the sources it produced estimates for (all
    methods under comparison estimate every source that has observations).
    """
    num = 0.0
    den = 0.0
    for source, true_acc in true.items():
        if source not in estimated:
            continue
        weight = float(observation_counts.get(source, 0))
        if weight <= 0:
            continue
        num += weight * abs(float(estimated[source]) - float(true_acc))
        den += weight
    if den == 0:
        return float("nan")
    return num / den


def dataset_source_accuracy_error(
    dataset: FusionDataset,
    estimated: Mapping[SourceId, float],
    true: Optional[Mapping[SourceId, float]] = None,
) -> float:
    """Source-accuracy error against a dataset's empirical true accuracies.

    ``true`` defaults to the empirical per-source accuracies computed from
    the dataset's full ground truth, which is how the paper defines the
    reference accuracies ("computed using all ground truth data").
    """
    reference = dict(true) if true is not None else dataset.empirical_accuracies()
    counts = dataset.source_observation_counts()
    count_map: Dict[SourceId, int] = {
        source: int(counts[dataset.sources.index(source)]) for source in dataset.sources
    }
    return source_accuracy_error(estimated, reference, count_map)


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence ``KL(Bern(p) || Bern(q))`` with clamping for stability."""
    p = min(max(float(p), _EPS), 1.0 - _EPS)
    q = min(max(float(q), _EPS), 1.0 - _EPS)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def mean_accuracy_kl(estimated: Mapping[SourceId, float], true: Mapping[SourceId, float]) -> float:
    """Average ``KL(A_s || A*_s)`` over sources, the Theorem 3 quantity."""
    divergences = [
        bernoulli_kl(estimated[source], true_acc)
        for source, true_acc in true.items()
        if source in estimated
    ]
    if not divergences:
        return float("nan")
    return float(np.mean(divergences))


def binary_entropy(p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Entropy (bits) of a Bernoulli(p) variable; 0 at the endpoints.

    Elementwise over an array ``p`` (returns an array); a scalar ``p``
    returns a float.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    entropy = np.where((p <= 0.0) | (p >= 1.0), 0.0, entropy)
    return float(entropy) if entropy.ndim == 0 else entropy


def log_loss(
    posteriors: Mapping[ObjectId, Mapping[Value, float]],
    truth: Mapping[ObjectId, Value],
    objects: Optional[Iterable[ObjectId]] = None,
) -> float:
    """Mean negative log posterior assigned to the true value.

    This is the object-level log-loss ``L(w)`` of Theorem 1, estimated on a
    sample.  Objects whose true value received zero posterior mass are
    clamped to ``_EPS`` rather than producing infinities.
    """
    population = list(objects) if objects is not None else list(truth)
    losses = []
    for obj in population:
        if obj not in truth or obj not in posteriors:
            continue
        prob = float(posteriors[obj].get(truth[obj], 0.0))
        losses.append(-np.log(max(prob, _EPS)))
    if not losses:
        return float("nan")
    return float(np.mean(losses))
