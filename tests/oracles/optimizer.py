"""Loop oracle for :mod:`repro.core.agreement` and :mod:`repro.core.optimizer`:
the agreement matrix, the average domain size and the EM information units
computed object by object, as first written.

The rows of each object come from walking the dataset's observations, not
from its row accessors: those read the encoding the production path reads.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np
from scipy import stats

from repro.core.agreement import AgreementMatrix, _solve_domain_corrected
from repro.core.guarantees import erm_generalization_bound
from repro.core.optimizer import OptimizerDecision
from repro.fusion.dataset import FusionDataset
from repro.fusion.types import ObjectId, Value


def _object_rows(dataset: FusionDataset) -> List[np.ndarray]:
    """Ascending observation rows per object index."""
    rows_of: Dict[int, List[int]] = {}
    for row, obs in enumerate(dataset.observations):
        rows_of.setdefault(dataset.objects.index(obs.obj), []).append(row)
    return [
        np.asarray(rows_of.get(o_idx, []), dtype=np.int64) for o_idx in range(dataset.n_objects)
    ]


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def agreement_matrix(dataset: FusionDataset, min_overlap: int = 1) -> AgreementMatrix:
    """Pairwise agreement matrix from one walk over every object's pairs."""
    n = dataset.n_sources
    agree = np.zeros((n, n))
    overlap = np.zeros((n, n))
    for rows in _object_rows(dataset):
        if rows.shape[0] < 2:
            continue
        sources = dataset.obs_source_idx[rows]
        values = dataset.obs_value_idx[rows]
        same = values[:, None] == values[None, :]
        for a in range(sources.shape[0]):
            sa = sources[a]
            for b in range(a + 1, sources.shape[0]):
                sb = sources[b]
                overlap[sa, sb] += 1
                overlap[sb, sa] += 1
                if same[a, b]:
                    agree[sa, sb] += 1
                    agree[sb, sa] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = agree / overlap
    scores = 2.0 * rate - 1.0
    scores[overlap < min_overlap] = np.nan
    return AgreementMatrix(scores=scores, overlaps=overlap)


def average_domain_size(dataset: FusionDataset) -> float:
    """Mean number of distinct claimed values over conflicted objects."""
    sizes = [
        len(dataset.domain_by_index(o_idx))
        for o_idx, rows in enumerate(_object_rows(dataset))
        if rows.shape[0] >= 2
    ]
    if not sizes:
        return 2.0
    return float(np.mean(sizes))


def estimate_average_accuracy(
    dataset: FusionDataset,
    min_overlap: int = 1,
    method: str = "paper",
    fallback: float = 0.7,
) -> float:
    """Average accuracy from the mean off-diagonal agreement score."""
    matrix = agreement_matrix(dataset, min_overlap)
    mask = matrix.observed_pairs()
    if not np.any(mask):
        return fallback
    mean_score = float(np.mean(matrix.scores[mask]))
    if method == "paper":
        return (float(np.sqrt(max(mean_score, 0.0))) + 1.0) / 2.0
    k = max(average_domain_size(dataset), 2.0)
    return _solve_domain_corrected((mean_score + 1.0) / 2.0, k)


def em_information_units(
    dataset: FusionDataset,
    avg_accuracy: float,
    per_observation: bool = False,
    vote_threshold: str = "majority",
) -> float:
    """Algorithm 1, one scalar binomial CDF per conflicted object."""
    avg_accuracy = float(np.clip(avg_accuracy, 1e-6, 1.0 - 1e-6))
    total = 0.0
    for o_idx, rows in enumerate(_object_rows(dataset)):
        m = int(rows.shape[0])
        if m == 0:
            continue
        n_distinct = len(dataset.domain_by_index(o_idx))
        if n_distinct <= 1:
            p_e = 1.0
        else:
            divisor = 2 if vote_threshold == "majority" else n_distinct
            threshold = m // divisor
            p_e = float(1.0 - stats.binom.cdf(threshold, m, avg_accuracy))
        if p_e >= 0.5:
            units = 1.0 - _binary_entropy(p_e)
            total += units * m if per_observation else units
    return total


def erm_information_units(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    per_observation: bool = False,
) -> float:
    """Labels on observed objects, or the observations on them."""
    object_rows = _object_rows(dataset)
    total = 0
    for obj in truth:
        if obj in dataset.objects:
            total += int(object_rows[dataset.objects.index(obj)].shape[0]) if per_observation else 1
    return float(total)


def decide(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    n_features: int,
    tau: float = 0.1,
    per_observation: bool = False,
    accuracy_method: str = "domain-corrected",
    vote_threshold: str = "majority",
) -> OptimizerDecision:
    """Algorithm 2 over the loop pieces above."""
    n_labels = sum(1 for obj in truth if obj in dataset.objects)
    bound = erm_generalization_bound(n_features, n_labels) if n_labels else float("inf")
    accuracy = estimate_average_accuracy(dataset, method=accuracy_method)
    if n_labels and bound < tau:
        return OptimizerDecision("erm", "bound", float(n_labels), float("nan"), accuracy, bound)
    erm_units = erm_information_units(dataset, truth, per_observation)
    em_units = em_information_units(dataset, accuracy, per_observation, vote_threshold)
    algorithm = "em" if erm_units < em_units or not n_labels else "erm"
    return OptimizerDecision(algorithm, "units", erm_units, em_units, accuracy, bound)
