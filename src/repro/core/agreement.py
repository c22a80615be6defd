"""Average source-accuracy estimation via matrix completion (Section 4.3).

The optimizer needs the average source accuracy without ground truth.  The
paper builds the pairwise agreement matrix

    ``X_ij = mean over shared objects of (1[agree] - 1[disagree])``

whose expectation under the uniform-accuracy model is ``mu^2`` with
``mu = 2A - 1``.  The rank-1 matrix completion
``min ||X - mu^2||^2`` has the closed form ``mu_hat = sqrt(mean(X))``, and
``A = (mu_hat + 1) / 2``.

Two refinements are provided beyond the paper's estimator:

* ``method="domain-corrected"`` accounts for multi-valued domains, where
  two wrong sources agree with probability ``1/(|D_o|-1)`` instead of 1.
* :func:`estimate_source_accuracies_rank1` generalizes to a per-source
  ``mu_i`` via alternating rank-1 updates (the "more general matrix
  completion problem" the paper mentions in passing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import encode_dataset, expand_spans
from ..fusion.types import SourceId


@dataclass
class AgreementMatrix:
    """Pairwise source agreement statistics.

    Attributes
    ----------
    scores:
        ``|S| x |S|`` matrix of ``2 * agree_rate - 1``; ``nan`` where the
        two sources share fewer than ``min_overlap`` objects.
    overlaps:
        ``|S| x |S|`` count of shared objects.
    """

    scores: np.ndarray
    overlaps: np.ndarray

    def observed_pairs(self) -> np.ndarray:
        """Boolean mask of valid off-diagonal entries."""
        mask = ~np.isnan(self.scores)
        np.fill_diagonal(mask, False)
        return mask


#: Most source pairs :func:`_pair_counts` materializes at once.  A hub
#: object claimed by every source is counted in chunks of this many pairs,
#: so the transient memory stays bounded whatever the object's width.
PAIR_CHUNK = 2**21


def _pair_counts(dataset: FusionDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``|S|^2`` int32 ``(overlap, agree)`` counts over shared objects.

    Entry ``i * |S| + j`` counts the objects sources ``i`` and ``j`` both
    claim, and those they claim the same value for.  In the encoding's
    object-grouped order the partners of row ``r`` are the later rows of
    its object, so the ``sum_o m_o (m_o - 1) / 2`` pairs are known from the
    offsets up front and listed in chunks of at most :data:`PAIR_CHUNK`
    (a row with more partners is a chunk of its own).
    """
    encoding = encode_dataset(dataset)
    n = encoding.n_sources
    sources = encoding.obs_source_idx
    values = encoding.obs_value_code
    later = encoding.obs_offsets[encoding.obs_object_idx + 1] - 1 - np.arange(sources.shape[0])
    rows = np.flatnonzero(later)
    later = later[rows]
    ends = np.cumsum(later)
    overlap = np.zeros(n * n, dtype=np.int32)
    agree = np.zeros(n * n, dtype=np.int32)
    start = 0
    while start < rows.shape[0]:
        done = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, done + PAIR_CHUNK, side="right")), start + 1)
        first = np.repeat(rows[start:stop], later[start:stop])
        second = expand_spans(rows[start:stop] + 1, later[start:stop])
        keys = sources[first] * n + sources[second]
        _add_symmetric(overlap, keys, n)
        _add_symmetric(agree, keys[values[first] == values[second]], n)
        start = stop
    return overlap, agree


def _add_symmetric(counts: np.ndarray, keys: np.ndarray, n: int) -> None:
    """Count each pair key ``i * n + j`` at ``(i, j)`` and at ``(j, i)``.

    The keys are made unique first, so the fancy-index adds are exact.
    """
    unique, hits = np.unique(keys, return_counts=True)
    counts[unique] += hits
    counts[(unique % n) * n + unique // n] += hits


def agreement_matrix(dataset: FusionDataset, min_overlap: int = 1) -> AgreementMatrix:
    """Compute the pairwise agreement matrix ``X`` of Section 4.3.

    The ``sum_o m_o (m_o - 1) / 2`` source pairs over objects are counted
    by :func:`_pair_counts` as array code, in chunks of at most
    :data:`PAIR_CHUNK` pairs; the dense ``|S| x |S|`` float outputs are
    the only ``O(|S|^2)`` cost.
    """
    n = dataset.n_sources
    overlap, agree = _pair_counts(dataset)
    overlaps = overlap.reshape(n, n).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = agree.reshape(n, n) / overlaps
    scores = 2.0 * rate - 1.0
    scores[overlaps < min_overlap] = np.nan
    return AgreementMatrix(scores=scores, overlaps=overlaps)


def average_domain_size(dataset: FusionDataset) -> float:
    """Mean number of distinct claimed values over conflicted objects."""
    encoding = encode_dataset(dataset)
    sizes = encoding.domain_sizes[np.diff(encoding.obs_offsets) >= 2]
    if sizes.shape[0] == 0:
        return 2.0
    return float(np.mean(sizes))


def estimate_average_accuracy(
    dataset: FusionDataset,
    min_overlap: int = 1,
    method: str = "paper",
    fallback: float = 0.7,
    matrix: Optional[AgreementMatrix] = None,
) -> float:
    """Estimate the average source accuracy from agreements alone.

    Parameters
    ----------
    method:
        ``"paper"`` uses the binary-model identity
        ``E[X] = (2A - 1)^2``; ``"domain-corrected"`` solves
        ``agree_rate = A^2 + (1 - A)^2 / (k - 1)`` with ``k`` the average
        conflicted-domain size, which is the right identity for
        multi-valued objects.
    fallback:
        Returned when no source pair has sufficient overlap (e.g. extremely
        sparse datasets such as Genomics).
    """
    if matrix is not None:
        scores = matrix.scores[matrix.observed_pairs()]
    else:
        # Row-major over the flat counts: the order of ``scores[mask]``.
        overlap, agree = _pair_counts(dataset)
        pairs = np.flatnonzero(overlap >= max(min_overlap, 1))
        scores = 2.0 * (agree[pairs] / overlap[pairs]) - 1.0
    if scores.shape[0] == 0:
        return fallback
    mean_score = float(np.mean(scores))

    if method == "paper":
        mu_sq = max(mean_score, 0.0)
        mu = float(np.sqrt(mu_sq))
        return (mu + 1.0) / 2.0
    if method == "domain-corrected":
        agree_rate = (mean_score + 1.0) / 2.0
        k = max(average_domain_size(dataset), 2.0)
        return _solve_domain_corrected(agree_rate, k)
    raise ValueError(f"unknown estimation method {method!r}")


def _solve_domain_corrected(agree_rate: float, k: float) -> float:
    """Solve ``agree = A^2 + (1-A)^2/(k-1)`` for ``A`` in [1/k, 1].

    The quadratic has two roots; the one at or above the random-guess rate
    ``1/k`` is the meaningful accuracy.  Agreement below the random
    baseline clamps to ``1/k`` (can happen with adversarial sources).
    """
    c = 1.0 / (k - 1.0)
    # (1 + c) A^2 - 2c A + (c - agree) = 0
    a_coef = 1.0 + c
    b_coef = -2.0 * c
    c_coef = c - agree_rate
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    if disc < 0.0:
        return 1.0 / k
    root = (-b_coef + np.sqrt(disc)) / (2.0 * a_coef)
    return float(np.clip(root, 1.0 / k, 1.0))


def estimate_source_accuracies_rank1(
    dataset: FusionDataset,
    min_overlap: int = 2,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    matrix: Optional[AgreementMatrix] = None,
) -> Dict[SourceId, float]:
    """Per-source accuracy via the generalized rank-1 completion.

    Fits ``X_ij ~ mu_i * mu_j`` over observed pairs by alternating
    least-squares updates, then maps ``A_i = (mu_i + 1) / 2``.  Sources
    without any sufficiently-overlapping peer keep the global average.
    """
    matrix = matrix if matrix is not None else agreement_matrix(dataset, min_overlap)
    mask = matrix.observed_pairs()
    n = matrix.scores.shape[0]
    global_avg = estimate_average_accuracy(dataset, min_overlap, matrix=matrix)
    mu = np.full(n, max(2.0 * global_avg - 1.0, 0.05))

    scores = np.where(mask, matrix.scores, 0.0)
    for _ in range(max_iterations):
        previous = mu.copy()
        for i in range(n):
            peers = mask[i]
            denom = float(np.sum(mu[peers] ** 2))
            if denom <= 0.0:
                continue
            mu[i] = float(np.clip(scores[i, peers] @ mu[peers] / denom, -1.0, 1.0))
        if float(np.max(np.abs(mu - previous))) < tolerance:
            break

    accuracies = (mu + 1.0) / 2.0
    return {source: float(accuracies[i]) for i, source in enumerate(dataset.sources)}
