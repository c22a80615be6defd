"""Counts — the Naive Bayes baseline (paper Section 5.1, "Methods").

Source accuracies are estimated as the empirical fraction of times the
source agrees with the revealed ground truth (with Laplace smoothing so
sources without labeled observations fall back to a neutral prior).  Truth
inference is then the Naive Bayes posterior: under conditional
independence, a source claiming value ``d`` multiplies the likelihood of
``d`` by ``A_s`` and of every other value by ``(1 - A_s) / (|D_o| - 1)``
(errors spread uniformly over the remaining claimed values).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.result import FusionResult
from ..fusion.types import ObjectId, SourceId, Value
from .base import Fuser

_EPS = 1e-9


class Counts(Fuser):
    """Naive Bayes fusion with ground-truth-counted source accuracies.

    Parameters
    ----------
    smoothing:
        Laplace pseudo-counts: a source with ``c`` correct out of ``n``
        labeled observations gets ``(c + smoothing) / (n + 2 * smoothing)``.
    prior_accuracy:
        Accuracy used for sources with no labeled observations.
    """

    name = "counts"

    def __init__(self, smoothing: float = 1.0, prior_accuracy: float = 0.5) -> None:
        self.smoothing = smoothing
        self.prior_accuracy = prior_accuracy

    def fit_predict(
        self,
        dataset: FusionDataset,
        train_truth: Optional[Mapping[ObjectId, Value]] = None,
    ) -> FusionResult:
        train_truth = dict(train_truth or {})
        accuracies = self._count_accuracies(dataset, train_truth)

        values: Dict[ObjectId, Value] = {}
        posteriors: Dict[ObjectId, Dict[Value, float]] = {}
        for o_idx, obj in enumerate(dataset.objects):
            domain = dataset.domain(obj)
            log_like = {value: 0.0 for value in domain}
            n_alternatives = max(len(domain) - 1, 1)
            for row in dataset.object_observation_rows(o_idx):
                obs = dataset.observations[row]
                acc = accuracies[obs.source]
                wrong = max((1.0 - acc) / n_alternatives, _EPS)
                for value in domain:
                    log_like[value] += np.log(max(acc, _EPS) if value == obs.value else wrong)
            peak = max(log_like.values())
            unnorm = {value: np.exp(ll - peak) for value, ll in log_like.items()}
            norm = sum(unnorm.values())
            posteriors[obj] = {value: p / norm for value, p in unnorm.items()}
            values[obj] = max(domain, key=lambda value: (log_like[value]))
        values = self.clamp_training_values(values, train_truth)
        return FusionResult(
            values=values,
            posteriors=posteriors,
            source_accuracies=accuracies,
            method=self.name,
        )

    # ------------------------------------------------------------------
    def _count_accuracies(
        self, dataset: FusionDataset, truth: Mapping[ObjectId, Value]
    ) -> Dict[SourceId, float]:
        correct: Dict[SourceId, float] = {}
        total: Dict[SourceId, float] = {}
        for obs in dataset.observations:
            if obs.obj not in truth:
                continue
            total[obs.source] = total.get(obs.source, 0.0) + 1.0
            if obs.value == truth[obs.obj]:
                correct[obs.source] = correct.get(obs.source, 0.0) + 1.0
        accuracies: Dict[SourceId, float] = {}
        for source in dataset.sources:
            n = total.get(source, 0.0)
            if n == 0.0:
                accuracies[source] = self.prior_accuracy
            else:
                accuracies[source] = (correct.get(source, 0.0) + self.smoothing) / (
                    n + 2.0 * self.smoothing
                )
        return accuracies
