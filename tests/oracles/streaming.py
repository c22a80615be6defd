"""Loop oracle for :class:`repro.extensions.streaming.StreamingFuser`: the
sequential model, one dict update per observation.

A production fuser fed batches of size 1 must match this oracle bit for
bit (``tests/scenarios/test_decay_differential.py``,
``tests/test_incremental_encoding.py``).  Unlike the production fuser the
oracle does not reject duplicate ``(source, object)`` claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro._rng import as_generator
from repro.extensions.streaming import DecayConfig
from repro.fusion.dataset import FusionDataset
from repro.fusion.result import FusionResult
from repro.fusion.types import ObjectId, Observation, SourceId, Value
from repro.optim.numerics import logit


@dataclass
class SourceState:
    """Beta-posterior correctness counts of one source."""

    correct: float
    total: float

    def accuracy(self) -> float:
        return self.correct / self.total


class ReferenceStreamingFuser:
    """Dict-per-observation streaming fuser with the production knobs."""

    def __init__(
        self,
        prior_correct: float = 1.4,
        prior_total: float = 2.0,
        self_training: bool = True,
        trust_decay: Optional[DecayConfig] = None,
    ) -> None:
        self.prior_correct = prior_correct
        self.prior_total = prior_total
        self.self_training = self_training
        self.decay = trust_decay.factor if trust_decay is not None else 1.0
        self.trust_window = trust_decay.window if trust_decay is not None else None
        self.sources: Dict[SourceId, SourceState] = {}
        self.truth: Dict[ObjectId, Value] = {}
        # per-object score table: value -> accumulated trust
        self.scores: Dict[ObjectId, Dict[Value, float]] = {}
        # per-object claims: source -> value (for retrospective credit)
        self.claims: Dict[ObjectId, Dict[SourceId, Value]] = {}
        self.n_processed = 0

    def _state(self, source: SourceId) -> SourceState:
        state = self.sources.get(source)
        if state is None:
            state = SourceState(self.prior_correct, self.prior_total)
            self.sources[source] = state
        return state

    def _apply_window(self, state: SourceState) -> None:
        if self.trust_window is not None and state.total > self.trust_window:
            scale = self.trust_window / state.total
            state.correct *= scale
            state.total *= scale

    def observe(self, observation: Observation) -> None:
        source, obj, value = observation
        state = self._state(source)
        if self.decay < 1.0:
            state.correct *= self.decay
            state.total *= self.decay
            state.correct = max(state.correct, 1e-6)
            state.total = max(state.total, 2e-6)

        trust = float(logit(state.accuracy()))
        self.scores.setdefault(obj, {})
        self.scores[obj][value] = self.scores[obj].get(value, 0.0) + trust
        self.claims.setdefault(obj, {})[source] = value

        expected = self.truth.get(obj)
        if expected is not None:
            state.correct += 1.0 if value == expected else 0.0
            state.total += 1.0
        elif self.self_training:
            state.correct += self.posterior(obj).get(value, 0.0)
            state.total += 1.0
        self._apply_window(state)
        self.n_processed += 1

    def observe_batch(self, observations: Iterable[Observation]) -> None:
        for observation in observations:
            self.observe(observation)

    def reveal_truth(self, obj: ObjectId, value: Value) -> None:
        self.truth[obj] = value
        for source, claimed in self.claims.get(obj, {}).items():
            state = self._state(source)
            state.correct += 1.0 if claimed == value else 0.0
            state.total += 1.0
            self._apply_window(state)

    def run(
        self, observations: Iterable[Observation], truth: Optional[Dict[ObjectId, Value]] = None
    ) -> "ReferenceStreamingFuser":
        """Replay a stream with ``truth`` known (not credited) up front."""
        self.truth.update(truth or {})
        self.observe_batch(observations)
        return self

    def posterior(self, obj: ObjectId) -> Dict[Value, float]:
        scores = self.scores.get(obj)
        if not scores:
            return {}
        if obj in self.truth:
            clamped = {value: 0.0 for value in scores}
            clamped[self.truth[obj]] = 1.0  # truth may be unclaimed
            return clamped
        values = list(scores)
        arr = np.asarray([scores[v] for v in values])
        arr = arr - arr.max()
        probs = np.exp(arr)
        probs /= probs.sum()
        return {value: float(p) for value, p in zip(values, probs)}

    def current_value(self, obj: ObjectId) -> Optional[Value]:
        posterior = self.posterior(obj)
        return max(posterior, key=posterior.get) if posterior else None

    def source_accuracies(self) -> Dict[SourceId, float]:
        return {source: state.accuracy() for source, state in self.sources.items()}

    def to_result(self, dataset: Optional[FusionDataset] = None) -> FusionResult:
        """Dict-backed result, promoted to arrays when ``dataset`` is given."""
        result = FusionResult(
            values={obj: self.current_value(obj) for obj in self.scores},
            posteriors={obj: self.posterior(obj) for obj in self.scores},
            source_accuracies=self.source_accuracies(),
            method="streaming",
            diagnostics={"n_processed": self.n_processed},
        )
        if dataset is not None:
            result.attach_dataset(dataset)
        return result


def replay_dataset(
    dataset: FusionDataset,
    train_truth: Optional[Dict[ObjectId, Value]] = None,
    seed: int = 0,
    **kwargs: object,
) -> FusionResult:
    """Sequential replay in the same random order as the production
    :func:`repro.extensions.streaming.replay_dataset`."""
    order = as_generator(seed).permutation(dataset.n_observations)
    fuser = ReferenceStreamingFuser(**kwargs)
    fuser.run((dataset.observations[int(i)] for i in order), truth=train_truth)
    return fuser.to_result(dataset)
