"""Streaming data fusion (paper Section 6, "Efficiency of data fusion").

The paper's related work points at single-pass streaming truth discovery
[44] as the answer to fusion over high-rate feeds.  This module provides a
streaming counterpart of SLiMFast's accuracy model:

* per-source accuracy is tracked as a Beta posterior over correctness,
  updated online from (a) revealed ground truth and (b) the running
  fused estimate of each object (self-training, optional);
* object posteriors are maintained incrementally — each arriving
  observation only touches its own object's score table;
* trust decay lets source reliability drift over time (sources go stale;
  see :class:`DecayConfig`).

This trades the batch model's guarantees for O(batch) work per ingested
batch.  Source states live in flat Beta-count vectors, the per-object score
table is **ragged** (per-object spans over one flat array with doubling
slack, mirroring the incremental encoding's slot store — memory stays
``O(total claimed values)`` even when one object's domain is huge), and
each :meth:`StreamingFuser.observe_batch` updates everything with bulk
NumPy scatters over an :class:`~repro.fusion.encoding.IncrementalEncoding`
(which also gives the fuser O(batch) appends and compiled arrays the
batch learners read directly).  Batches use *batch-start* source trusts for
scoring and apply source-state feedback after the batch, so a batch of
size 1 reproduces the sequential dict-per-observation model **exactly** —
its loop oracle lives in ``tests/oracles/streaming.py`` — while larger
batches are a mini-batch approximation (the equivalence tolerances are
pinned in ``tests/test_incremental_encoding.py``).  Optionally, a periodic
warm-started EM re-fit (:func:`repro.core.em.fit_incremental`) re-anchors
source reliabilities and rebuilds the score table from the accumulated
stream.

The fuser enforces dataset semantics (duplicate ``(source, object)``
claims raise), because its backing encoding must stay equivalent to a cold
compile of the accumulated stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._rng import as_generator
from ..fusion.dataset import FusionDataset
from ..fusion.encoding import IncrementalEncoding, _AppendBuffer, expand_spans, relocate_spans
from ..fusion.result import FusionResult
from ..fusion.types import ObjectId, Observation, SourceId, Value
from ..optim.numerics import logit


@dataclass(frozen=True)
class DecayConfig:
    """Trust-forgetting policy for the streaming Beta-count vectors.

    Flat Beta counts weight a source's entire history equally, so after a
    regime change (see :func:`repro.data.scenarios.drift_scenario`) the
    stale evidence dominates forever.  A ``DecayConfig`` bounds that
    memory two ways — pass **at most one** of:

    half_life:
        Exponential forgetting: a source's pseudo-counts are halved every
        ``half_life`` observations *that source* makes (activity-based
        time: each of its observations multiplies both counts by
        :attr:`factor` ``= 2**(-1/half_life)``).
    window:
        Sliding-window forgetting via an effective-sample-size cap:
        whenever a source's total pseudo-count exceeds ``window``, both
        counts are rescaled so the total equals ``window``.  Until the cap
        is reached this is *bit-identical* to flat counting; once
        saturated, each new feedback unit displaces ``1/window`` of the
        accumulated history (the O(1)-per-source rescaling approximation
        of a true last-``window``-updates window).

    ``DecayConfig()`` (neither set) is flat counting and is bit-identical
    to a fuser constructed without any decay — pinned in
    ``tests/scenarios/test_decay_differential.py``.
    """

    half_life: Optional[float] = None
    window: Optional[float] = None

    def __post_init__(self) -> None:
        if self.half_life is not None and self.window is not None:
            raise ValueError("pass at most one of half_life and window")
        if self.half_life is not None and not self.half_life > 0.0:
            raise ValueError("half_life must be positive")
        if self.window is not None and not self.window > 0.0:
            raise ValueError("window must be positive")

    @property
    def is_flat(self) -> bool:
        """True when this config disables forgetting entirely."""
        return self.half_life is None and self.window is None

    @property
    def factor(self) -> float:
        """Per-observation multiplicative decay implied by ``half_life``."""
        if self.half_life is None:
            return 1.0
        return float(2.0 ** (-1.0 / self.half_life))


class StreamingFuser:
    """Single-pass fusion with online source-reliability tracking.

    Source Beta states are flat vectors; the score table is *ragged* —
    object ``o``'s scores live in
    ``_score_flat[_score_start[o] : _score_start[o] + |D_o|]`` with
    capacity slack (``_score_cap``) doubled on domain growth by the slot
    store's rule (:func:`~repro.fusion.encoding.relocate_spans`).  Batches
    are processed with bulk scatters and no Python loop over objects; see
    the module docstring for the batch semantics.

    Parameters
    ----------
    prior_correct, prior_total:
        Beta prior pseudo-counts; the default Beta(1.4, 0.6)-style prior
        starts every source at 0.7 — the same optimistic initialization
        the batch EM uses.
    self_training:
        When True, observations on unlabeled objects update their source's
        counts with the current fused estimate (weighted by its posterior
        confidence); when False only ground-truth feedback counts.
    source_features:
        Optional source metadata, forwarded to the periodic re-fit's
        design matrix.
    refit_every:
        When set, every ``refit_every`` processed observations trigger a
        warm-started EM re-fit over the accumulated stream (:meth:`refit`
        can also be called explicitly).
    refit_overrides:
        Keyword overrides forwarded to :func:`repro.core.em.fit_incremental`
        (e.g. ``{"max_iterations": 10}``).
    trust_decay:
        A :class:`DecayConfig` bounding trust memory so re-anchoring can
        track accuracy drift: ``half_life=h`` is exponential forgetting,
        ``window=w`` caps each source's effective sample size at ``w``
        pseudo-counts.  ``None`` and ``DecayConfig()`` are flat counting.
    featurizer:
        Optional :class:`repro.featurize.FeaturizerPipeline`: the fuser
        maintains :class:`~repro.featurize.stats.RunningSourceStats` in
        O(batch) per append, and every periodic re-fit uses a design of
        data-derived reliability features assembled from those running
        accumulators instead of the metadata-only matrix.
    """

    def __init__(
        self,
        prior_correct: float = 1.4,
        prior_total: float = 2.0,
        self_training: bool = True,
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
        refit_every: Optional[int] = None,
        refit_overrides: Optional[Dict[str, object]] = None,
        trust_decay: Optional[DecayConfig] = None,
        featurizer: Optional[object] = None,
    ) -> None:
        if prior_total <= 0 or prior_correct <= 0 or prior_correct >= prior_total:
            raise ValueError("priors must satisfy 0 < correct < total")
        if (
            trust_decay is not None
            and trust_decay.window is not None
            and trust_decay.window < prior_total
        ):
            raise ValueError(
                "trust_decay.window must be at least prior_total "
                "(the prior pseudo-counts must fit inside the window)"
            )
        if refit_every is not None and refit_every <= 0:
            raise ValueError("refit_every must be a positive observation count")
        if featurizer is not None and not hasattr(featurizer, "design_from_stats"):
            raise ValueError(
                "featurizer must provide design_from_stats "
                "(e.g. repro.featurize.FeaturizerPipeline), got "
                f"{type(featurizer).__name__}"
            )
        self.prior_correct = prior_correct
        self.prior_total = prior_total
        self.trust_decay = trust_decay
        self.trust_window = trust_decay.window if trust_decay is not None else None
        self._decay = trust_decay.factor if trust_decay is not None else 1.0
        self.self_training = self_training
        self.source_features = source_features
        self.refit_every = refit_every
        self.refit_overrides = refit_overrides
        self.featurizer = featurizer

        self.encoding = IncrementalEncoding(source_features=source_features, name="streaming")
        self._correct = np.zeros(8)
        self._total = np.zeros(8)
        self._n_sources = 0
        # Ragged score table: flat store + per-object (start, capacity)
        # spans; _score_used is the high-water mark of allocated cells.
        self._score_flat = np.zeros(16)
        self._score_used = 0
        self._score_start = _AppendBuffer(np.int64)
        self._score_cap = _AppendBuffer(np.int64)
        # Per object: its label's value code, -1 unlabeled, -2 labeled with a
        # value no source has claimed yet.
        self._truth_code = np.full(8, -1, dtype=np.int64)
        self._n_objects = 0
        self.truth: Dict[ObjectId, Value] = {}
        self.n_processed = 0
        self.n_refits = 0
        self._last_refit_at = 0
        self._warm_state = None
        self._running_stats = None
        if featurizer is not None:
            from ..featurize.stats import DEFAULT_HALF_LIFE, RunningSourceStats

            self._running_stats = RunningSourceStats(
                half_life=getattr(featurizer, "half_life", DEFAULT_HALF_LIFE)
            )

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _grow_sources(self, n_sources: int) -> None:
        capacity = self._correct.shape[0]
        if n_sources > capacity:
            new_capacity = max(2 * capacity, n_sources)
            for name in ("_correct", "_total"):
                old = getattr(self, name)
                fresh = np.zeros(new_capacity)
                fresh[: self._n_sources] = old[: self._n_sources]
                setattr(self, name, fresh)
        self._correct[self._n_sources : n_sources] = self.prior_correct
        self._total[self._n_sources : n_sources] = self.prior_total
        self._n_sources = n_sources

    def _grow_objects(self, n_objects: int) -> None:
        if n_objects > self._truth_code.shape[0]:
            fresh_codes = np.full(max(2 * self._truth_code.shape[0], n_objects), -1, dtype=np.int64)
            fresh_codes[: self._n_objects] = self._truth_code[: self._n_objects]
            self._truth_code = fresh_codes
        # New objects start with an empty score span; _sync_score_spans
        # allocates capacity once their domain size is known.
        self._score_start.grow(n_objects)
        self._score_cap.grow(n_objects)
        self._n_objects = max(self._n_objects, n_objects)

    def _grow_flat(self, needed: int) -> None:
        capacity = self._score_flat.shape[0]
        if needed > capacity:
            fresh = np.zeros(max(2 * capacity, needed))
            fresh[: self._score_used] = self._score_flat[: self._score_used]
            self._score_flat = fresh

    def _sync_score_spans(self, objects: np.ndarray) -> None:
        """Ensure every touched object's span can hold its live domain.

        ``objects`` are the batch's distinct object indices, ascending.
        Overflowing spans relocate to the tail of the flat store with
        doubled capacity (copying their accumulated scores; fresh cells
        are zero by construction, old cells become dead holes) — one
        :func:`~repro.fusion.encoding.relocate_spans` pass, the slot
        store's rule.
        """
        start, cap = self._score_start.data, self._score_cap.data
        needs = self.encoding.live_domain_sizes[objects]
        used, source, destination = relocate_spans(
            start, cap, objects, needs, cap[objects], self._score_used, min_cap=2
        )
        self._grow_flat(used)
        if source.shape[0]:
            self._score_flat[destination] = self._score_flat[source]
        self._score_used = used

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, observation: Observation) -> None:
        """Ingest one observation: a batch of size 1.

        Each call pays a constant NumPy dispatch overhead, so high-rate
        feeds should prefer :meth:`observe_batch`.
        """
        self.observe_batch([observation])

    def observe_batch(self, observations: Sequence[Observation | tuple]) -> None:
        """Ingest a batch of observations in bulk.

        One O(batch) append into the incremental encoding plus a constant
        number of array scatters, regardless of batch size.
        """
        batch = self.encoding.append(observations)
        if len(batch) == 0:
            return
        if self._running_stats is not None:
            # O(batch + touched-object claims): keeps the featurized
            # refit's design inputs current without any compile.
            self._running_stats.observe(self.encoding, batch)
        n_objects_before = self._n_objects
        self._grow_sources(self.encoding.n_sources)
        self._grow_objects(self.encoding.n_objects)
        self._sync_score_spans(batch.objects)

        # Code the labels revealed before their objects arrived: the truth
        # keys among the object table's new tail, intersected in C.
        objects = self.encoding.objects
        if self.truth:
            for obj in self.truth.keys() & objects.items_from(n_objects_before):
                self._code_label(objects.index(obj), self.truth[obj])
        # A batch may claim a label's value that was outside its object's
        # domain; recode those labels before matching.
        for o_idx in batch.objects[self._truth_code[batch.objects] == -2].tolist():
            self._code_label(o_idx, self.truth[objects.item(o_idx)])

        # All per-batch state updates touch only the batch's own sources
        # and objects, so observing stays O(batch) as the stream grows.
        s_idx, o_idx, v_code = batch.source_idx, batch.object_idx, batch.value_code
        batch_sources, source_inverse, source_counts = np.unique(
            s_idx, return_inverse=True, return_counts=True
        )
        if self._decay < 1.0:
            factor = self._decay**source_counts
            self._correct[batch_sources] = np.maximum(self._correct[batch_sources] * factor, 1e-6)
            self._total[batch_sources] = np.maximum(self._total[batch_sources] * factor, 2e-6)

        # Batch-start trusts score the whole batch (see module docstring).
        trust = logit(self._correct[batch_sources] / self._total[batch_sources])
        np.add.at(
            self._score_flat,
            self._score_start.data[o_idx] + v_code,
            trust[source_inverse],
        )

        truth_codes = self._truth_code[o_idx]
        labeled = truth_codes != -1
        if np.any(labeled):
            matched = (v_code == truth_codes) & labeled
            np.add.at(self._correct, s_idx[labeled], matched[labeled].astype(float))
            np.add.at(self._total, s_idx[labeled], 1.0)
        if self.self_training and not np.all(labeled):
            unlabeled = ~labeled
            confidence = self._batch_confidence(o_idx[unlabeled], v_code[unlabeled])
            np.add.at(self._correct, s_idx[unlabeled], confidence)
            np.add.at(self._total, s_idx[unlabeled], 1.0)
        self._apply_window(batch_sources)

        self.n_processed += len(batch)
        if (
            self.refit_every is not None
            and self.n_processed - self._last_refit_at >= self.refit_every
        ):
            self.refit()

    def _batch_confidence(self, object_idx: np.ndarray, value_code: np.ndarray) -> np.ndarray:
        """Posterior confidence of each (object, claimed value) pair."""
        starts = self._score_start.data
        if object_idx.shape[0] == 1:
            # Single-observation path mirrors the sequential model's exact
            # operation sequence (bit-identical self-training feedback).
            o_idx = int(object_idx[0])
            size = int(self.encoding.live_domain_sizes[o_idx])
            start = int(starts[o_idx])
            arr = self._score_flat[start : start + size]
            arr = arr - arr.max()
            probs = np.exp(arr)
            probs /= probs.sum()
            return probs[value_code[:1]]
        # Ragged gather: concatenate each unique object's live span and
        # run segmented max/sum reductions over the concatenation.
        unique, inverse = np.unique(object_idx, return_inverse=True)
        sizes = self.encoding.live_domain_sizes[unique]
        span_scores = self._score_flat[expand_spans(starts[unique], sizes)]
        segment_idx = np.repeat(np.arange(unique.shape[0], dtype=np.int64), sizes)
        peak = np.full(unique.shape[0], -np.inf)
        np.maximum.at(peak, segment_idx, span_scores)
        exp_sums = np.bincount(
            segment_idx,
            weights=np.exp(span_scores - peak[segment_idx]),
            minlength=unique.shape[0],
        )
        claim_scores = self._score_flat[starts[object_idx] + value_code]
        return np.exp(claim_scores - peak[inverse]) / exp_sums[inverse]

    # ------------------------------------------------------------------
    # Truth feedback
    # ------------------------------------------------------------------
    def _code_label(self, o_idx: int, value: Value) -> None:
        """Store a label's value code, or -2 while no source claims the value."""
        code = self.encoding.value_code(o_idx, value)
        self._truth_code[o_idx] = -2 if code is None else code

    def _preset_truth(self, obj: ObjectId, value: Value) -> None:
        """Record a label without crediting past claims."""
        self.truth[obj] = value
        o_idx = self.encoding.objects.get(obj)
        if o_idx is not None:
            self._code_label(o_idx, value)

    def reveal_truth(self, obj: ObjectId, value: Value) -> None:
        """Feed a ground-truth label; retroactively credits past claims."""
        self._preset_truth(obj, value)
        o_idx = self.encoding.objects.get(obj)
        if o_idx is None:
            return
        claim_sources, claim_codes = self.encoding.object_claims(o_idx)
        if claim_sources.shape[0] == 0:
            return
        # An unclaimed label's -2 matches no claim.
        matched = (claim_codes == self._truth_code[o_idx]).astype(float)
        np.add.at(self._correct, claim_sources, matched)
        np.add.at(self._total, claim_sources, 1.0)
        self._apply_window(claim_sources)

    def _apply_window(self, source_idx: np.ndarray) -> None:
        """Cap the touched sources' effective sample size at the window.

        ``min(1, window / total)`` leaves under-cap sources bit-identical
        (``x * 1.0 == x``) and rescales saturated ones with the same two
        float operations as the sequential model, so size-1 batches stay
        exactly equivalent.
        """
        window = self.trust_window
        if window is None:
            return
        scale = np.minimum(1.0, window / self._total[source_idx])
        self._correct[source_idx] = self._correct[source_idx] * scale
        self._total[source_idx] = self._total[source_idx] * scale

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def posterior(self, obj: ObjectId) -> Dict[Value, float]:
        """Current posterior over the object's claimed values."""
        o_idx = self.encoding.objects.get(obj)
        if o_idx is None:
            return {}
        values = self.encoding.domain(obj)
        if obj in self.truth:
            clamped = {value: 0.0 for value in values}
            clamped[self.truth[obj]] = 1.0  # truth may be unclaimed
            return clamped
        start = int(self._score_start.data[o_idx])
        arr = self._score_flat[start : start + len(values)]
        arr = arr - arr.max()
        probs = np.exp(arr)
        probs /= probs.sum()
        return {value: float(p) for value, p in zip(values, probs)}

    def current_value(self, obj: ObjectId) -> Optional[Value]:
        """MAP estimate for one object (None if unseen)."""
        posterior = self.posterior(obj)
        return max(posterior, key=posterior.get) if posterior else None

    def source_accuracies(self) -> Dict[SourceId, float]:
        """Current accuracy estimate per seen source."""
        n = self._n_sources
        accuracies = self._correct[:n] / self._total[:n]
        return {source: float(acc) for source, acc in zip(self.encoding.sources.items, accuracies)}

    # ------------------------------------------------------------------
    def run(
        self,
        observations: Iterable[Observation],
        truth: Optional[Dict[ObjectId, Value]] = None,
        batch_size: int = 256,
    ) -> "StreamingFuser":
        """Replay an observation stream (truth revealed up front)."""
        for obj, value in (truth or {}).items():
            self._preset_truth(obj, value)
        chunk: List[Observation] = []
        for observation in observations:
            chunk.append(observation)
            if len(chunk) >= batch_size:
                self.observe_batch(chunk)
                chunk = []
        if chunk:
            self.observe_batch(chunk)
        return self

    def to_result(self) -> FusionResult:
        """Snapshot the current state as an array-backed fusion result.

        Read from the live state in O(pairs), with no compile and no Python
        work per candidate: each object's rows are its live claimed values
        in index order, read through the encoding's append-only value
        table; their scores are gathered from the ragged score table into
        one segmented softmax, and the truth clamp comes from the
        truth-code table the batches keep (:meth:`_clamp_codes`).
        """
        from ..optim.objectives import segment_softmax

        if self.encoding.n_observations == 0:
            # An empty stream has no rows to package.
            return FusionResult(
                values={},
                posteriors={},
                source_accuracies={},
                method="streaming",
                diagnostics={"n_processed": 0, "n_refits": self.n_refits},
            )
        encoding = self.encoding
        sizes = encoding.live_domain_sizes
        n_objects = sizes.shape[0]
        scores = self._score_flat[expand_spans(self._score_start.data, sizes)]
        segments = np.repeat(np.arange(n_objects, dtype=np.int64), sizes)
        probs = segment_softmax(scores, segments, n_objects)
        n = self._n_sources
        return FusionResult.from_rows(
            encoding,
            probs,
            clamp=self.truth,
            clamp_codes=self._clamp_codes(),
            accuracy_vector=self._correct[:n] / self._total[:n],
            source_ids=encoding.sources,
            method="streaming",
            diagnostics={"n_processed": self.n_processed, "n_refits": self.n_refits},
        )

    def _clamp_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``encoding.truth_codes(self.truth)``, read from the truth-code table.

        The table codes every label of an arrived object, so its -2
        (labeled outside the claimed domain) is the encoding's -1.
        """
        table = self._truth_code[: self.encoding.n_objects]
        return table != -1, np.maximum(table, -1)

    def publish_state(self) -> Dict[str, object]:
        """Package the current state for the serving layer.

        Returns everything ``repro.serve`` needs to publish an immutable
        snapshot: ``result`` (the array-backed :meth:`to_result`
        snapshot), ``truth`` (a copy of the revealed labels) and the stream
        counters ``n_observations`` / ``n_processed`` / ``n_refits``.  The
        accumulated stream's one dataset export is
        ``self.encoding.to_dataset()``.
        """
        return {
            "result": self.to_result(),
            "truth": dict(self.truth),
            "n_observations": self.encoding.n_observations,
            "n_processed": self.n_processed,
            "n_refits": self.n_refits,
        }

    # ------------------------------------------------------------------
    # Periodic batch re-fit
    # ------------------------------------------------------------------
    def refit(self) -> None:
        """Re-anchor source reliabilities with a warm-started EM re-fit.

        Runs :func:`repro.core.em.fit_incremental` over the accumulated
        stream (seeded with the previous re-fit's
        :class:`~repro.optim.solvers.WarmStartState`), replaces each
        source's Beta mean with the fitted accuracy (its pseudo-count
        weight is preserved), and rebuilds the score table from every past
        claim under the re-fitted trusts — a single bulk scatter over the
        encoding's compiled arrays.
        """
        from ..core.em import fit_incremental

        design = feature_space = None
        if self.featurizer is not None and self._running_stats is not None:
            # Assemble the featurized design from the running accumulators
            # (no compile); fit_incremental then skips its own design
            # resolution entirely.
            stats = self._running_stats.snapshot(self.encoding.n_objects)
            design, feature_space = self.featurizer.design_from_stats(
                stats,
                self.encoding.sources.items,
                self.encoding.source_features,
            )
        model, learner = fit_incremental(
            self.encoding,
            truth=self.truth,
            warm_state=self._warm_state,
            design=design,
            feature_space=feature_space,
            **dict(self.refit_overrides or {}),
        )
        self._warm_state = learner.warm_state_
        n = self._n_sources
        accuracies = np.clip(model.accuracies(), 1e-6, 1.0 - 1e-6)
        self._correct[:n] = accuracies * self._total[:n]
        trust = logit(accuracies)
        encoding = self.encoding
        self._score_flat[: self._score_used] = 0.0
        np.add.at(
            self._score_flat,
            self._score_start.data[encoding.obs_object_idx] + encoding.obs_value_code,
            trust[encoding.obs_source_idx],
        )
        self._last_refit_at = self.n_processed
        self.n_refits += 1


def replay_dataset(
    dataset: FusionDataset,
    train_truth: Optional[Dict[ObjectId, Value]] = None,
    seed: int = 0,
    batch_size: int = 256,
    **kwargs: object,
) -> FusionResult:
    """Stream a dataset's observations in random order through the fuser.

    ``batch_size`` controls the mini-batch size; remaining keyword
    arguments are forwarded to :class:`StreamingFuser`.  Note mini-batching
    changes the numbers, not just the speed: batches score with batch-start
    trusts, so only ``batch_size=1`` reproduces the exact sequential replay
    estimates.
    """
    rng = as_generator(seed)
    order = rng.permutation(dataset.n_observations)
    fuser = StreamingFuser(**kwargs)
    truth = dict(train_truth or {})
    observations = [dataset.observations[int(index)] for index in order]
    fuser.run(observations, truth=truth, batch_size=batch_size)
    return fuser.to_result()
