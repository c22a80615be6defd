"""The :class:`FusionDataset` container.

A fusion dataset bundles everything Section 3 of the paper calls
"user-specified input": the source observations ``Ω``, optional ground truth
``G`` (true values for a subset of objects), and optional per-source domain
feature assignments ``F``.

The container interns every id once (:func:`intern_columns`, shared with
the incremental encoding) into integer code columns, so learners can run
vectorized numpy code; its per-object and per-source observation
groupings are CSR spans over those columns.  It also offers the
train/test splitting protocol used throughout the paper's evaluation
(random ground-truth reveal of a given fraction, remaining objects used as
the test set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .._rng import as_generator
from .types import (
    DatasetError,
    DatasetStats,
    Indexer,
    ObjectId,
    Observation,
    SourceId,
    Value,
)


def as_records(
    observations: Iterable[Observation | Tuple[SourceId, ObjectId, Value]],
) -> List[Observation]:
    """``observations`` as :class:`Observation` records (triples are wrapped)."""
    return [obs if isinstance(obs, Observation) else Observation(*obs) for obs in observations]


def record_columns(records: Sequence[Observation]) -> Tuple[List, List, List]:
    """Transpose records into ``(sources, objects, values)`` id columns."""
    return (
        [obs.source for obs in records],
        [obs.obj for obs in records],
        [obs.value for obs in records],
    )


def _first_offender(
    sources: Sequence[SourceId],
    objects: Sequence[ObjectId],
    values: Sequence[Value],
    seen_pairs: Set[Tuple[SourceId, ObjectId]],
) -> None:
    """Raise :class:`DatasetError` for the batch's first invalid row.

    Only called once a whole-batch check has failed, so the message names
    the same row a row-by-row validation would.
    """
    batch_pairs: Set[Tuple[SourceId, ObjectId]] = set()
    for pair, value in zip(zip(sources, objects), values):
        source, obj = pair
        if pair in batch_pairs or pair in seen_pairs:
            raise DatasetError(f"duplicate observation for source={source!r} obj={obj!r}")
        if value != value:
            raise DatasetError(
                f"NaN claim value for source={source!r} obj={obj!r}; "
                "NaN never equals itself, so agreeing claims would split"
            )
        batch_pairs.add(pair)


def intern_columns(
    sources: Sequence[SourceId],
    objects: Sequence[ObjectId],
    values: Sequence[Value],
    sources_ix: Indexer[SourceId],
    objects_ix: Indexer[ObjectId],
    domains: List[Indexer[Value]],
    seen_pairs: Optional[Set[Tuple[SourceId, ObjectId]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one batch of id columns, then intern it in first-seen order.

    The single ingest routine behind :class:`FusionDataset` (both
    constructors) and :meth:`repro.fusion.encoding.IncrementalEncoding.append`.
    Row ``i`` of the batch is the claim ``(sources[i], objects[i],
    values[i])``.  The whole batch is checked first — a ``(source, obj)``
    pair repeated within the batch or already in ``seen_pairs``, or a NaN
    value, raises :class:`DatasetError` for the first offending row — so a
    rejected batch leaves every table untouched.  Sources, objects and each
    object's value domain are then interned in arrival order: a new object
    gets a fresh domain :class:`Indexer` appended to ``domains``, and
    ``seen_pairs`` (when given) absorbs the batch's pairs.

    The checks and the source/object interning are whole-column passes
    (sets and dicts built in C, Python work per *distinct* id); only the
    value domains are interned row by row.

    Returns ``(source_idx, object_idx, value_code)``, the batch's ``int64``
    code columns, aligned to arrival order.
    """
    n = len(sources)
    if len(objects) != n or len(values) != n:
        raise DatasetError(
            f"id columns differ in length: {n} sources, {len(objects)} objects, "
            f"{len(values)} values"
        )
    pairs = set(zip(sources, objects))
    if (
        len(pairs) != n
        or (seen_pairs and not pairs.isdisjoint(seen_pairs))
        or any(value != value for value in dict.fromkeys(values))
    ):
        _first_offender(sources, objects, values, seen_pairs or set())
    if seen_pairs is not None:
        seen_pairs |= pairs

    source_idx = sources_ix.add_all(sources)
    object_idx = objects_ix.add_all(objects)
    domains.extend(Indexer() for _ in range(len(objects_ix) - len(domains)))
    value_code = [domains[o].add(value) for o, value in zip(object_idx, values)]
    return (
        np.asarray(source_idx, dtype=np.int64),
        np.asarray(object_idx, dtype=np.int64),
        np.asarray(value_code, dtype=np.int64),
    )


@dataclass(frozen=True)
class Split:
    """A train/test split of the ground truth.

    Attributes
    ----------
    train_truth:
        Mapping from object id to true value, revealed to the learner.
    test_objects:
        Objects whose true value is hidden; metrics are computed on these.
    """

    train_truth: Dict[ObjectId, Value]
    test_objects: Tuple[ObjectId, ...]


class FusionDataset:
    """Immutable collection of source observations plus optional side data.

    Parameters
    ----------
    observations:
        Iterable of :class:`Observation` (or ``(source, obj, value)`` triples).
        A duplicate ``(source, obj)`` pair or a NaN value raises
        :class:`DatasetError`.
    ground_truth:
        Optional mapping ``object id -> true value``.  In the paper's
        evaluation all datasets come with full ground truth which is then
        partially revealed for training; the same protocol is supported via
        :meth:`split`.
    source_features:
        Optional mapping ``source id -> {feature name: feature value}``.
        Feature values may be booleans, categoricals or numerics; the
        :mod:`repro.fusion.features` module turns them into binary columns.
    true_accuracies:
        Optional mapping ``source id -> true accuracy`` used only for
        evaluation (available for simulated datasets).
    name:
        Human-readable dataset name used in reports.

    The id tables (:attr:`sources`, :attr:`objects`, the per-object value
    domains) and the code columns ``obs_source_idx``, ``obs_object_idx``
    and ``obs_value_idx`` are the dataset's state; every learner reads
    only those.  :meth:`from_columns` builds a dataset straight from three
    id columns without creating a record per claim.
    """

    def __init__(
        self,
        observations: Iterable[Observation | Tuple[SourceId, ObjectId, Value]],
        ground_truth: Optional[Mapping[ObjectId, Value]] = None,
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
        true_accuracies: Optional[Mapping[SourceId, float]] = None,
        name: str = "fusion-dataset",
    ) -> None:
        records = as_records(observations)
        self._ingest(
            *record_columns(records), ground_truth, source_features, true_accuracies, name
        )
        # The given records stay the observation view: a claim of ``True``
        # on an object whose domain stores ``1`` keeps its own value.
        self._observations = tuple(records)

    @classmethod
    def from_columns(
        cls,
        sources: Sequence[SourceId],
        objects: Sequence[ObjectId],
        values: Sequence[Value],
        ground_truth: Optional[Mapping[ObjectId, Value]] = None,
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
        true_accuracies: Optional[Mapping[SourceId, float]] = None,
        name: str = "fusion-dataset",
    ) -> "FusionDataset":
        """Build a dataset from three aligned id columns.

        Row ``i`` is the claim ``(sources[i], objects[i], values[i])``;
        the columns must have equal lengths.  Validation and the other
        parameters are those of the constructor.  No :class:`Observation`
        record is created: :attr:`observations` is materialized from the
        id tables and code columns on first read, so each claim's value
        there is its domain's stored representative (the first-seen of
        equal values, e.g. ``1`` for a later ``True``).
        """
        dataset = cls.__new__(cls)
        dataset._ingest(
            sources, objects, values, ground_truth, source_features, true_accuracies, name
        )
        return dataset

    def _ingest(
        self,
        sources: Sequence[SourceId],
        objects: Sequence[ObjectId],
        values: Sequence[Value],
        ground_truth: Optional[Mapping[ObjectId, Value]],
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]],
        true_accuracies: Optional[Mapping[SourceId, float]],
        name: str,
    ) -> None:
        """Intern the id columns and store the side data (both constructors)."""
        self.name = name
        self.sources: Indexer[SourceId] = Indexer()
        self.objects: Indexer[ObjectId] = Indexer()
        self._domains: List[Indexer[Value]] = []
        self.obs_source_idx, self.obs_object_idx, self.obs_value_idx = intern_columns(
            sources, objects, values, self.sources, self.objects, self._domains
        )
        if not self.n_observations:
            raise DatasetError("a fusion dataset requires at least one observation")
        self._observations: Optional[Tuple[Observation, ...]] = None

        self.ground_truth: Dict[ObjectId, Value] = dict(ground_truth or {})
        for obj in self.ground_truth:
            if obj not in self.objects:
                raise DatasetError(f"ground truth references unknown object {obj!r}")

        self.source_features: Dict[SourceId, Dict[str, object]] = {
            src: dict(feats) for src, feats in (source_features or {}).items()
        }
        self.true_accuracies: Dict[SourceId, float] = dict(true_accuracies or {})
        self._object_spans: Optional[Tuple[np.ndarray, List[int]]] = None
        self._source_spans: Optional[Tuple[np.ndarray, List[int]]] = None

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the cached dense encoding and row spans.

        The compiled :class:`~repro.fusion.encoding.DenseEncoding` is a
        cache, not state: shipping it implicitly with every dataset pickle
        would double the payload of cross-process transfers.  Callers that
        want the compile shipped (the parallel sweep engine) export it
        explicitly via ``DenseEncoding.export_state``.
        """
        state = dict(self.__dict__)
        state.pop("_dense_encoding", None)
        state["_object_spans"] = state["_source_spans"] = None
        return state

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def observations(self) -> Tuple[Observation, ...]:
        """All observations in input order.

        A dataset built from records returns those records.  One built by
        :meth:`from_columns` materializes them from the id tables and code
        columns on first read and caches them.
        """
        if self._observations is None:
            source_items, object_items = self.sources.items, self.objects.items
            domains = self._domains
            self._observations = tuple(
                Observation(source_items[s], object_items[o], domains[o].item(v))
                for s, o, v in zip(
                    self.obs_source_idx.tolist(),
                    self.obs_object_idx.tolist(),
                    self.obs_value_idx.tolist(),
                )
            )
        return self._observations

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_observations(self) -> int:
        return int(self.obs_source_idx.shape[0])

    def domain(self, obj: ObjectId) -> List[Value]:
        """Distinct values claimed for ``obj`` (the paper's ``D_o``)."""
        return self._domains[self.objects.index(obj)].items

    def domain_by_index(self, o_idx: int) -> Indexer[Value]:
        """Domain indexer for the object with integer index ``o_idx``."""
        return self._domains[o_idx]

    def observations_of_object(self, obj: ObjectId) -> List[Observation]:
        """All observations that describe ``obj``, in input order."""
        rows = self.object_observation_rows(self.objects.index(obj))
        records = self.observations
        return [records[i] for i in rows.tolist()]

    def observations_of_source(self, source: SourceId) -> List[Observation]:
        """All observations made by ``source``, in input order."""
        rows = self.source_observation_rows(self.sources.index(source))
        records = self.observations
        return [records[i] for i in rows.tolist()]

    def object_observation_rows(self, o_idx: int) -> np.ndarray:
        """Ascending observation row indices for object index ``o_idx``.

        A read-only span of the dataset encoding's object-grouped
        ``obs_order`` (compiled on first use); plain-int offsets keep the
        per-call slice cheap for the per-object loops that read it.
        """
        if self._object_spans is None:
            from .encoding import encode_dataset

            encoding = encode_dataset(self)
            rows = encoding.obs_order.view()
            rows.setflags(write=False)
            self._object_spans = (rows, encoding.obs_offsets.tolist())
        rows, offsets = self._object_spans
        return rows[offsets[o_idx] : offsets[o_idx + 1]]

    def source_observation_rows(self, s_idx: int) -> np.ndarray:
        """Ascending observation row indices for source index ``s_idx``.

        A read-only span of one stable argsort of the rows by source,
        computed on first use.
        """
        if self._source_spans is None:
            rows = np.argsort(self.obs_source_idx, kind="stable")
            rows.setflags(write=False)
            offsets = [0, *np.cumsum(self.source_observation_counts()).tolist()]
            self._source_spans = (rows, offsets)
        rows, offsets = self._source_spans
        return rows[offsets[s_idx] : offsets[s_idx + 1]]

    def source_observation_counts(self) -> np.ndarray:
        """Number of observations per source, aligned to source indices."""
        return np.bincount(self.obs_source_idx, minlength=self.n_sources)

    # ------------------------------------------------------------------
    # Ground-truth helpers
    # ------------------------------------------------------------------
    def empirical_accuracies(
        self, truth: Optional[Mapping[ObjectId, Value]] = None
    ) -> Dict[SourceId, float]:
        """Fraction of each source's claims that match ``truth``.

        Sources with no observation on a truth-labeled object are omitted.
        When ``truth`` is ``None`` the dataset's full ground truth is used;
        this is how the paper computes the "true" accuracies that the
        source-accuracy error metric compares against.
        """
        truth = self.ground_truth if truth is None else truth
        correct: Dict[SourceId, int] = {}
        total: Dict[SourceId, int] = {}
        for obs in self.observations:
            expected = truth.get(obs.obj)
            if expected is None:
                continue
            total[obs.source] = total.get(obs.source, 0) + 1
            if obs.value == expected:
                correct[obs.source] = correct.get(obs.source, 0) + 1
        return {src: correct.get(src, 0) / count for src, count in total.items()}

    def split(self, train_fraction: float, seed: int = 0) -> Split:
        """Randomly reveal ``train_fraction`` of ground-truth objects.

        This mirrors the paper's evaluation methodology (Section 5.1): splits
        are generated randomly per seed; objects whose truth is not revealed
        form the test set.

        Both sides of the split must be non-empty: a fraction of 0 (or one
        that rounds to zero revealed objects) and a fraction of 1 (or one
        that rounds to every object revealed) raise
        :class:`~repro.fusion.types.DatasetError` (a ``ValueError``) —
        degenerate splits used to crash much later, inside
        ``EMLearner.fit`` warm starts or ``FusionResult.accuracy`` over an
        empty test population.  For the fully unsupervised regime pass an
        empty truth mapping to the learner directly instead of splitting.
        """
        if not 0.0 <= train_fraction <= 1.0:
            raise DatasetError(f"train_fraction must be in [0, 1], got {train_fraction}")
        labeled = sorted(self.ground_truth, key=repr)
        if not labeled:
            raise DatasetError("dataset has no ground truth to split")
        rng = as_generator(seed)
        order = rng.permutation(len(labeled))
        n_train = int(round(train_fraction * len(labeled)))
        if n_train == 0:
            raise DatasetError(
                f"train_fraction {train_fraction} reveals no ground truth "
                f"({len(labeled)} labeled objects); for the unsupervised "
                "regime pass an empty truth mapping instead of splitting"
            )
        if n_train == len(labeled):
            raise DatasetError(
                f"train_fraction {train_fraction} reveals every labeled "
                f"object ({len(labeled)} of {len(labeled)}), leaving no "
                "evaluation side; lower the fraction or evaluate on the "
                "training objects explicitly"
            )
        train_ids = {labeled[i] for i in order[:n_train]}
        train_truth = {obj: self.ground_truth[obj] for obj in train_ids}
        test_objects = tuple(obj for obj in labeled if obj not in train_ids)
        return Split(train_truth=train_truth, test_objects=test_objects)

    # ------------------------------------------------------------------
    # Statistics (paper Table 1)
    # ------------------------------------------------------------------
    def stats(self, min_source_observations_for_acc: int = 2) -> DatasetStats:
        """Summary statistics in the shape of paper Table 1.

        The average source accuracy is reported only when sources have
        enough observations for the empirical estimate to be meaningful
        (the paper omits it for Genomics for exactly this reason).
        """
        feature_names = sorted({name for feats in self.source_features.values() for name in feats})
        feature_values = {
            (name, repr(value))
            for feats in self.source_features.values()
            for name, value in feats.items()
        }
        counts = self.source_observation_counts()
        avg_acc: Optional[float] = None
        if (
            self.ground_truth
            and counts.size
            and float(np.mean(counts)) >= min_source_observations_for_acc
        ):
            accs = self.empirical_accuracies()
            if accs:
                avg_acc = float(np.mean(list(accs.values())))
        return DatasetStats(
            n_sources=self.n_sources,
            n_objects=self.n_objects,
            n_observations=self.n_observations,
            n_domain_features=len(feature_names),
            n_feature_values=len(feature_values),
            avg_source_accuracy=avg_acc,
            avg_observations_per_object=self.n_observations / self.n_objects,
            avg_observations_per_source=self.n_observations / self.n_sources,
            ground_truth_fraction=len(self.ground_truth) / self.n_objects,
        )

    # ------------------------------------------------------------------
    # Append API
    # ------------------------------------------------------------------
    def extended(
        self,
        observations: Iterable[Observation | Tuple[SourceId, ObjectId, Value]],
        ground_truth: Optional[Mapping[ObjectId, Value]] = None,
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
        true_accuracies: Optional[Mapping[SourceId, float]] = None,
        name: Optional[str] = None,
    ) -> "FusionDataset":
        """Return a new dataset with ``observations`` appended.

        The container stays immutable: appending builds a fresh
        :class:`FusionDataset` whose observation order is this dataset's
        followed by the new batch, so source/object indices and per-object
        value codes of existing data are preserved.  Ground truth, source
        features and true accuracies are merged (new entries win).  For
        repeated appends on a hot path use
        :class:`~repro.fusion.encoding.IncrementalEncoding`, which updates
        the compiled index arrays in O(batch) instead of re-walking the
        accumulated observations.
        """
        combined = [*self.observations, *as_records(observations)]
        merged_truth = dict(self.ground_truth)
        merged_truth.update(ground_truth or {})
        merged_features: Dict[SourceId, Dict[str, object]] = {
            src: dict(feats) for src, feats in self.source_features.items()
        }
        for src, feats in (source_features or {}).items():
            merged_features.setdefault(src, {}).update(feats)
        merged_accuracies = dict(self.true_accuracies)
        merged_accuracies.update(true_accuracies or {})
        return FusionDataset(
            combined,
            ground_truth=merged_truth,
            source_features=merged_features,
            true_accuracies=merged_accuracies,
            name=name if name is not None else self.name,
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FusionDataset(name={self.name!r}, sources={self.n_sources}, "
            f"objects={self.n_objects}, observations={self.n_observations})"
        )


def subset_sources(dataset: FusionDataset, keep: Sequence[SourceId]) -> FusionDataset:
    """Restrict ``dataset`` to observations from ``keep`` sources.

    Used by the source-quality-initialization experiment (paper Section
    5.3.2), which trains on a fraction of sources and predicts accuracies of
    the held-out ones.  Objects that lose all observations are dropped from
    the restricted dataset (and from its ground truth).
    """
    keep_set = set(keep)
    observations = [obs for obs in dataset.observations if obs.source in keep_set]
    if not observations:
        raise DatasetError("source subset leaves no observations")
    remaining_objects = {obs.obj for obs in observations}
    ground_truth = {
        obj: value for obj, value in dataset.ground_truth.items() if obj in remaining_objects
    }
    source_features = {
        src: feats for src, feats in dataset.source_features.items() if src in keep_set
    }
    true_accuracies = {src: acc for src, acc in dataset.true_accuracies.items() if src in keep_set}
    return FusionDataset(
        observations,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracies,
        name=f"{dataset.name}[{len(keep_set)} sources]",
    )
