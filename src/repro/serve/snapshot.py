"""Immutable published serving snapshots over the ragged posterior store.

A :class:`Snapshot` freezes one publishable state of a streaming fusion
run — the ragged :class:`~repro.fusion.posterior_store.PosteriorStore`,
the claimed-value layout (``object_ids`` / ``pair_values`` / CSR
offsets), the per-source reliability vector, and the revealed-truth
bookkeeping — and precomputes at publish time everything the query paths
need in O(1)/O(k):

* a position index (object id -> store row span),
* a **conflict index** (:func:`build_conflict_index`): per-object MAP
  margin ``p_max - p_runner_up``, argsorted ascending so
  :meth:`Snapshot.top_conflicts` is a slice — the lowest-margin objects
  are the ones the fused estimate is least sure about, the natural
  curation queue for a live system.

Snapshots never mutate after construction (the store's flat arrays are
frozen via :meth:`~repro.fusion.posterior_store.PosteriorStore.freeze`),
so any number of reader threads can query one concurrently without
locks.  Construction, unpickling and :meth:`Snapshot.load` all run the
same alignment check: the object ids, claimed values, conflict index and
reliability vector must match the store's sizes.

Pickling a snapshot that carries an attached dataset ships the dataset's
compiled :class:`~repro.fusion.encoding.DenseEncoding` explicitly via
``export_state()``: ``FusionDataset.__getstate__`` deliberately drops the
cached encoding (it is a cache, and workers rebuild it), but for a
serving snapshot the frozen encoding *is* part of the published state —
without this, unpickling would silently recompile on first use.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fusion.encoding import DenseEncoding
from ..fusion.posterior_store import PosteriorStore, segmented_argmax
from ..fusion.types import ObjectId, SourceId, Value

__all__ = ["Snapshot", "ConflictEntry", "ConflictIndex", "build_conflict_index"]

_META_FILE = "meta.pkl"
_STORE_DIR = "store"


@dataclass(frozen=True)
class ConflictEntry:
    """One row of a top-k conflict query.

    ``margin`` is the posterior mass gap between the MAP value and the
    runner-up value of the same object; small margins mean the fused
    estimate is nearly a coin flip between ``map_value`` and
    ``runner_up``.
    """

    object: ObjectId
    map_value: Value
    runner_up: Value
    margin: float
    confidence: float


@dataclass(frozen=True)
class ConflictIndex:
    """Publish-time conflict precomputation (see :func:`build_conflict_index`).

    ``margins``/``second_codes`` align with the store's object positions;
    ``order`` sorts positions by ascending margin with the ``n_ranked``
    conflict-eligible objects first (single-candidate and override
    objects carry an infinite margin and sort last).
    """

    margins: np.ndarray
    second_codes: np.ndarray
    order: np.ndarray
    n_ranked: int


def build_conflict_index(store: PosteriorStore) -> ConflictIndex:
    """Precompute per-object MAP margins and their ascending order.

    The margin of object ``o`` is ``p_max - p_second`` over its posterior
    rows — the quantity a curation loop ranks by (lowest margin = most
    conflicting).  Objects that cannot conflict get an infinite margin
    and are excluded from ``n_ranked``: single-candidate domains, empty
    spans, and override objects (code -1: truth clamped outside the
    claimed domain, an exact point mass by construction).  One masked
    segmented max/argmax pass over the flat rows, O(rows) total.
    """
    n_objects = store.n_objects
    offsets = store.offsets
    lengths = store.domain_sizes
    codes = store.value_codes
    seg_max = store.max_probs()
    valid = codes >= 0
    # Writable copy (the store may be frozen or memmapped): mask each
    # object's MAP row so a second reduction finds the runner-up.
    probs = np.array(store.probs, dtype=float)
    best_rows = offsets[:-1] + np.where(valid, codes, 0)
    probs[best_rows[valid]] = -np.inf
    second_codes = segmented_argmax(probs, offsets)
    segment_idx = np.repeat(np.arange(n_objects, dtype=np.int64), lengths)
    second = np.full(n_objects, -np.inf)
    np.maximum.at(second, segment_idx, probs)
    margins = seg_max - second
    margins[lengths <= 1] = np.inf
    margins[~valid] = np.inf
    order = np.argsort(margins, kind="stable")
    n_ranked = int(np.count_nonzero(np.isfinite(margins)))
    for array in (margins, second_codes, order):
        array.setflags(write=False)
    return ConflictIndex(
        margins=margins, second_codes=second_codes, order=order, n_ranked=n_ranked
    )


class Snapshot:
    """One immutable published state of a fusion stream.

    Parameters
    ----------
    store:
        Ragged per-object posteriors; frozen in place at construction.
    object_ids:
        Object ids in store position order.
    pair_values:
        Flat claimed values aligned with the store's CSR rows.
    accuracy_vector, source_ids:
        Per-source reliability estimates (optional; given together, as a
        1-D vector with one entry per source id).
    overrides:
        Objects whose truth lies outside the claimed domain (store code
        -1), mapping to the out-of-domain value.
    truth:
        Revealed ground-truth labels at publish time.
    version, n_observations, n_refits:
        Publish bookkeeping surfaced by :meth:`stats`.
    dataset:
        Optional accumulated-stream dataset view with its compiled
        encoding attached (see the module docstring for the pickling
        contract).

    Queries never mutate the snapshot, so readers need no locks, and a
    superseded snapshot keeps answering with its own data for as long as
    anyone holds it.  Raises ``ValueError`` when the ids, claimed values
    or reliability vector do not match the store's sizes.
    """

    def __init__(
        self,
        store: PosteriorStore,
        object_ids: Sequence[ObjectId],
        pair_values: Sequence[Value],
        *,
        accuracy_vector: Optional[np.ndarray] = None,
        source_ids: Optional[Sequence[SourceId]] = None,
        overrides: Optional[Dict[ObjectId, Value]] = None,
        truth: Optional[Dict[ObjectId, Value]] = None,
        version: int = 0,
        n_observations: int = 0,
        n_refits: int = 0,
        dataset=None,
    ) -> None:
        self.store = store.freeze()
        self.object_ids = list(object_ids)
        self.pair_values = list(pair_values)
        self.accuracy_vector = (
            None if accuracy_vector is None else np.asarray(accuracy_vector, dtype=float)
        )
        self.source_ids = None if source_ids is None else list(source_ids)
        self.overrides = dict(overrides or {})
        self.truth = dict(truth or {})
        self.version = int(version)
        self.n_observations = int(n_observations)
        self.n_refits = int(n_refits)
        self.dataset = dataset
        self.conflicts = build_conflict_index(self.store)
        self._check_alignment()
        self._build_indexes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, version: int = 0) -> "Snapshot":
        """A snapshot with no objects (the server's pre-publish state)."""
        store = PosteriorStore(np.zeros(1, dtype=np.int64), np.zeros(0))
        return cls(store, [], [], version=version)

    @classmethod
    def from_result(
        cls,
        result,
        *,
        version: int = 0,
        n_observations: int = 0,
        n_refits: int = 0,
        truth: Optional[Dict[ObjectId, Value]] = None,
        dataset=None,
    ) -> "Snapshot":
        """Publish an array-backed :class:`~repro.fusion.result.FusionResult`.

        The result's posterior store is frozen **in place** (published
        arrays must never mutate); dict-backed results must go through
        ``attach_dataset`` first.
        """
        if not result.has_arrays:
            raise ValueError(
                "Snapshot requires an array-backed result; call "
                "attach_dataset(dataset) on dict-backed results first"
            )
        return cls(
            result.posterior_store,
            result.object_ids,
            result.pair_values,
            accuracy_vector=result.source_accuracy_vector,
            source_ids=result.source_ids,
            overrides=result.overrides,
            truth=truth,
            version=version,
            n_observations=n_observations,
            n_refits=n_refits,
            dataset=dataset,
        )

    @classmethod
    def from_fuser(
        cls, fuser, *, version: int = 0, with_dataset: bool = False
    ) -> "Snapshot":
        """Publish the current state of a ``StreamingFuser``.

        Uses :meth:`~repro.extensions.streaming.StreamingFuser.publish_state`;
        an empty stream publishes :meth:`empty`.  ``with_dataset=True``
        additionally exports the accumulated stream as a dataset with its
        frozen compiled encoding attached (an O(n) walk — leave it off on
        hot publish paths).
        """
        state = fuser.publish_state(with_dataset=with_dataset)
        result = state["result"]
        if not result.has_arrays:
            return cls.empty(version=version)
        return cls.from_result(
            result,
            version=version,
            n_observations=state["n_observations"],
            n_refits=state["n_refits"],
            truth=state["truth"],
            dataset=state["dataset"],
        )

    def _check_alignment(self) -> None:
        # Construction and unpickling (hence load) both run this, so a
        # snapshot whose parts disagree in size never serves a query.
        n_objects = self.store.n_objects
        if len(self.object_ids) != n_objects:
            raise ValueError(
                f"{len(self.object_ids)} object ids for a store of {n_objects} objects"
            )
        if len(self.pair_values) != self.store.n_rows:
            raise ValueError(
                f"{len(self.pair_values)} pair values for a store of {self.store.n_rows} rows"
            )
        for name in ("margins", "second_codes", "order"):
            length = len(getattr(self.conflicts, name))
            if length != n_objects:
                raise ValueError(
                    f"conflict index {name} has {length} entries for a store of "
                    f"{n_objects} objects"
                )
        if (self.accuracy_vector is None) != (self.source_ids is None):
            raise ValueError("accuracy_vector and source_ids must be given together")
        if self.source_ids is not None and self.accuracy_vector.shape != (len(self.source_ids),):
            raise ValueError(
                f"accuracy_vector of shape {self.accuracy_vector.shape} for "
                f"{len(self.source_ids)} source ids"
            )

    def _build_indexes(self) -> None:
        self._positions = {obj: i for i, obj in enumerate(self.object_ids)}
        self._source_positions = (
            {} if self.source_ids is None else {s: i for i, s in enumerate(self.source_ids)}
        )

    # ------------------------------------------------------------------
    # Shape / bookkeeping
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Objects covered by the snapshot."""
        return self.store.n_objects

    @property
    def n_sources(self) -> int:
        """Sources with reliability estimates."""
        return 0 if self.source_ids is None else len(self.source_ids)

    def stats(self) -> Dict[str, object]:
        """Publish bookkeeping: version, sizes, counters, byte footprint."""
        return {
            "version": self.version,
            "n_objects": self.n_objects,
            "n_rows": self.store.n_rows,
            "n_sources": self.n_sources,
            "n_observations": self.n_observations,
            "n_refits": self.n_refits,
            "n_conflicted": self.conflicts.n_ranked,
            "store_nbytes": self.store.nbytes,
        }

    # ------------------------------------------------------------------
    # Queries (lock-free; safe from any number of threads)
    # ------------------------------------------------------------------
    def position(self, obj: ObjectId) -> Optional[int]:
        """Store position of an object (None if unseen)."""
        return self._positions.get(obj)

    def posterior(self, obj: ObjectId) -> Dict[Value, float]:
        """Posterior over the object's claimed values ({} if unseen).

        Truth-clamped objects are exact point masses; objects whose truth
        lies outside the claimed domain report the claimed values at 0.0
        plus the override value at 1.0 — the same dict the streaming
        fuser's live ``posterior`` returns.
        """
        pos = self._positions.get(obj)
        if pos is None:
            return {}
        start = int(self.store.offsets[pos])
        stop = int(self.store.offsets[pos + 1])
        values = self.pair_values[start:stop]
        override = self.overrides.get(obj)
        if override is not None:
            clamped = {value: 0.0 for value in values}
            clamped[override] = 1.0
            return clamped
        return dict(zip(values, self.store.probs[start:stop].tolist()))

    def value(self, obj: ObjectId) -> Optional[Value]:
        """MAP value for an object (None if unseen)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        override = self.overrides.get(obj)
        if override is not None:
            return override
        code = int(self.store.value_codes[pos])
        return self.pair_values[int(self.store.offsets[pos]) + code]

    def confidence(self, obj: ObjectId) -> Optional[float]:
        """Posterior mass of the MAP value (1.0 for overrides)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        if obj in self.overrides:
            return 1.0
        code = int(self.store.value_codes[pos])
        return float(self.store.probs[int(self.store.offsets[pos]) + code])

    def margin(self, obj: ObjectId) -> Optional[float]:
        """MAP margin of an object (inf when it cannot conflict)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        return float(self.conflicts.margins[pos])

    def top_conflicts(self, k: int = 10) -> List[ConflictEntry]:
        """The ``k`` objects with the smallest MAP margin, ascending.

        An O(k) slice of the publish-time conflict index; only
        conflict-eligible objects (finite margin) are returned, so fewer
        than ``k`` entries come back on small or fully-clamped snapshots.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        offsets = self.store.offsets
        codes = self.store.value_codes
        probs = self.store.probs
        conflicts = self.conflicts
        entries = []
        for pos in conflicts.order[: min(k, conflicts.n_ranked)].tolist():
            start = int(offsets[pos])
            code = int(codes[pos])
            entries.append(
                ConflictEntry(
                    object=self.object_ids[pos],
                    map_value=self.pair_values[start + code],
                    runner_up=self.pair_values[start + int(conflicts.second_codes[pos])],
                    margin=float(conflicts.margins[pos]),
                    confidence=float(probs[start + code]),
                )
            )
        return entries

    def source_accuracy(self, source: SourceId) -> Optional[float]:
        """Estimated reliability of one source (None if unseen)."""
        pos = self._source_positions.get(source)
        if pos is None:
            return None
        return float(self.accuracy_vector[pos])

    def source_accuracies(self) -> Dict[SourceId, float]:
        """All per-source reliability estimates."""
        if self.source_ids is None:
            return {}
        return {
            source: float(acc)
            for source, acc in zip(self.source_ids, self.accuracy_vector)
        }

    # ------------------------------------------------------------------
    # Pickling / persistence
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("_positions", "_source_positions")
        }
        dataset = state.get("dataset")
        if dataset is not None:
            encoding = getattr(dataset, "_dense_encoding", None)
            if encoding is not None:
                # FusionDataset.__getstate__ drops its cached encoding (a
                # cache to workers, published state to us) — ship the
                # compile explicitly so unpickling never recompiles.
                state["_encoding_state"] = encoding.export_state()
        return state

    def __setstate__(self, state: dict) -> None:
        encoding_state = state.pop("_encoding_state", None)
        self.__dict__.update(state)
        self.store.freeze()
        self._check_alignment()
        self._build_indexes()
        if encoding_state is not None and self.dataset is not None:
            self.dataset._dense_encoding = DenseEncoding.from_state(
                self.dataset, encoding_state
            )

    def save(self, directory: str) -> str:
        """Write the snapshot under ``directory`` for a memmapped reload.

        The posterior store lands as ``.npy`` files (``store/``), the rest
        of the published state as a pickle (``meta.pkl``).  Returns the
        directory, ready for :meth:`load`.
        """
        os.makedirs(directory, exist_ok=True)
        self.store.save(os.path.join(directory, _STORE_DIR))
        state = self.__getstate__()
        state.pop("store")
        with open(os.path.join(directory, _META_FILE), "wb") as handle:
            pickle.dump(state, handle)
        return directory

    @classmethod
    def load(cls, directory: str, mmap: bool = False) -> "Snapshot":
        """Read a snapshot saved by :meth:`save`.

        With ``mmap=True`` the store's flat arrays attach as read-only
        ``numpy.memmap`` views — a warm start that serves posteriors from
        the OS page cache instead of loading them wholesale.  Raises
        ``ValueError`` when ``store/`` and ``meta.pkl`` disagree in size
        (e.g. a save interrupted between the two); parts of equal size
        from different saves are not detected.
        """
        store = PosteriorStore.load(os.path.join(directory, _STORE_DIR), mmap=mmap)
        with open(os.path.join(directory, _META_FILE), "rb") as handle:
            state = pickle.load(handle)
        state["store"] = store
        snapshot = cls.__new__(cls)
        snapshot.__setstate__(state)
        return snapshot
