"""Immutable published serving snapshots over the ragged posterior store.

A :class:`Snapshot` freezes one publishable state of a streaming fusion
run — the ragged :class:`~repro.fusion.posterior_store.PosteriorStore`,
the claimed-value layout (``object_ids``, CSR offsets, and a value table
with a frozen row index: store row ``r`` holds
``value_table[value_rows[r]]``), the per-source reliability vector, and
the revealed-truth bookkeeping.  A publish is array work: it precomputes
a position index (object id -> store position) and each object's MAP row
and value entry, so a point lookup is a few plain indexings.

The **conflict index** (:func:`build_conflict_index`: per-object MAP
margin ``p_max - p_runner_up``, argsorted ascending so
:meth:`Snapshot.top_conflicts` is a slice — the lowest-margin objects are
the ones the fused estimate is least sure about, the natural curation
queue for a live system) is derived state: the first ranking read
(``top_conflicts``, ``margin`` or ``stats``) builds it and the snapshot
keeps it.

Snapshots never mutate after construction (the store's flat arrays are
frozen via :meth:`~repro.fusion.posterior_store.PosteriorStore.freeze`;
a stream's value table is append-only and a snapshot reads only the
entries its rows index), so any number of reader threads can query one
concurrently without locks.  Construction, unpickling and
:meth:`Snapshot.load` all run the same alignment check: the object ids,
value row index and reliability vector must match the store's sizes, and
no row may point past the value table.  Pickled and saved state carries
:data:`FORMAT_VERSION`; any other version is refused.
"""

from __future__ import annotations

import os
import pickle
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fusion.posterior_store import PosteriorStore, segmented_argmax
from ..fusion.result import gather_values, table_prefix
from ..fusion.types import ObjectId, SourceId, Value

__all__ = ["Snapshot", "ConflictEntry", "ConflictIndex", "build_conflict_index"]

_META_FILE = "meta.pkl"
_STORE_DIR = "store"

#: Version of the pickled and saved snapshot state.  Version 3 holds the
#: candidate values as a value table plus a row index, no conflict index
#: and no dataset; version 2 could carry a dataset, and unversioned state
#: is the earlier layout.
FORMAT_VERSION = 3

#: Query lookups and caches rebuilt on construction and unpickling.
_DERIVED = (
    "_positions",
    "_source_positions",
    "_map_rows",
    "_row_entries",
    "_map_entries",
    "_conflicts",
    "_pair_values",
)


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
    """Per-snapshot conflict precomputation (see :func:`build_conflict_index`).

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
    value_table, value_rows:
        Candidate values and, per store row, the ``int64`` index of its
        value in ``value_table`` (``np.arange(len(values))`` for a flat
        list of row values).
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

    The constructor copies its inputs except the store, which it freezes
    in place; :meth:`from_result` shares the result's parts instead.
    Queries never mutate the snapshot, so readers need no locks, and a
    superseded snapshot keeps answering with its own data for as long as
    anyone holds it.  Raises ``ValueError`` when the ids, value rows or
    reliability vector do not match the store's sizes, or a row points
    past the value table.

    Construction and unpickling build the query lookups, which are never
    pickled: the object and source id -> position maps (:meth:`from_result`
    shares the result's ``position_index()`` and
    ``source_position_index()``, C-level copies of the encoding's id
    indexes when the result spans the encoding), each object's MAP row
    ``offsets[pos] + max(code, 0)``, its value-table entry, and the row
    index itself, as ``array("q")`` that :meth:`confidence`,
    :meth:`value` and :meth:`posterior` index directly.
    """

    def __init__(
        self,
        store: PosteriorStore,
        object_ids: Sequence[ObjectId],
        value_table: Sequence[Value],
        value_rows: np.ndarray,
        *,
        accuracy_vector: Optional[np.ndarray] = None,
        source_ids: Optional[Sequence[SourceId]] = None,
        overrides: Optional[Dict[ObjectId, Value]] = None,
        truth: Optional[Dict[ObjectId, Value]] = None,
        version: int = 0,
        n_observations: int = 0,
        n_refits: int = 0,
    ) -> None:
        self._adopt(
            {
                "store": store,
                "object_ids": list(object_ids),
                "value_table": list(value_table),
                "value_rows": np.array(value_rows, dtype=np.int64),
                "accuracy_vector": (
                    None if accuracy_vector is None else np.asarray(accuracy_vector, dtype=float)
                ),
                "source_ids": None if source_ids is None else list(source_ids),
                "overrides": dict(overrides or {}),
                "truth": dict(truth or {}),
                "version": int(version),
                "n_observations": int(n_observations),
                "n_refits": int(n_refits),
            }
        )

    def _adopt(self, parts: Dict[str, object]) -> None:
        """Take ``parts`` as the snapshot's state as given (no copies), freeze
        its arrays, check their alignment and build the query lookups."""
        self.__dict__.update(parts)
        self.store.freeze()
        self._check_alignment()
        self.value_rows.setflags(write=False)
        self._build_indexes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, version: int = 0) -> "Snapshot":
        """A snapshot with no objects (the server's pre-publish state)."""
        store = PosteriorStore(np.zeros(1, dtype=np.int64), np.zeros(0))
        return cls(store, [], [], np.zeros(0, dtype=np.int64), version=version)

    @classmethod
    def from_result(
        cls,
        result,
        *,
        version: int = 0,
        n_observations: int = 0,
        n_refits: int = 0,
        truth: Optional[Dict[ObjectId, Value]] = None,
    ) -> "Snapshot":
        """Publish an array-backed :class:`~repro.fusion.result.FusionResult`.

        The snapshot shares the result's parts instead of copying them:
        its posterior store (frozen **in place** — published arrays must
        never mutate), id lists, value table and row index, overrides,
        position maps, and the ``truth`` mapping given.  Dict-backed
        results must go through ``attach_dataset`` first.
        """
        if not result.has_arrays:
            raise ValueError(
                "Snapshot requires an array-backed result; call "
                "attach_dataset(dataset) on dict-backed results first"
            )
        snapshot = cls.__new__(cls)
        snapshot._adopt(
            {
                "store": result.posterior_store,
                "object_ids": result.object_ids,
                "value_table": result.value_table,
                "value_rows": result.value_rows,
                "accuracy_vector": result.source_accuracy_vector,
                "source_ids": result.source_ids,
                "overrides": result.overrides,
                "truth": {} if truth is None else truth,
                "version": int(version),
                "n_observations": int(n_observations),
                "n_refits": int(n_refits),
                # _build_indexes keeps these.
                "_positions": result.position_index(),
                "_source_positions": result.source_position_index(),
            }
        )
        return snapshot

    @classmethod
    def from_fuser(cls, fuser, *, version: int = 0) -> "Snapshot":
        """Publish the current state of a ``StreamingFuser``.

        Uses :meth:`~repro.extensions.streaming.StreamingFuser.publish_state`;
        an empty stream publishes :meth:`empty`.
        """
        state = fuser.publish_state()
        result = state["result"]
        if not result.has_arrays:
            return cls.empty(version=version)
        return cls.from_result(
            result,
            version=version,
            n_observations=state["n_observations"],
            n_refits=state["n_refits"],
            truth=state["truth"],
        )

    def _check_alignment(self) -> None:
        # Construction and unpickling (hence load) both run this, so a
        # snapshot whose parts disagree in size never serves a query.
        n_objects = self.store.n_objects
        if len(self.object_ids) != n_objects:
            raise ValueError(
                f"{len(self.object_ids)} object ids for a store of {n_objects} objects"
            )
        n_rows = self.store.n_rows
        rows = self.value_rows
        if not (
            isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape == (n_rows,)
        ):
            raise ValueError(
                f"value row index must be an int64 array with one entry per row; "
                f"got {getattr(rows, 'shape', None)} for a store of {n_rows} rows"
            )
        n_values = len(self.value_table)
        if n_rows and (rows.min() < 0 or rows.max() >= n_values):
            raise ValueError(f"value row index points outside a table of {n_values} values")
        if (self.accuracy_vector is None) != (self.source_ids is None):
            raise ValueError("accuracy_vector and source_ids must be given together")
        if self.source_ids is not None and self.accuracy_vector.shape != (len(self.source_ids),):
            raise ValueError(
                f"accuracy_vector of shape {self.accuracy_vector.shape} for "
                f"{len(self.source_ids)} source ids"
            )

    def _build_indexes(self) -> None:
        if "_positions" not in self.__dict__:
            self._positions = {obj: i for i, obj in enumerate(self.object_ids)}
        if "_source_positions" not in self.__dict__:
            self._source_positions = (
                {} if self.source_ids is None else {s: i for i, s in enumerate(self.source_ids)}
            )
        map_rows = self.store.offsets[:-1] + np.maximum(self.store.value_codes, 0)
        self._map_rows = array("q", map_rows.tobytes())
        self._row_entries = array("q", self.value_rows.tobytes())
        # Only an empty span's map row can fall past the last row; its
        # entry is never read (value() answers such objects from overrides).
        entries = self.value_rows.take(map_rows, mode="clip") if self.store.n_rows else map_rows
        self._map_entries = array("q", entries.tobytes())
        self._conflicts: Optional[ConflictIndex] = None
        self._pair_values: Optional[List[Value]] = None

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
        """Publish bookkeeping: version, sizes, counters, byte footprint.

        ``n_conflicted`` reads the conflict index, building it on first use.
        """
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

    @property
    def conflicts(self) -> ConflictIndex:
        """The store's :class:`ConflictIndex`, built on first read and kept.

        Readers racing on a fresh snapshot may each build it; they build
        equal frozen arrays, and one attribute assignment keeps one of them.
        """
        index = self._conflicts
        if index is None:
            index = self._conflicts = build_conflict_index(self.store)
        return index

    @property
    def pair_values(self) -> List[Value]:
        """Claimed value of every store row, in row order.

        Gathered from ``value_table`` through ``value_rows`` on first read,
        then cached; the query paths read the table directly.
        """
        values = self._pair_values
        if values is None:
            values = self._pair_values = gather_values(self.value_table, self.value_rows)
        return values

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
        values = map(self.value_table.__getitem__, self._row_entries[start:stop])
        if obj in self.overrides:
            clamped = dict.fromkeys(values, 0.0)
            clamped[self.overrides[obj]] = 1.0
            return clamped
        return dict(zip(values, self.store.probs[start:stop].tolist()))

    def value(self, obj: ObjectId) -> Optional[Value]:
        """MAP value for an object (None if unseen)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        if obj in self.overrides:
            return self.overrides[obj]
        return self.value_table[self._map_entries[pos]]

    def confidence(self, obj: ObjectId) -> Optional[float]:
        """Posterior mass of the MAP value (1.0 for overrides)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        if obj in self.overrides:
            return 1.0
        return float(self.store.probs[self._map_rows[pos]])

    def margin(self, obj: ObjectId) -> Optional[float]:
        """MAP margin of an object (inf when it cannot conflict)."""
        pos = self._positions.get(obj)
        if pos is None:
            return None
        return float(self.conflicts.margins[pos])

    def top_conflicts(self, k: int = 10) -> List[ConflictEntry]:
        """The ``k`` objects with the smallest MAP margin, ascending.

        An O(k) slice of the conflict index (built on the snapshot's first
        ranking read); only conflict-eligible objects (finite margin) are
        returned, so fewer than ``k`` entries come back on small or
        fully-clamped snapshots.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        offsets = self.store.offsets
        probs = self.store.probs
        table = self.value_table
        conflicts = self.conflicts
        entries = []
        for pos in conflicts.order[: min(k, conflicts.n_ranked)].tolist():
            runner_up = int(offsets[pos]) + int(conflicts.second_codes[pos])
            entries.append(
                ConflictEntry(
                    object=self.object_ids[pos],
                    map_value=table[self._map_entries[pos]],
                    runner_up=table[self._row_entries[runner_up]],
                    margin=float(conflicts.margins[pos]),
                    confidence=float(probs[self._map_rows[pos]]),
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
        state = {key: value for key, value in self.__dict__.items() if key not in _DERIVED}
        # A stream's table is shared and may have grown since the publish.
        state["value_table"] = table_prefix(self.value_table, self.value_rows)
        state["format_version"] = FORMAT_VERSION
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        found = state.pop("format_version", None)
        if found != FORMAT_VERSION:
            saved = "no format version" if found is None else f"format version {found!r}"
            raise ValueError(
                f"snapshot state has {saved}; this version of repro reads format "
                f"version {FORMAT_VERSION}: re-save the snapshot with this version"
            )
        self._adopt(state)

    def save(self, directory: str) -> str:
        """Write the snapshot under ``directory`` for a memmapped reload.

        The posterior store lands as ``.npy`` files (``store/``), the rest
        of the published state (with :data:`FORMAT_VERSION`, the value
        table's published entries and the row index) as a pickle
        (``meta.pkl``).  Returns the directory, ready for :meth:`load`.
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
        ``ValueError`` when ``meta.pkl`` holds another format version than
        :data:`FORMAT_VERSION`, or when ``store/`` and ``meta.pkl``
        disagree in size (e.g. a save interrupted between the two); parts
        of equal size from different saves are not detected.
        """
        store = PosteriorStore.load(os.path.join(directory, _STORE_DIR), mmap=mmap)
        with open(os.path.join(directory, _META_FILE), "rb") as handle:
            state = pickle.load(handle)
        state["store"] = store
        snapshot = cls.__new__(cls)
        snapshot.__setstate__(state)
        return snapshot
