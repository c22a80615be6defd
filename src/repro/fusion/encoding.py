"""Dense array encoding of a fusion dataset (the fusion engine's core).

Every hot path in the library — exact posteriors, the EM E-step, ERM
objectives and the factor-graph Gibbs sweeps — needs the same bookkeeping:
which observations describe which object, which source and claimed value
each observation carries, and the flattened (object, candidate-value) rows
the per-object softmax normalizes over.  Re-deriving this by walking
per-object dicts in Python on every call (what the loop oracles under
``tests/oracles/`` still do) dominates the runtime at paper scale.

:class:`DenseEncoding` compiles all of it **once** into flat NumPy index
arrays:

* a CSR-style layout of observations grouped by object
  (:attr:`~DenseEncoding.obs_offsets` row spans over the object-sorted
  :attr:`~DenseEncoding.obs_source_idx` / :attr:`~DenseEncoding.obs_value_code`
  vectors),
* the flattened candidate-pair layout (:attr:`~DenseEncoding.pair_offsets`,
  :attr:`~DenseEncoding.pair_object_idx`, :attr:`~DenseEncoding.obs_pair_idx`,
  :attr:`~DenseEncoding.base_scores`) shared with
  :class:`~repro.core.structure.PairStructure`,
* a cached design matrix per ``use_features`` flag, so repeated fits do not
  re-encode source metadata.

Use :func:`encode_dataset` to obtain the encoding; it memoizes one instance
per (immutable) dataset, so the compilation cost is paid once per dataset
no matter how many learners consume it.

For append-only workloads (streams, growing feeds) recompiling the whole
encoding on every arrival would be the one remaining O(dataset) step.
:class:`IncrementalEncoding` is the appendable form of the same encoding:
it owns its id tables, interns each batch with the routine the dataset
container uses (:func:`~repro.fusion.dataset.intern_columns`) in
O(batch) amortized, and runs the same compile function
(:func:`compile_arrays`) lazily after appends — so its arrays are
bit-identical to a cold compile of the accumulated dataset (the contract
pinned in ``tests/test_incremental_encoding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .dataset import FusionDataset, as_records, intern_columns, record_columns
from .features import FeatureSpace, build_design_matrix
from .types import Indexer, ObjectId, Observation, SourceId, Value


def frozen_copy(array: np.ndarray) -> np.ndarray:
    """An owning, read-only copy of ``array``.

    Used wherever live (still-mutating) buffers are exported as snapshot
    views — the copy detaches the export from the source's lifecycle, and
    the cleared ``writeable`` flag turns any later accidental in-place
    mutation of the export into an immediate error instead of silent
    corruption.
    """
    out = np.array(array)
    out.setflags(write=False)
    return out


def expand_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start + length)`` for each span, vectorized.

    The workhorse of segment-wise gathers: given CSR span starts and
    lengths it produces every covered index without a Python-level loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Exclusive prefix sum gives each span's first output position; the
    # difference between a flat arange and that position is the offset
    # within the span.
    first_out = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(first_out, lengths)
    return np.repeat(starts, lengths) + within


def compile_arrays(
    obs_order: np.ndarray,
    obs_counts: np.ndarray,
    obs_source_idx: np.ndarray,
    obs_value_code: np.ndarray,
    domain_sizes: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Compile the :attr:`DenseEncoding.ARRAY_FIELDS` arrays.

    The one compile behind both encodings.  The inputs list every
    observation grouped by object (objects in index order, arrival order
    within an object) — its original row, source index and within-domain
    value code — plus each object's observation count and domain size.
    The CSR offsets, the candidate-pair layout and ``base_scores`` are
    derived from them with the same NumPy operations in the same order, so
    equal inputs give bit-identical arrays.
    """
    n_objects = domain_sizes.shape[0]
    objects = np.arange(n_objects, dtype=np.int64)
    obs_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(obs_counts, dtype=np.int64)]
    )
    obs_object_idx = np.repeat(objects, obs_counts)
    pair_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(domain_sizes, dtype=np.int64)]
    )
    obs_pair_idx = pair_offsets[obs_object_idx] + obs_value_code
    log_alternatives = np.log(np.maximum(domain_sizes - 1, 1).astype(float))
    return {
        "obs_order": obs_order,
        "obs_offsets": obs_offsets,
        "obs_object_idx": obs_object_idx,
        "obs_source_idx": obs_source_idx,
        "obs_value_code": obs_value_code,
        "domain_sizes": domain_sizes,
        "pair_offsets": pair_offsets,
        "pair_object_idx": np.repeat(objects, domain_sizes),
        "pair_value_code": expand_spans(np.zeros(n_objects, dtype=np.int64), domain_sizes),
        "obs_pair_idx": obs_pair_idx,
        "log_alternatives": log_alternatives,
        "base_scores": np.bincount(
            obs_pair_idx,
            weights=log_alternatives[obs_object_idx],
            minlength=int(pair_offsets[-1]),
        ),
    }


def _compiled_array(name: str) -> property:
    """Read-only property serving one :attr:`DenseEncoding.ARRAY_FIELDS` array."""
    return property(lambda self: self._compiled()[name])


class DenseEncoding:
    """One-time dense compilation of a :class:`FusionDataset`.

    The encoding shares the dataset's id tables (``sources``, ``objects``,
    the per-object value domains and ``source_features``) and holds the
    compiled index arrays.  All arrays are aligned either to
    *object-sorted observation order* (``obs_*``: observations grouped
    contiguously by object index) or to the *flattened candidate-pair
    layout* (``pair_*``: one row per distinct (object, claimed value) pair,
    objects in dataset index order).

    Attributes
    ----------
    obs_order:
        Permutation mapping object-sorted positions to the dataset's
        original observation rows (stable within an object).
    obs_offsets:
        ``(n_objects + 1,)`` CSR offsets: observations of object ``o`` live
        at sorted positions ``obs_offsets[o]:obs_offsets[o + 1]``.
    obs_object_idx, obs_source_idx, obs_value_code:
        Per object-sorted observation: its object index, source index and
        within-domain value code.
    domain_sizes:
        ``|D_o|`` per object.
    pair_offsets, pair_object_idx:
        CSR layout of candidate rows per object and its expansion.
    pair_value_code:
        Within-domain value code of each candidate row.
    obs_pair_idx:
        Candidate row each (object-sorted) observation votes for.
    log_alternatives:
        ``log(max(|D_o| - 1, 1))`` per object (multi-valued domain
        correction).
    base_scores:
        Per candidate row, ``votes * log(|D_o| - 1)`` — the fixed score
        offset of :class:`~repro.core.structure.PairStructure`.
    """

    #: Compiled index arrays, in compile order; the unit of the picklable
    #: :meth:`export_state` snapshot.
    ARRAY_FIELDS = (
        "obs_order",
        "obs_offsets",
        "obs_object_idx",
        "obs_source_idx",
        "obs_value_code",
        "domain_sizes",
        "pair_offsets",
        "pair_object_idx",
        "pair_value_code",
        "obs_pair_idx",
        "log_alternatives",
        "base_scores",
    )

    def __init__(self, dataset: FusionDataset) -> None:
        self._adopt(dataset)
        self._compiled()

    def _adopt(self, dataset: FusionDataset) -> None:
        """Share ``dataset``'s id tables and start with empty caches."""
        self.dataset = dataset
        self.name = dataset.name
        self.sources = dataset.sources
        self.objects = dataset.objects
        self.source_features = dataset.source_features
        self._domains = dataset._domains
        self._n_obs = dataset.n_observations
        self._arrays: Optional[Dict[str, np.ndarray]] = None
        self._pair_values: Optional[List[Value]] = None
        self._design_cache: Dict[bool, object] = {}
        # Featurizer dataset digest, filled by FeaturizerPipeline.featurize.
        self._digest: Optional[str] = None
        # (truth copy, labeled, codes) of the last truth_codes call.
        self._truth_memo: Optional[Tuple[dict, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Compiled arrays
    # ------------------------------------------------------------------
    def _object_groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, counts, sources, value codes)`` grouped by object."""
        dataset = self.dataset
        order = np.argsort(dataset.obs_object_idx, kind="stable")
        counts = np.bincount(dataset.obs_object_idx, minlength=self.n_objects)
        return order, counts, dataset.obs_source_idx[order], dataset.obs_value_idx[order]

    def _domain_sizes(self) -> np.ndarray:
        return np.asarray([len(domain) for domain in self._domains], dtype=np.int64)

    def _compiled(self) -> Dict[str, np.ndarray]:
        """The :attr:`ARRAY_FIELDS` arrays, compiled on first use."""
        if self._arrays is None:
            if self._n_obs == 0:
                raise ValueError(
                    "cannot encode a dataset with zero observations; "
                    "append observations before compiling the index arrays"
                )
            domain_sizes = self._domain_sizes()
            empty_domains = np.flatnonzero(domain_sizes == 0).tolist()
            if empty_domains:
                raise ValueError(
                    f"cannot encode objects with an empty claimed domain "
                    f"(object indices {empty_domains[:5]}); every indexed object "
                    f"needs at least one observation"
                )
            self._arrays = compile_arrays(*self._object_groups(), domain_sizes)
        return self._arrays

    obs_order = _compiled_array("obs_order")
    obs_offsets = _compiled_array("obs_offsets")
    obs_object_idx = _compiled_array("obs_object_idx")
    obs_source_idx = _compiled_array("obs_source_idx")
    obs_value_code = _compiled_array("obs_value_code")
    domain_sizes = _compiled_array("domain_sizes")
    pair_offsets = _compiled_array("pair_offsets")
    pair_object_idx = _compiled_array("pair_object_idx")
    pair_value_code = _compiled_array("pair_value_code")
    obs_pair_idx = _compiled_array("obs_pair_idx")
    log_alternatives = _compiled_array("log_alternatives")
    base_scores = _compiled_array("base_scores")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_observations(self) -> int:
        return self._n_obs

    @property
    def n_pairs(self) -> int:
        return int(self.pair_offsets[-1])

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def shard(self, n_shards: int):
        """Contiguous object-range shards of this encoding.

        The encoding carries every array :func:`repro.fusion.sharding.
        shard_structure` slices (CSR candidate layout, object-grouped
        observation rows, ``base_scores``), so an encoding can feed the
        sharded E-step directly — each returned
        :class:`~repro.fusion.sharding.StructureShard` is bit-compatible
        with the matching global slice.
        """
        from .sharding import shard_structure

        return shard_structure(self, n_shards)

    # ------------------------------------------------------------------
    # Candidate values
    # ------------------------------------------------------------------
    def domain_by_index(self, o_idx: int) -> Indexer[Value]:
        """Domain indexer for the object with integer index ``o_idx``."""
        return self._domains[o_idx]

    @property
    def pair_values(self) -> List[Value]:
        """Claimed value of every candidate row (lazily materialized)."""
        if self._pair_values is None:
            values: List[Value] = []
            for domain in self._domains:
                values.extend(domain)
            self._pair_values = values
        return self._pair_values

    # ------------------------------------------------------------------
    # Cached design matrix
    # ------------------------------------------------------------------
    def design(self, use_features: bool = True) -> Tuple[np.ndarray, FeatureSpace]:
        """The ``|S| x |K|`` design matrix, built once per ``use_features``."""
        key = bool(use_features)
        cached = self._design_cache.get(key)
        if cached is None:
            cached = build_design_matrix(self.dataset, use_features=key)
            self._design_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Ground-truth codings
    # ------------------------------------------------------------------
    def truth_codes(self, truth: Mapping[ObjectId, Value]) -> Tuple[np.ndarray, np.ndarray]:
        """Encode a truth mapping as per-object arrays.

        Returns ``(labeled, codes)`` where ``labeled`` is a boolean mask of
        objects present in ``truth`` and ``codes`` holds the within-domain
        value code of the true value (-1 when the object is unlabeled *or*
        its true value was never claimed by any source).

        The last result is memoized until the next append and reused for
        any ``==``-equal ``truth`` (domain lookups are dict lookups, so equal
        values code identically).  Every caller shares the arrays, so both
        are read-only.
        """
        memo = self._truth_memo
        if memo is not None and memo[0] == truth:
            return memo[1], memo[2]
        labeled = np.zeros(self.n_objects, dtype=bool)
        codes = np.full(self.n_objects, -1, dtype=np.int64)
        objects = self.objects
        for obj, value in truth.items():
            o_idx = objects.get(obj)
            if o_idx is None:
                continue
            labeled[o_idx] = True
            code = self._domains[o_idx].get(value)
            if code is not None:
                codes[o_idx] = code
        labeled.setflags(write=False)
        codes.setflags(write=False)
        self._truth_memo = (dict(truth), labeled, codes)
        return labeled, codes

    def label_rows(self, truth: Mapping[ObjectId, Value]) -> np.ndarray:
        """Candidate row of each object's true value; -1 when unavailable.

        Matches :meth:`repro.core.structure.PairStructure.label_rows` for
        the full-dataset structure.
        """
        _, codes = self.truth_codes(truth)
        rows = np.full(self.n_objects, -1, dtype=np.int64)
        claimed = codes >= 0
        rows[claimed] = self.pair_offsets[:-1][claimed] + codes[claimed]
        return rows

    # ------------------------------------------------------------------
    # Cross-process export
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Picklable snapshot of the compile.

        Bundles the index arrays (:attr:`ARRAY_FIELDS`), the materialized
        candidate values and every cached design matrix, so a worker
        process can rebuild the encoding with :meth:`from_state` instead of
        paying the cold compile again.  The parallel sweep engine ships
        this once per sweep (large arrays optionally through
        ``multiprocessing.shared_memory``, see
        :mod:`repro.experiments.parallel`).
        """
        return {
            "arrays": {name: getattr(self, name) for name in self.ARRAY_FIELDS},
            "pair_values": list(self.pair_values),
            "design_cache": {key: self.design(key) for key in self._design_cache},
        }

    @classmethod
    def from_state(cls, dataset: FusionDataset, state: dict) -> "DenseEncoding":
        """Rebuild a :class:`DenseEncoding` from :meth:`export_state` output.

        ``dataset`` must hold the observations the state was exported from
        (the worker-side unpickled copy, or an incremental encoding's
        :meth:`~IncrementalEncoding.to_dataset` export); no index arrays
        are recompiled.
        """
        dense = DenseEncoding.__new__(DenseEncoding)
        dense._adopt(dataset)
        dense._arrays = {name: state["arrays"][name] for name in cls.ARRAY_FIELDS}
        dense._pair_values = list(state["pair_values"])
        dense._design_cache = dict(state["design_cache"])
        return dense


def encode_dataset(dataset: FusionDataset) -> DenseEncoding:
    """Return the dataset's :class:`DenseEncoding`, compiling it on first use.

    The encoding is cached on the (immutable) dataset instance, so every
    learner, the inference engine and the Gibbs compiler share one copy.
    An encoding — an :class:`IncrementalEncoding` included — is its own
    encoding, which lets the consumers that read only the encoding
    (``build_pair_structure``, ``EMLearner.fit``/``fit_incremental`` and
    ``FeaturizerPipeline.design_for``) take one in place of a dataset.
    """
    if isinstance(dataset, DenseEncoding):
        return dataset
    cached = getattr(dataset, "_dense_encoding", None)
    if cached is None:
        cached = DenseEncoding(dataset)
        dataset._dense_encoding = cached
    return cached


# ----------------------------------------------------------------------
# Incremental (append-only) encoding
# ----------------------------------------------------------------------
class _AppendBuffer:
    """1-D growable buffer with amortized-doubling capacity."""

    def __init__(self, dtype, capacity: int = 16) -> None:
        self._store = np.zeros(capacity, dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def data(self) -> np.ndarray:
        """Writable view of the filled prefix."""
        return self._store[: self._n]

    def grow(self, n: int) -> None:
        """Grow the filled prefix to ``n`` entries; new entries are zero."""
        if n <= self._n:
            return
        if n > self._store.shape[0]:
            fresh = np.zeros(max(2 * self._store.shape[0], n), dtype=self._store.dtype)
            fresh[: self._n] = self._store[: self._n]
            self._store = fresh
        self._n = n


@dataclass
class AppendBatch:
    """Index view of one :meth:`IncrementalEncoding.append` batch.

    All arrays are aligned to the batch's arrival order and use the
    encoding's (stable) integer indexing, so consumers like
    :class:`~repro.extensions.streaming.StreamingFuser` can process the
    batch with pure array arithmetic.

    Attributes
    ----------
    source_idx, object_idx, value_code:
        Per batch observation: its source index, object index, and
        within-domain value code.
    values:
        The raw claimed values, aligned with the arrays.
    n_new_sources, n_new_objects:
        How many sources/objects this batch introduced (their indices are
        the trailing ones).
    """

    source_idx: np.ndarray
    object_idx: np.ndarray
    value_code: np.ndarray
    values: List[Value] = field(default_factory=list)
    n_new_sources: int = 0
    n_new_objects: int = 0

    def __len__(self) -> int:
        return int(self.source_idx.shape[0])


class IncrementalEncoding(DenseEncoding):
    """The appendable form of :class:`DenseEncoding`.

    Observations arrive in batches via :meth:`append`; each batch updates
    the encoding in **O(batch) amortized** time instead of the O(dataset)
    recompile a fresh :class:`DenseEncoding` would cost:

    * the encoding owns its id tables and interns each batch with
      :func:`~repro.fusion.dataset.intern_columns`, the routine the
      :class:`~repro.fusion.dataset.FusionDataset` container uses (arrival
      order defines index order, first-seen order defines value codes;
      duplicate ``(source, object)`` claims and NaN values are rejected
      before anything changes, so appends are atomic);
    * the CSR object→observation layout lives in a *slot store* where each
      object's span carries doubling capacity slack — appending to a full
      span relocates it to the store's tail and doubles it, so placement
      is amortized O(1) per observation;
    * design-matrix rows are encoded once per **new** source against a
      :class:`~repro.fusion.features.FeatureSpace` fitted up front on the
      full ``source_features`` mapping.

    The :attr:`~DenseEncoding.ARRAY_FIELDS` arrays are read through the
    base class's properties: the first read after an append runs
    :func:`compile_arrays` over the slot store, and the result is cached
    until the next append.  **Equivalence contract:** after any sequence of
    appends, every array equals a cold ``DenseEncoding`` of the accumulated
    dataset — bit-identical index arrays and ``base_scores`` (same compile,
    same reduction order), design matrix within ``atol=1e-12`` (it is
    byte-equal in practice).  The contract is pinned in
    ``tests/test_incremental_encoding.py``.

    The sizes, :meth:`~DenseEncoding.domain_by_index`,
    :attr:`live_domain_sizes` and :meth:`object_claims` read the live append
    state and never compile, so the streaming hot path stays O(batch).
    """

    def __init__(
        self,
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
        name: str = "incremental-dataset",
    ) -> None:
        self.name = name
        self.sources: Indexer[SourceId] = Indexer()
        self.objects: Indexer[ObjectId] = Indexer()
        self.source_features: Dict[SourceId, Dict[str, object]] = {
            src: dict(feats) for src, feats in (source_features or {}).items()
        }
        self._domains: List[Indexer[Value]] = []
        self._seen_pairs: set = set()
        self._n_obs = 0
        self._arrays = None
        self._pair_values = None
        self._digest = None
        self._truth_memo = None

        # Slot store backing the CSR spans (parallel arrays, manual doubling).
        self._store_src = np.zeros(16, dtype=np.int64)
        self._store_val = np.zeros(16, dtype=np.int64)
        self._store_row = np.zeros(16, dtype=np.int64)
        self._store_used = 0

        # Per-object span bookkeeping and domain sizes.
        self._span_start = _AppendBuffer(np.int64)
        self._span_len = _AppendBuffer(np.int64)
        self._span_cap = _AppendBuffer(np.int64)
        self._live_sizes = _AppendBuffer(np.int64)

        # use_features flag -> [row store (capacity array), n encoded, space]
        self._design_cache = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: FusionDataset) -> "IncrementalEncoding":
        """Seed an incremental encoding with an existing dataset's stream."""
        encoding = cls(source_features=dataset.source_features, name=dataset.name)
        encoding.append(dataset.observations)
        return encoding

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self, observations: Iterable[Observation | Tuple[SourceId, ObjectId, Value]]
    ) -> AppendBatch:
        """Ingest one batch of observations in O(batch) amortized time.

        Returns the batch's :class:`AppendBatch` index view.  An empty
        batch is a no-op.  Raises
        :class:`~repro.fusion.types.DatasetError` on a duplicate
        ``(source, object)`` claim or a NaN claim value, mirroring the
        dataset container.
        """
        n_sources_before = self.n_sources
        n_objects_before = self.n_objects
        sources, objects, values = record_columns(as_records(observations))
        source_idx, object_idx, value_code = intern_columns(
            sources, objects, values, self.sources, self.objects, self._domains, self._seen_pairs
        )
        if not values:
            return AppendBatch(source_idx=source_idx, object_idx=object_idx, value_code=value_code)

        n_objects = self.n_objects
        for buffer in (self._span_start, self._span_len, self._span_cap, self._live_sizes):
            buffer.grow(n_objects)
        # Value codes are first-seen indices, so a domain's size is its
        # largest code plus one.
        np.maximum.at(self._live_sizes.data, object_idx, value_code + 1)
        self._place(object_idx, source_idx, value_code, first_row=self._n_obs)
        self._n_obs += len(values)
        self._arrays = None
        self._pair_values = None
        self._digest = None
        self._truth_memo = None
        return AppendBatch(
            source_idx=source_idx,
            object_idx=object_idx,
            value_code=value_code,
            values=values,
            n_new_sources=self.n_sources - n_sources_before,
            n_new_objects=n_objects - n_objects_before,
        )

    def _place(
        self,
        object_idx: np.ndarray,
        source_idx: np.ndarray,
        value_code: np.ndarray,
        first_row: int,
    ) -> None:
        """Write a batch into the slot store, relocating overfull spans."""
        touched, counts = np.unique(object_idx, return_counts=True)
        start = self._span_start.data
        length = self._span_len.data
        cap = self._span_cap.data
        for o, count in zip(touched.tolist(), counts.tolist()):
            need = int(length[o]) + count
            if need <= cap[o]:
                continue
            new_cap = max(4, 2 * int(cap[o]), need)
            self._reserve_store(new_cap)
            new_start = self._store_used
            if length[o]:
                src = slice(int(start[o]), int(start[o] + length[o]))
                dst = slice(new_start, new_start + int(length[o]))
                self._store_src[dst] = self._store_src[src]
                self._store_val[dst] = self._store_val[src]
                self._store_row[dst] = self._store_row[src]
            start[o] = new_start
            cap[o] = new_cap
            self._store_used = new_start + new_cap

        # Stable within-batch order keeps each span in arrival order, the
        # same order the cold compile's stable argsort produces.
        order = np.argsort(object_idx, kind="stable")
        sorted_objects = object_idx[order]
        n_batch = order.shape[0]
        group_first = np.flatnonzero(
            np.concatenate([[True], sorted_objects[1:] != sorted_objects[:-1]])
        )
        group_sizes = np.diff(np.concatenate([group_first, [n_batch]]))
        within = np.arange(n_batch, dtype=np.int64) - np.repeat(group_first, group_sizes)
        slots = start[sorted_objects] + length[sorted_objects] + within
        self._store_src[slots] = source_idx[order]
        self._store_val[slots] = value_code[order]
        self._store_row[slots] = first_row + order
        length[touched] += counts

    def _reserve_store(self, extra: int) -> None:
        need = self._store_used + extra
        capacity = self._store_src.shape[0]
        if need <= capacity:
            return
        new_capacity = max(2 * capacity, need)
        for attr in ("_store_src", "_store_val", "_store_row"):
            old = getattr(self, attr)
            fresh = np.zeros(new_capacity, dtype=np.int64)
            fresh[: self._store_used] = old[: self._store_used]
            setattr(self, attr, fresh)

    # ------------------------------------------------------------------
    # Compile inputs (see DenseEncoding._compiled)
    # ------------------------------------------------------------------
    def _object_groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        length = self._span_len.data
        positions = expand_spans(self._span_start.data, length)
        return (
            self._store_row[positions],
            length,
            self._store_src[positions],
            self._store_val[positions],
        )

    def _domain_sizes(self) -> np.ndarray:
        return self._live_sizes.data.copy()

    # ------------------------------------------------------------------
    # Live reads (never compile)
    # ------------------------------------------------------------------
    @property
    def live_domain_sizes(self) -> np.ndarray:
        """Per-object domain sizes, read from the live append state.

        Unlike :attr:`domain_sizes` this never compiles, so O(batch)
        consumers (the streaming fuser) can read it on every batch.  The
        returned view is only valid until the next append.
        """
        return self._live_sizes.data

    def object_claims(self, o_idx: int, with_rows: bool = False):
        """``(source_idx, value_code[, arrival_row])`` of one object's claims.

        Claims come back in arrival order.  Reads the live span directly
        (no compile); the arrays are copies and remain valid across
        appends.
        """
        start = int(self._span_start.data[o_idx])
        length = int(self._span_len.data[o_idx])
        span = slice(start, start + length)
        if with_rows:
            return (
                self._store_src[span].copy(),
                self._store_val[span].copy(),
                self._store_row[span].copy(),
            )
        return self._store_src[span].copy(), self._store_val[span].copy()

    # ------------------------------------------------------------------
    # Cached design matrix
    # ------------------------------------------------------------------
    def design(self, use_features: bool = True) -> Tuple[np.ndarray, FeatureSpace]:
        """The current ``|S| x |K|`` design matrix, extended per new source.

        The :class:`FeatureSpace` is fitted once on the full
        ``source_features`` mapping (same metadata a cold
        :func:`~repro.fusion.features.build_design_matrix` would see), so
        appending sources only encodes their new rows.
        """
        key = bool(use_features)
        cached = self._design_cache.get(key)
        if cached is None:
            if key:
                space = FeatureSpace().fit(self.source_features)
            else:
                space = FeatureSpace.empty()
            rows = np.zeros((max(self.n_sources, 8), space.n_columns), dtype=float)
            cached = [rows, 0, space]
            self._design_cache[key] = cached
        rows, n_encoded, space = cached
        n_sources = self.n_sources
        if n_encoded < n_sources:
            if n_sources > rows.shape[0]:
                fresh = np.zeros((max(2 * rows.shape[0], n_sources), rows.shape[1]))
                fresh[:n_encoded] = rows[:n_encoded]
                rows = fresh
                cached[0] = rows
            if key:
                items = self.sources.items
                for s_idx in range(n_encoded, n_sources):
                    feats = self.source_features.get(items[s_idx])
                    if feats:
                        rows[s_idx] = space.transform_one(feats)
            cached[1] = n_sources
        return rows[:n_sources], space

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def observations(self) -> List[Observation]:
        """The accumulated observations in arrival order."""
        rows = self.obs_order
        by_row_source = np.empty(self._n_obs, dtype=np.int64)
        by_row_object = np.empty(self._n_obs, dtype=np.int64)
        by_row_value = np.empty(self._n_obs, dtype=np.int64)
        by_row_source[rows] = self.obs_source_idx
        by_row_object[rows] = self.obs_object_idx
        by_row_value[rows] = self.obs_value_code
        source_items = self.sources.items
        object_items = self.objects.items
        return [
            Observation(source_items[s], object_items[o], self._domains[o].item(v))
            for s, o, v in zip(
                by_row_source.tolist(), by_row_object.tolist(), by_row_value.tolist()
            )
        ]

    def to_dataset(
        self,
        ground_truth: Optional[Mapping[ObjectId, Value]] = None,
        true_accuracies: Optional[Mapping[SourceId, float]] = None,
    ) -> FusionDataset:
        """Export the accumulated stream as a :class:`FusionDataset`.

        The dataset's cached :class:`DenseEncoding` is rebuilt from this
        encoding's compiled arrays (:meth:`~DenseEncoding.export_state` /
        :meth:`~DenseEncoding.from_state`, no recompile; only the O(dataset)
        container walk remains).  Every exported array and design matrix
        is a frozen (read-only) **copy**: the export must stay a faithful
        snapshot of the stream at export time, so it cannot alias the live
        buffers that later ``append``/``design`` calls replace or grow (the
        aliasing hazard is pinned in ``tests/test_incremental_encoding.py``).
        """
        dataset = FusionDataset(
            self.observations(),
            ground_truth=ground_truth,
            source_features=self.source_features,
            true_accuracies=true_accuracies,
            name=self.name,
        )
        state = self.export_state()
        state["arrays"] = {name: frozen_copy(array) for name, array in state["arrays"].items()}
        state["design_cache"] = {
            key: (frozen_copy(matrix), space)
            for key, (matrix, space) in state["design_cache"].items()
        }
        dataset._dense_encoding = DenseEncoding.from_state(dataset, state)
        return dataset
