"""Per-source reliability statistics computed from the data itself.

The reliability featurizer (Section 3.2's domain-feature idea, applied to
*data-derived* signals) reduces a fused dataset to a small set of
per-source accumulators:

* volume — how many claims the source makes;
* breadth — how large the claimed objects' domains are;
* recency — where in the arrival stream the claims sit (row indices are
  the arrival clock), including an exponentially decayed volume;
* corroboration — how often the source agrees with the per-object
  consensus and with co-claiming sources;
* contradiction — how often at least one other source disputes a claim;
* overlap — how often claims are solo vs shared with other sources;
* entropy — how contested the claimed objects are (normalized vote
  entropy).

Everything is a segmented reduction over the encoding's flat arrays:
object-level quantities (:class:`ObjectStats`) are computed once, then
every per-source sum is one ``np.bincount`` over the observation rows in
the encoding's object-sorted order (``bincount`` accumulates each bin's
addends sequentially, so the pass is deterministic).

:class:`RunningSourceStats` maintains the same accumulators under
O(batch + touched-object claims) streaming appends, for the
:class:`~repro.extensions.streaming.StreamingFuser` refit path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..fusion.posterior_store import segmented_argmax

#: Default half-life (in arrival rows) of the decayed-volume accumulator.
DEFAULT_HALF_LIFE = 256.0

_ROW_SENTINEL = np.iinfo(np.int64).max

#: The flat encoding arrays the statistics pass reads.
STAT_ARRAYS = (
    "obs_source_idx",
    "obs_object_idx",
    "obs_value_code",
    "obs_pair_idx",
    "obs_order",
    "pair_offsets",
    "domain_sizes",
)


@dataclass(frozen=True)
class ObjectStats:
    """Global per-object/per-pair quantities every per-source sum reads.

    Attributes
    ----------
    votes:
        Per candidate pair: how many sources claim that value.
    claims_per_object:
        Per object: total number of claims (= number of claiming sources).
    consensus_code:
        Per object: the plurality value code (ties break toward the
        lowest code, matching :func:`segmented_argmax`).
    entropy:
        Per object: vote entropy normalized by ``log(max(|D_o|, 2))`` so
        values live in ``[0, 1]``.
    domain_sizes:
        Per object: number of distinct claimed values.
    """

    votes: np.ndarray
    claims_per_object: np.ndarray
    consensus_code: np.ndarray
    entropy: np.ndarray
    domain_sizes: np.ndarray


@dataclass
class SourceStats:
    """Per-source accumulators, one array entry per source index."""

    n_observations: int
    n_objects: int
    half_life: float

    n_claims: np.ndarray  # total claims
    n_solo: np.ndarray  # claims on single-claim objects
    n_consensus: np.ndarray  # claims matching the object consensus
    n_contradicted: np.ndarray  # claims disputed by >=1 other source
    sum_domain: np.ndarray  # sum of claimed objects' |D_o|
    sum_coclaim: np.ndarray  # sum of co-claimant counts
    sum_agree: np.ndarray  # sum of agreeing co-claimant counts
    sum_entropy: np.ndarray  # sum of claimed objects' entropies
    sum_row: np.ndarray  # sum of arrival rows
    first_row: np.ndarray  # earliest arrival row (sentinel if none)
    last_row: np.ndarray  # latest arrival row (-1 if none)
    decayed_volume: np.ndarray  # sum of 2^((row - last_row)/h)
    decayed_agree: np.ndarray  # recency-weighted sum of agreeing co-claimants

    #: Each per-source accumulator: its dtype and its value for a source
    #: with no claims.  :class:`RunningSourceStats` allocates, grows and
    #: snapshots exactly these.
    ARRAY_FIELDS = {
        "n_claims": (np.int64, 0),
        "n_solo": (np.int64, 0),
        "n_consensus": (np.int64, 0),
        "n_contradicted": (np.int64, 0),
        "sum_domain": (float, 0.0),
        "sum_coclaim": (float, 0.0),
        "sum_agree": (float, 0.0),
        "sum_entropy": (float, 0.0),
        "sum_row": (float, 0.0),
        "first_row": (np.int64, _ROW_SENTINEL),
        "last_row": (np.int64, -1),
        "decayed_volume": (float, 0.0),
        "decayed_agree": (float, 0.0),
    }

    @property
    def n_sources(self) -> int:
        return int(self.n_claims.shape[0])


def compute_object_stats(arrays: Mapping[str, np.ndarray]) -> ObjectStats:
    """One global pass producing the shared object-level quantities."""
    pair_offsets = arrays["pair_offsets"]
    domain_sizes = arrays["domain_sizes"]
    obs_pair_idx = arrays["obs_pair_idx"]
    obs_object_idx = arrays["obs_object_idx"]
    n_objects = domain_sizes.shape[0]
    n_pairs = int(pair_offsets[-1]) if pair_offsets.shape[0] else 0

    votes = np.bincount(obs_pair_idx, minlength=n_pairs).astype(np.int64)
    claims_per_object = np.bincount(obs_object_idx, minlength=n_objects).astype(np.int64)
    consensus_code = segmented_argmax(votes.astype(float), pair_offsets)

    # Normalized vote entropy per object.  Zero-vote pairs contribute an
    # exact 0.0, so the bincount accumulation order matches the
    # ascending-code order RunningSourceStats uses.
    lengths = pair_offsets[1:] - pair_offsets[:-1]
    pair_object = np.repeat(np.arange(n_objects, dtype=np.int64), lengths)
    totals = np.maximum(claims_per_object[pair_object], 1)
    p = votes / totals
    terms = np.where(votes > 0, -p * np.log(np.where(votes > 0, p, 1.0)), 0.0)
    entropy = np.bincount(pair_object, weights=terms, minlength=n_objects)
    entropy = entropy / np.log(np.maximum(domain_sizes, 2))

    return ObjectStats(
        votes=votes,
        claims_per_object=claims_per_object,
        consensus_code=consensus_code,
        entropy=entropy,
        domain_sizes=np.asarray(domain_sizes, dtype=np.int64),
    )


def compute_source_stats(
    arrays: Mapping[str, np.ndarray],
    n_sources: int,
    *,
    half_life: float = DEFAULT_HALF_LIFE,
) -> SourceStats:
    """Full per-source statistics in one pass over the observation rows.

    Each ``bincount`` below accumulates a source's terms in the
    encoding's object-sorted row order, so the result is deterministic.
    """
    object_stats = compute_object_stats(arrays)
    src = arrays["obs_source_idx"]
    obj = arrays["obs_object_idx"]
    code = arrays["obs_value_code"]
    pair = arrays["obs_pair_idx"]
    rows = arrays["obs_order"]
    rows_f = rows.astype(float)

    claims_on_obj = object_stats.claims_per_object[obj]
    votes = object_stats.votes[pair]

    def count(cond: np.ndarray) -> np.ndarray:
        return np.bincount(src[cond], minlength=n_sources).astype(np.int64)

    def total(weights: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=weights, minlength=n_sources)

    n_claims = np.bincount(src, minlength=n_sources).astype(np.int64)
    n_solo = count(claims_on_obj == 1)
    n_consensus = count(object_stats.consensus_code[obj] == code)
    n_contradicted = count(votes < claims_on_obj)
    sum_domain = total(object_stats.domain_sizes[obj].astype(float))
    sum_coclaim = total((claims_on_obj - 1).astype(float))
    sum_agree = total((votes - 1).astype(float))
    sum_entropy = total(object_stats.entropy[obj])
    sum_row = total(rows_f)

    first_row = np.full(n_sources, _ROW_SENTINEL, dtype=np.int64)
    np.minimum.at(first_row, src, rows)
    last_row = np.full(n_sources, -1, dtype=np.int64)
    np.maximum.at(last_row, src, rows)

    # Exponents are <= 0 by construction, so the decayed accumulators
    # never overflow no matter how long the stream ran.  decayed_agree is
    # the drift-aware cousin of sum_agree: corroboration weighted toward
    # each source's recent claims.
    age = (rows_f - last_row[src].astype(float)) / float(half_life)
    weights = np.exp2(age)
    decayed_volume = total(weights)
    decayed_agree = total(weights * (votes - 1).astype(float))

    return SourceStats(
        n_observations=int(src.shape[0]),
        n_objects=int(object_stats.domain_sizes.shape[0]),
        half_life=float(half_life),
        n_claims=n_claims,
        n_solo=n_solo,
        n_consensus=n_consensus,
        n_contradicted=n_contradicted,
        sum_domain=sum_domain,
        sum_coclaim=sum_coclaim,
        sum_agree=sum_agree,
        sum_entropy=sum_entropy,
        sum_row=sum_row,
        first_row=first_row,
        last_row=last_row,
        decayed_volume=decayed_volume,
        decayed_agree=decayed_agree,
    )


# ----------------------------------------------------------------------
# Incremental (streaming) accumulation
# ----------------------------------------------------------------------
class RunningSourceStats:
    """O(batch) streaming counterpart of :func:`compute_source_stats`.

    Feed every :class:`~repro.fusion.encoding.AppendBatch` produced by an
    :class:`~repro.fusion.encoding.IncrementalEncoding` through
    :meth:`observe` (starting from an empty encoding).  Row/volume
    accumulators update purely from the batch; consensus-dependent
    accumulators are re-derived for the touched objects only, by reading
    each touched object's claim span (old claims are the span prefix —
    appends land at the span's end in arrival order).

    :meth:`snapshot` returns a :class:`SourceStats` matching the cold
    computation exactly on integer fields; float fields agree to
    accumulation-order tolerance (``decayed_volume`` is rescaled rather
    than recomputed when a source's ``last_row`` advances).
    """

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        self.half_life = float(half_life)
        self.n_observations = 0
        self._capacity = 16
        self._n_sources = 0
        for name, (dtype, empty) in SourceStats.ARRAY_FIELDS.items():
            setattr(self, name, np.full(self._capacity, empty, dtype=dtype))

    def _grow(self, n_sources: int) -> None:
        if n_sources > self._capacity:
            new_capacity = max(2 * self._capacity, n_sources)
            for name, (dtype, empty) in SourceStats.ARRAY_FIELDS.items():
                fresh = np.full(new_capacity, empty, dtype=dtype)
                fresh[: self._capacity] = getattr(self, name)
                setattr(self, name, fresh)
            self._capacity = new_capacity
        self._n_sources = max(self._n_sources, n_sources)

    # ------------------------------------------------------------------
    def observe(self, encoding, batch) -> None:
        """Fold one :class:`AppendBatch` (already applied to ``encoding``)."""
        k = len(batch)
        if k == 0:
            return
        src = batch.source_idx
        self._grow(int(src.max()) + 1)
        rows = self.n_observations + np.arange(k, dtype=np.int64)
        self.n_observations += k

        # Per-source reductions run over the batch's distinct sources only.
        touched_src, inverse, counts = np.unique(src, return_inverse=True, return_counts=True)
        n_touched = touched_src.shape[0]
        self.n_claims[touched_src] += counts
        self.sum_row[touched_src] += np.bincount(
            inverse, weights=rows.astype(float), minlength=n_touched
        )

        batch_last = np.full(n_touched, -1, dtype=np.int64)
        np.maximum.at(batch_last, inverse, rows)
        new_last = np.maximum(self.last_row[touched_src], batch_last)

        # Rescale the decayed accumulators to the advanced clock, then add
        # the batch's (<= 0 exponent) volume terms.  (decayed_agree's new
        # terms land in the per-object pass below, which runs after
        # last_row is advanced so its weights match the rescaled state.)
        had_prior = self.last_row[touched_src] >= 0
        shift = np.zeros(n_touched)
        shift[had_prior] = (
            self.last_row[touched_src[had_prior]] - new_last[had_prior]
        ) / self.half_life
        rescale = np.exp2(shift)
        self.decayed_volume[touched_src] *= rescale
        self.decayed_agree[touched_src] *= rescale
        age = (rows.astype(float) - new_last[inverse].astype(float)) / self.half_life
        self.decayed_volume[touched_src] += np.bincount(
            inverse, weights=np.exp2(age), minlength=n_touched
        )

        np.minimum.at(self.first_row, src, rows)
        self.last_row[touched_src] = new_last

        # Consensus-dependent stats: re-derive each touched object's
        # contribution.  Old claims are the span prefix (the batch's k_new
        # claims sit at the span's end, in arrival order).
        for o_idx, k_new in zip(batch.objects.tolist(), batch.object_counts.tolist()):
            all_src, all_code, all_rows = encoding.object_claims(o_idx, with_rows=True)
            if all_src.shape[0] > k_new:
                self._object_contribution(
                    all_src[:-k_new], all_code[:-k_new], all_rows[:-k_new], -1.0
                )
            self._object_contribution(all_src, all_code, all_rows, +1.0)

    def _object_contribution(
        self, src: np.ndarray, code: np.ndarray, rows: np.ndarray, sign: float
    ) -> None:
        n = src.shape[0]
        if n == 0:
            return
        # Codes are minted in first-claim order, so the claims seen so far
        # cover exactly 0..d-1.
        d = int(code.max()) + 1
        counts = np.bincount(code, minlength=d)
        p = counts / n
        terms = np.where(counts > 0, -p * np.log(np.where(counts > 0, p, 1.0)), 0.0)
        entropy = float(terms.sum() / np.log(max(d, 2)))
        consensus = int(np.argmax(counts))
        votes = counts[code]

        np.add.at(self.n_solo, src, np.int64(sign) if n == 1 else np.int64(0))
        np.add.at(self.n_consensus, src, np.where(code == consensus, sign, 0).astype(np.int64))
        np.add.at(self.n_contradicted, src, np.where(votes < n, sign, 0).astype(np.int64))
        np.add.at(self.sum_domain, src, sign * float(d))
        np.add.at(self.sum_coclaim, src, sign * float(n - 1))
        np.add.at(self.sum_agree, src, sign * (votes - 1).astype(float))
        np.add.at(self.sum_entropy, src, sign * entropy)
        # Weights are relative to each source's *current* last_row, which
        # matches the accumulator after observe()'s rescale step.
        weights = np.exp2((rows.astype(float) - self.last_row[src].astype(float)) / self.half_life)
        np.add.at(self.decayed_agree, src, sign * weights * (votes - 1).astype(float))

    # ------------------------------------------------------------------
    def snapshot(self, n_objects: int) -> SourceStats:
        """Materialize the accumulated state as a :class:`SourceStats`."""
        n = self._n_sources
        return SourceStats(
            n_observations=self.n_observations,
            n_objects=int(n_objects),
            half_life=self.half_life,
            **{name: getattr(self, name)[:n].copy() for name in SourceStats.ARRAY_FIELDS},
        )
