"""Flattened (object, value) candidate structure.

SLiMFast's posterior (Equation 1/4) is a softmax, per object, over the
distinct values claimed for that object.  Both learning (conditional
objective) and inference need the same bookkeeping: a flattened list of
(object, candidate-value) rows, plus the mapping from each observation to
the row of the value it claims.  :class:`PairStructure` builds that once per
dataset and is shared by the ERM/EM learners, the inference routines and the
copying extension.

Every array derives from the dataset's cached
:class:`~repro.fusion.encoding.DenseEncoding` with pure NumPy indexing; the
observation-walking loops these builders replaced live on as test oracles
(``tests/oracles/structure.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import DenseEncoding, encode_dataset, expand_spans
from ..fusion.types import ObjectId, Value


@dataclass
class PairStructure:
    """Candidate rows for a subset of objects.

    Attributes
    ----------
    object_ids:
        The objects covered, in listing order.
    object_dataset_idx:
        Dataset object index of each listed object.
    pair_object_pos:
        For each flattened row, the position of its object in ``object_ids``.
    pair_values:
        The candidate value of each flattened row.
    pair_offsets:
        Start row of each object's block; ``pair_offsets[i+1] - pair_offsets[i]``
        is ``|D_o|`` for the i-th object (a trailing sentinel is included).
    obs_source_idx:
        Source index of every observation on a covered object.
    obs_pair_idx:
        Flattened row index each observation votes for.
    base_scores:
        Fixed per-row score offsets ``count_of_votes * log(|D_o| - 1)``.
        This is the multi-valued generalization of Equation 4: a vote for
        value ``d`` contributes ``sigma_s + log(|D_o| - 1)``, the
        discriminative counterpart of spreading a source's error mass
        uniformly over the wrong alternatives.  For binary domains the
        offset is zero and the model is exactly the paper's.
    encoding:
        The dataset encoding this structure was derived from (unset on
        source-masked structures; enables array-based :meth:`label_rows`).
    """

    object_ids: List[ObjectId]
    object_dataset_idx: np.ndarray
    pair_object_pos: np.ndarray
    pair_values: List[Value]
    pair_offsets: np.ndarray
    obs_source_idx: np.ndarray
    obs_pair_idx: np.ndarray
    base_scores: np.ndarray
    encoding: Optional[DenseEncoding] = field(default=None, repr=False)

    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_values)

    def rows_of(self, position: int) -> range:
        """Flattened row range of the object at ``position``."""
        return range(int(self.pair_offsets[position]), int(self.pair_offsets[position + 1]))

    def label_rows(self, truth: Dict[ObjectId, Value]) -> np.ndarray:
        """Row index of the true value per object; -1 when unclaimed.

        Single-truth semantics assume at least one source provides the true
        value; objects violating that (possible in noisy simulations) are
        flagged with -1 and excluded from likelihoods.
        """
        if self.encoding is not None:
            _, codes = self.encoding.truth_codes(truth)
            selected = codes[self.object_dataset_idx]
            labels = np.full(self.n_objects, -1, dtype=np.int64)
            claimed = selected >= 0
            labels[claimed] = self.pair_offsets[:-1][claimed] + selected[claimed]
            return labels
        labels = np.full(self.n_objects, -1, dtype=np.int64)
        for position, obj in enumerate(self.object_ids):
            if obj not in truth:
                continue
            wanted = truth[obj]
            for row in self.rows_of(position):
                if self.pair_values[row] == wanted:
                    labels[position] = row
                    break
        return labels


def build_pair_structure(
    dataset: FusionDataset, objects: Optional[Sequence[ObjectId]] = None
) -> PairStructure:
    """Construct the :class:`PairStructure` for ``objects`` (default: all).

    ``dataset`` may also be an encoding — a
    :class:`~repro.fusion.encoding.IncrementalEncoding` over a growing
    stream included — whose compiled arrays the full-coverage structure
    then shares directly.
    """
    encoding = encode_dataset(dataset)
    if objects is None:
        return PairStructure(
            object_ids=encoding.objects.items,
            object_dataset_idx=np.arange(encoding.n_objects, dtype=np.int64),
            pair_object_pos=encoding.pair_object_idx,
            pair_values=encoding.pair_values,
            pair_offsets=encoding.pair_offsets,
            obs_source_idx=encoding.obs_source_idx,
            obs_pair_idx=encoding.obs_pair_idx,
            base_scores=encoding.base_scores,
            encoding=encoding,
        )

    object_ids = list(objects)
    selected = np.asarray([encoding.objects.index(obj) for obj in object_ids], dtype=np.int64)
    domain_sizes = encoding.domain_sizes[selected]
    pair_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(domain_sizes, dtype=np.int64)]
    )
    pair_object_pos = np.repeat(np.arange(len(object_ids), dtype=np.int64), domain_sizes)
    all_values = encoding.pair_values
    all_offsets = encoding.pair_offsets
    pair_values: List[Value] = []
    for o_idx in selected:
        start, stop = all_offsets[o_idx], all_offsets[o_idx + 1]
        pair_values.extend(all_values[start:stop])

    obs_starts = encoding.obs_offsets[selected]
    obs_lengths = encoding.obs_offsets[selected + 1] - obs_starts
    positions = expand_spans(obs_starts, obs_lengths)
    obs_object_pos = np.repeat(np.arange(len(object_ids), dtype=np.int64), obs_lengths)
    obs_pair_idx = pair_offsets[obs_object_pos] + encoding.obs_value_code[positions]
    base_scores = np.bincount(
        obs_pair_idx,
        weights=encoding.log_alternatives[encoding.obs_object_idx[positions]],
        minlength=int(pair_offsets[-1]),
    )
    return PairStructure(
        object_ids=object_ids,
        object_dataset_idx=selected,
        pair_object_pos=pair_object_pos,
        pair_values=pair_values,
        pair_offsets=pair_offsets,
        obs_source_idx=encoding.obs_source_idx[positions],
        obs_pair_idx=obs_pair_idx,
        base_scores=base_scores,
        encoding=encoding,
    )


def build_masked_structure(
    dataset: FusionDataset, exclude_sources: Sequence[object]
) -> PairStructure:
    """Candidate structure of ``dataset`` with some sources' votes removed.

    This is the array-level counterpart of
    :func:`repro.fusion.dataset.subset_sources`: observations from
    ``exclude_sources`` are dropped, candidate values that lose every vote
    disappear from their object's block, and objects left with no
    observations are dropped entirely — the same domains and objects a
    rebuilt subset dataset would have, but derived by pure array filtering
    from the dataset's cached :class:`~repro.fusion.encoding.DenseEncoding`
    instead of re-walking and re-encoding the observations.  Source indices
    keep the *full* dataset's indexing, so one design matrix and one
    parameter layout serve every masked fit of a leave-one-source-out
    sweep; excluded sources simply contribute no samples.

    Note the per-object value order may differ from a rebuilt subset
    dataset (first-seen among *all* observations here versus first-seen
    among the remaining ones), which permutes candidate rows within an
    object's block but leaves every posterior unchanged.
    """
    encoding = encode_dataset(dataset)
    exclude = np.zeros(dataset.n_sources, dtype=bool)
    for source in exclude_sources:
        exclude[dataset.sources.index(source)] = True
    keep_obs = ~exclude[encoding.obs_source_idx]
    obs_object = encoding.obs_object_idx[keep_obs]
    obs_source = encoding.obs_source_idx[keep_obs]
    obs_value = encoding.obs_value_code[keep_obs]

    # Remaining votes per original candidate row decide which rows (and
    # hence which domain values) survive.
    voted_rows = encoding.pair_offsets[obs_object] + obs_value
    votes = np.bincount(voted_rows, minlength=encoding.n_pairs)
    keep_row = votes > 0
    rows_per_object = np.bincount(
        encoding.pair_object_idx, weights=keep_row.astype(float), minlength=dataset.n_objects
    ).astype(np.int64)
    kept_object_idx = np.flatnonzero(rows_per_object > 0)

    position_of = np.full(dataset.n_objects, -1, dtype=np.int64)
    position_of[kept_object_idx] = np.arange(kept_object_idx.shape[0], dtype=np.int64)
    new_row_of = np.where(keep_row, np.cumsum(keep_row) - 1, -1).astype(np.int64)

    domain_sizes = rows_per_object[kept_object_idx]
    pair_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(domain_sizes, dtype=np.int64)]
    )
    kept_row_idx = np.flatnonzero(keep_row)
    pair_object_pos = position_of[encoding.pair_object_idx[kept_row_idx]]
    all_values = encoding.pair_values
    pair_values = [all_values[row] for row in kept_row_idx.tolist()]

    obs_pair_idx = new_row_of[voted_rows]
    log_alternatives = np.log(np.maximum(domain_sizes - 1, 1).astype(float))
    base_scores = np.bincount(
        obs_pair_idx,
        weights=log_alternatives[position_of[obs_object]],
        minlength=int(pair_offsets[-1]),
    )
    object_items = dataset.objects.items
    return PairStructure(
        object_ids=[object_items[i] for i in kept_object_idx.tolist()],
        object_dataset_idx=kept_object_idx,
        pair_object_pos=pair_object_pos,
        pair_values=pair_values,
        pair_offsets=pair_offsets,
        obs_source_idx=obs_source,
        obs_pair_idx=obs_pair_idx,
        base_scores=base_scores,
        # The full-dataset encoding is deliberately NOT attached: its value
        # codes index the unmasked blocks, so label_rows must fall back to
        # value matching within the masked blocks.
    )

