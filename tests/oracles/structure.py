"""Loop oracle for :mod:`repro.core.structure`: candidate structures built
by walking the dataset's observations object by object, and the label
codings (``label_rows``, ``truth_codes``) found by walking each labeled
object's domain."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.structure import PairStructure
from repro.fusion.dataset import FusionDataset
from repro.fusion.types import ObjectId, Value


def build_pair_structure(
    dataset: FusionDataset, objects: Optional[Sequence[ObjectId]] = None
) -> PairStructure:
    """Candidate rows of ``objects`` (default: all), in dataset domain order."""
    object_ids = dataset.objects.items if objects is None else list(objects)
    object_dataset_idx = np.asarray(
        [dataset.objects.index(obj) for obj in object_ids], dtype=np.int64
    )

    pair_object_pos: List[int] = []
    pair_values: List[Value] = []
    offsets = [0]
    row_base: Dict[int, int] = {}
    for position, o_idx in enumerate(object_dataset_idx):
        domain = dataset.domain_by_index(int(o_idx))
        row_base[int(o_idx)] = offsets[-1]
        for value in domain:
            pair_object_pos.append(position)
            pair_values.append(value)
        offsets.append(offsets[-1] + len(domain))

    # Group the rows by walking the observations, not through the
    # dataset's row accessors: those read the encoding this oracle checks.
    rows_of: Dict[int, List[int]] = {}
    for row, obs in enumerate(dataset.observations):
        rows_of.setdefault(dataset.objects.index(obs.obj), []).append(row)

    obs_source: List[int] = []
    obs_pair: List[int] = []
    obs_log_alt: List[float] = []
    for o_idx in object_dataset_idx:
        base = row_base[int(o_idx)]
        domain = dataset.domain_by_index(int(o_idx))
        log_alt = float(np.log(max(len(domain) - 1, 1)))
        for row in rows_of.get(int(o_idx), []):
            obs = dataset.observations[row]
            obs_source.append(dataset.sources.index(obs.source))
            obs_pair.append(base + domain.index(obs.value))
            obs_log_alt.append(log_alt)

    obs_pair_arr = np.asarray(obs_pair, dtype=np.int64)
    base_scores = np.bincount(
        obs_pair_arr,
        weights=np.asarray(obs_log_alt, dtype=float),
        minlength=len(pair_values),
    )
    return PairStructure(
        object_ids=object_ids,
        object_dataset_idx=object_dataset_idx,
        pair_object_pos=np.asarray(pair_object_pos, dtype=np.int64),
        pair_values=pair_values,
        pair_offsets=np.asarray(offsets, dtype=np.int64),
        obs_source_idx=np.asarray(obs_source, dtype=np.int64),
        obs_pair_idx=obs_pair_arr,
        base_scores=base_scores,
    )


def build_masked_structure(
    dataset: FusionDataset, exclude_sources: Sequence[object]
) -> PairStructure:
    """The structure left after dropping ``exclude_sources``' votes.

    Objects keep dataset order and values keep their full-dataset domain
    order; candidates and objects that lose every vote disappear.
    """
    exclude_idx = {dataset.sources.index(source) for source in exclude_sources}
    seen = {
        obs.obj
        for obs in dataset.observations
        if dataset.sources.index(obs.source) not in exclude_idx
    }
    kept_objects = [obj for obj in dataset.objects.items if obj in seen]
    return _mask(build_pair_structure(dataset, kept_objects), exclude_idx)


def _mask(structure: PairStructure, exclude_idx: set) -> PairStructure:
    keep_obs = np.asarray([int(s) not in exclude_idx for s in structure.obs_source_idx], dtype=bool)
    votes = np.bincount(structure.obs_pair_idx[keep_obs], minlength=len(structure.pair_values))
    offsets = [0]
    pair_object_pos: List[int] = []
    pair_values: List[Value] = []
    new_row_of: Dict[int, int] = {}
    object_ids: List[ObjectId] = []
    object_dataset_idx: List[int] = []
    for position, obj in enumerate(structure.object_ids):
        rows = [row for row in structure.rows_of(position) if votes[row] > 0]
        if not rows:
            continue
        new_position = len(object_ids)
        object_ids.append(obj)
        object_dataset_idx.append(int(structure.object_dataset_idx[position]))
        for row in rows:
            new_row_of[row] = len(pair_values)
            pair_object_pos.append(new_position)
            pair_values.append(structure.pair_values[row])
        offsets.append(offsets[-1] + len(rows))

    obs_source: List[int] = []
    obs_pair: List[int] = []
    obs_log_alt: List[float] = []
    domain_sizes = np.diff(np.asarray(offsets, dtype=np.int64))
    for i in np.flatnonzero(keep_obs):
        new_row = new_row_of[int(structure.obs_pair_idx[i])]
        obs_source.append(int(structure.obs_source_idx[i]))
        obs_pair.append(new_row)
        obs_log_alt.append(float(np.log(max(int(domain_sizes[pair_object_pos[new_row]]) - 1, 1))))
    obs_pair_arr = np.asarray(obs_pair, dtype=np.int64)
    base_scores = np.bincount(
        obs_pair_arr, weights=np.asarray(obs_log_alt, dtype=float), minlength=len(pair_values)
    )
    return PairStructure(
        object_ids=object_ids,
        object_dataset_idx=np.asarray(object_dataset_idx, dtype=np.int64),
        pair_object_pos=np.asarray(pair_object_pos, dtype=np.int64),
        pair_values=pair_values,
        pair_offsets=np.asarray(offsets, dtype=np.int64),
        obs_source_idx=np.asarray(obs_source, dtype=np.int64),
        obs_pair_idx=obs_pair_arr,
        base_scores=base_scores,
    )


def label_rows(structure: PairStructure, truth: Mapping[ObjectId, Value]) -> np.ndarray:
    """Row of each listed object's true value; -1 when unlabeled or unclaimed."""
    labels = np.full(len(structure.object_ids), -1, dtype=np.int64)
    for position, obj in enumerate(structure.object_ids):
        if obj not in truth:
            continue
        for row in structure.rows_of(position):
            if structure.pair_values[row] == truth[obj]:
                labels[position] = row
                break
    return labels


def truth_codes(encoding, truth: Mapping[ObjectId, Value]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-label walk: (labeled mask, domain code of the true value or -1) per object."""
    labeled = np.zeros(encoding.n_objects, dtype=bool)
    codes = np.full(encoding.n_objects, -1, dtype=np.int64)
    for o_idx, obj in enumerate(encoding.objects.items):
        if obj not in truth:
            continue
        labeled[o_idx] = True
        for code, value in enumerate(encoding.domain_by_index(o_idx).items):
            if value == truth[obj]:
                codes[o_idx] = code
                break
    return labeled, codes
