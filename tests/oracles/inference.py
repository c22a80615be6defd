"""Loop oracle for :mod:`repro.core.inference`: per-object dict posteriors
and the E-step clamp applied as a post-hoc scatter of point masses."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.model import AccuracyModel
from repro.core.structure import PairStructure
from repro.fusion.dataset import FusionDataset
from repro.fusion.types import ObjectId, Value
from repro.optim.objectives import segment_softmax

from .structure import build_pair_structure


def row_probabilities(structure: PairStructure, trust: np.ndarray) -> np.ndarray:
    """Per-object softmax of vote-weighted trust plus the domain offsets."""
    scores = np.bincount(
        structure.obs_pair_idx,
        weights=trust[structure.obs_source_idx],
        minlength=len(structure.pair_values),
    )
    scores = scores + structure.base_scores
    return segment_softmax(scores, structure.pair_object_pos, len(structure.object_ids))


def posteriors(
    dataset: FusionDataset,
    model: AccuracyModel,
    structure: Optional[PairStructure] = None,
    clamp: Optional[Mapping[ObjectId, Value]] = None,
) -> Dict[ObjectId, Dict[Value, float]]:
    """``{object: {value: probability}}``; clamped objects get a point mass."""
    if structure is None:
        structure = build_pair_structure(dataset)
    probs = row_probabilities(structure, model.trust_scores())
    clamp = clamp or {}
    result: Dict[ObjectId, Dict[Value, float]] = {}
    for position, obj in enumerate(structure.object_ids):
        rows = structure.rows_of(position)
        if obj in clamp:
            dist = {structure.pair_values[row]: 0.0 for row in rows}
            dist[clamp[obj]] = 1.0
            result[obj] = dist
        else:
            result[obj] = {structure.pair_values[row]: float(probs[row]) for row in rows}
    return result


def map_assignment(posterior: Mapping[ObjectId, Mapping[Value, float]]) -> Dict[ObjectId, Value]:
    """Most probable value per object; ties go to the first value listed."""
    assignment: Dict[ObjectId, Value] = {}
    for obj, dist in posterior.items():
        best_value, best_prob = None, -1.0
        for value, prob in dist.items():
            if prob > best_prob:
                best_value, best_prob = value, prob
        assignment[obj] = best_value
    return assignment


def expected_correctness(
    structure: PairStructure, trust: np.ndarray, label_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(q_obs, row_probs)`` with labeled objects clamped after the softmax."""
    probs = row_probabilities(structure, trust)
    for position in np.flatnonzero(label_rows >= 0):
        rows = structure.rows_of(int(position))
        probs[rows.start : rows.stop] = 0.0
        probs[label_rows[position]] = 1.0
    return probs[structure.obs_pair_idx], probs
