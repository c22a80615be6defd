"""Exact posterior inference for SLiMFast (paper Equations 1 and 4).

Given fitted trust scores, the objects are conditionally independent, so the
posterior ``P(T_o = d | Ω; w)`` is an exact per-object softmax over the
claimed values — no sampling needed.  (The factor-graph Gibbs sampler in
:mod:`repro.factorgraph` reproduces the paper's DeepDive-based inference and
is validated against these closed forms.)

Everything is computed as segmented array reductions over the flattened
(object, value) rows — a single segmented logsumexp per query.  The
per-object loops these reductions replaced are kept as test oracles
(``tests/oracles/inference.py``, pinned by
``tests/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import expand_spans
from ..fusion.posterior_store import segmented_argmax
from ..fusion.types import ObjectId, Value
from ..optim.objectives import segment_softmax
from .model import AccuracyModel
from .structure import PairStructure, build_pair_structure


def pair_scores(
    structure: PairStructure,
    trust: np.ndarray,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
) -> np.ndarray:
    """Unnormalized log-scores per flattened (object, value) row.

    ``extra_scores`` lets extensions (copying features, priors) add
    per-row contributions on top of the vote-weighted trust scores.
    ``domain_correction`` adds the ``log(|D_o| - 1)`` per-vote offset (see
    :class:`PairStructure.base_scores`); it is a no-op on binary domains.
    """
    scores = np.bincount(
        structure.obs_pair_idx,
        weights=trust[structure.obs_source_idx],
        minlength=structure.n_pairs,
    )
    if domain_correction:
        scores = scores + structure.base_scores
    if extra_scores is not None:
        if extra_scores.shape[0] != structure.n_pairs:
            raise ValueError("extra_scores must align with flattened rows")
        scores = scores + extra_scores
    return scores


def posterior_rows(
    structure: PairStructure,
    model: AccuracyModel,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
) -> np.ndarray:
    """Posterior probability of every flattened (object, value) row.

    The array-level entry point of the vectorized engine: one segmented
    softmax over the structure's row spans, no per-object packaging.
    """
    scores = pair_scores(structure, model.trust_scores(), extra_scores, domain_correction)
    return segment_softmax(scores, structure.pair_object_pos, structure.n_objects)


def posteriors(
    dataset: FusionDataset,
    model: AccuracyModel,
    structure: Optional[PairStructure] = None,
    clamp: Optional[Mapping[ObjectId, Value]] = None,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
) -> Dict[ObjectId, Dict[Value, float]]:
    """Posterior distributions ``P(T_o = d | Ω)`` for every object.

    Parameters
    ----------
    clamp:
        Objects whose value is known (training ground truth); their
        posterior is a point mass on the known value, mirroring observed
        variables in the compiled factor graph.
    extra_scores:
        Optional per-row additive scores (see :func:`pair_scores`).
    """
    if structure is None:
        structure = build_pair_structure(dataset)
    probs = posterior_rows(structure, model, extra_scores, domain_correction)
    return package_posteriors(structure, probs, clamp)


def package_posteriors(
    structure: PairStructure,
    probs: np.ndarray,
    clamp: Optional[Mapping[ObjectId, Value]] = None,
) -> Dict[ObjectId, Dict[Value, float]]:
    """Package flat row probabilities into per-object value dicts.

    Bulk-converts the probability vector once and slices Python lists,
    which is an order of magnitude cheaper than per-row array indexing.
    """
    offsets = structure.pair_offsets.tolist()
    values = structure.pair_values
    probs_list = probs.tolist()
    result: Dict[ObjectId, Dict[Value, float]] = {}
    for position, obj in enumerate(structure.object_ids):
        start, stop = offsets[position], offsets[position + 1]
        result[obj] = dict(zip(values[start:stop], probs_list[start:stop]))
    if clamp:
        position_of = {obj: i for i, obj in enumerate(structure.object_ids)}
        for obj, known in clamp.items():
            position = position_of.get(obj)
            if position is None:
                continue
            start, stop = offsets[position], offsets[position + 1]
            dist = dict.fromkeys(values[start:stop], 0.0)
            dist[known] = 1.0
            result[obj] = dist
    return result


def map_assignment(posterior: Mapping[ObjectId, Mapping[Value, float]]) -> Dict[ObjectId, Value]:
    """Maximum-a-posteriori value per object (the fusion output ``v_o``).

    Ties break toward the first value in domain order, which is the
    first-seen claimed value — a deterministic rule.
    """
    assignment: Dict[ObjectId, Value] = {}
    for obj, dist in posterior.items():
        best_value = None
        best_prob = -1.0
        for value, prob in dist.items():
            if prob > best_prob:
                best_prob = prob
                best_value = value
        assignment[obj] = best_value
    return assignment


def map_rows(
    structure: PairStructure,
    probs: np.ndarray,
    clamp: Optional[Mapping[ObjectId, Value]] = None,
) -> Dict[ObjectId, Value]:
    """MAP value per object straight from flat row probabilities.

    Segmented argmax with the same tie-breaking rule as
    :func:`map_assignment` (first row of the object's block wins ties),
    shared with the ragged posterior store via
    :func:`repro.fusion.posterior_store.segmented_argmax`.
    """
    offsets = structure.pair_offsets
    best_row = offsets[:-1] + segmented_argmax(probs, offsets)
    values = structure.pair_values
    assignment: Dict[ObjectId, Value] = {
        obj: values[best_row[position]]
        for position, obj in enumerate(structure.object_ids)
    }
    if clamp:
        for obj, known in clamp.items():
            if obj in assignment:
                assignment[obj] = known
    return assignment


def clamp_rows(structure: PairStructure, label_rows: np.ndarray) -> np.ndarray:
    """Candidate rows the E-step clamp must zero out, precomputed once.

    For each labeled object (``label_rows[position] >= 0``) these are the
    rows of its block *except* the row of its true value.  Masking their
    scores to ``-inf`` before the segmented softmax yields the clamped
    posterior (an exact point mass on the label row) in the same pass as
    the softmax itself — no post-hoc scatter per EM round.  The row set
    depends only on (structure, truth), so EM computes it once and reuses
    it across every round (see :func:`expected_correctness`).
    """
    labeled_positions = np.flatnonzero(label_rows >= 0)
    if labeled_positions.size == 0:
        return np.zeros(0, dtype=np.int64)
    starts = structure.pair_offsets[labeled_positions]
    lengths = structure.pair_offsets[labeled_positions + 1] - starts
    blocked = np.zeros(structure.n_pairs, dtype=bool)
    blocked[expand_spans(starts, lengths)] = True
    blocked[label_rows[labeled_positions]] = False
    return np.flatnonzero(blocked)


def expected_correctness(
    structure: PairStructure,
    trust: np.ndarray,
    label_rows: np.ndarray,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
    blocked_rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-observation posterior probability that the claim is correct.

    This is the E-step quantity of EM: for each observation the posterior
    mass of the value it claims, with ground-truth objects clamped to their
    label row.  Returns ``(q_obs, row_probs)`` where ``q_obs`` aligns with
    ``structure.obs_*`` arrays.

    The clamp is *fused* into the segmented softmax: the non-label rows of
    labeled objects (``blocked_rows``, precomputed by :func:`clamp_rows` or
    derived here when omitted) are masked to ``-inf`` score, so one softmax
    pass produces the clamped posterior directly.  The result is
    bit-identical to a post-hoc scatter of the point masses: a labeled
    object's block softmaxes over a single finite score, giving exactly 1.0
    on the label row and 0.0 elsewhere.
    """
    scores = pair_scores(structure, trust, extra_scores, domain_correction)
    if blocked_rows is None:
        blocked_rows = clamp_rows(structure, label_rows)
    if blocked_rows.size:
        # pair_scores returns a fresh array; masking in place is safe.
        scores[blocked_rows] = -np.inf
    probs = segment_softmax(scores, structure.pair_object_pos, structure.n_objects)
    return probs[structure.obs_pair_idx], probs
