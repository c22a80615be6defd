"""Loop oracle for :mod:`repro.core.erm`, :mod:`repro.core.em` and the
fit-then-predict path of :class:`repro.core.slimfast.SLiMFast`.

The learners as first written: training pairs gathered by walking the
observations, one unreduced sample per observation, the post-hoc E-step
clamp of :mod:`tests.oracles.inference`, and a scipy L-BFGS solve every
EM round.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import AccuracyModel, model_from_flat
from repro.fusion.dataset import FusionDataset
from repro.fusion.features import build_design_matrix
from repro.fusion.types import ObjectId, SourceId, Value
from repro.optim.numerics import logit
from repro.optim.objectives import ConditionalObjective, CorrectnessObjective
from repro.optim.solvers import minimize_lbfgs, sgd

from .inference import expected_correctness, map_assignment, posteriors
from .structure import build_masked_structure, build_pair_structure, label_rows


def correctness_training_pairs(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    exclude_sources: Sequence[SourceId] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """(source index, 0/1 correctness) per observation on a labeled object."""
    excluded = set(exclude_sources)
    sources, labels = [], []
    for obs in dataset.observations:
        expected = truth.get(obs.obj)
        if expected is None or obs.source in excluded:
            continue
        sources.append(dataset.sources.index(obs.source))
        labels.append(1.0 if obs.value == expected else 0.0)
    return np.asarray(sources, dtype=np.int64), np.asarray(labels, dtype=float)


def fit_erm(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    objective: str = "correctness",
    solver: str = "lbfgs",
    l2_sources: float = 4.0,
    l2_features: float = 1.0,
    use_features: bool = True,
    intercept: bool = False,
    sgd_epochs: int = 40,
    sgd_learning_rate: float = 0.5,
    seed: int = 0,
) -> AccuracyModel:
    """ERM on ``truth`` with the correctness or conditional objective."""
    design, space = build_design_matrix(dataset, use_features=use_features)
    if objective == "correctness":
        source_idx, labels = correctness_training_pairs(dataset, truth)
        loss = CorrectnessObjective(
            source_idx=source_idx,
            labels=labels,
            design=design,
            l2_sources=l2_sources,
            l2_features=l2_features,
            intercept=intercept,
        )
        if solver == "sgd":
            result = sgd(
                loss,
                n_samples=source_idx.shape[0],
                learning_rate=sgd_learning_rate,
                epochs=sgd_epochs,
                seed=seed,
            )
        else:
            result = minimize_lbfgs(loss)
    else:
        structure = build_pair_structure(dataset, [obj for obj in dataset.objects if obj in truth])
        loss = ConditionalObjective(
            design=design,
            obs_source_idx=structure.obs_source_idx,
            obs_pair_idx=structure.obs_pair_idx,
            pair_object_idx=structure.pair_object_pos,
            label_pair_idx=label_rows(structure, truth),
            l2_sources=l2_sources,
            l2_features=l2_features,
            base_scores=structure.base_scores,
        )
        result = minimize_lbfgs(loss)
    return model_from_flat(
        result.w,
        dataset,
        design,
        space if use_features else None,
        intercept=intercept and objective == "correctness",
    )


def fit_em(
    dataset: FusionDataset,
    truth: Optional[Mapping[ObjectId, Value]] = None,
    max_iterations: int = 50,
    tolerance: float = 1e-4,
    init_accuracy: float = 0.7,
    warm_start_erm: bool = True,
    l2_sources: float = 4.0,
    l2_features: float = 1.0,
    use_features: bool = True,
    m_step_tolerance: float = 1e-8,
    exclude_sources: Sequence[SourceId] = (),
) -> AccuracyModel:
    """Semi-supervised EM with labeled objects clamped in every E-step.

    ``exclude_sources`` drops those sources' votes from the E-step and the
    ERM warm start alike (the leave-one-source-out fit).
    """
    truth = dict(truth or {})
    design, space = build_design_matrix(dataset, use_features=use_features)
    if exclude_sources:
        structure = build_masked_structure(dataset, exclude_sources)
    else:
        structure = build_pair_structure(dataset)
    labels_of_objects = label_rows(structure, truth)

    n_sources = dataset.n_sources
    w = np.zeros(n_sources + design.shape[1] + 1)  # trailing shared intercept
    w[:n_sources] = float(logit(init_accuracy))
    if truth and warm_start_erm:
        source_idx, labels = correctness_training_pairs(dataset, truth, exclude_sources)
        if source_idx.size:
            warm = minimize_lbfgs(
                CorrectnessObjective(
                    source_idx=source_idx,
                    labels=labels,
                    design=design,
                    l2_sources=l2_sources,
                    l2_features=l2_features,
                    intercept=False,
                )
            ).w
            # Sources without labeled observations keep the uniform prior.
            for s_idx in set(source_idx.tolist()):
                w[s_idx] = warm[s_idx]
            w[n_sources:-1] = warm[n_sources:]

    model = model_from_flat(w, dataset, design, space, intercept=True)
    previous = model.accuracies()
    loss: Optional[CorrectnessObjective] = None
    for _ in range(max_iterations):
        q_obs, _ = expected_correctness(structure, model.trust_scores(), labels_of_objects)
        if loss is None:
            loss = CorrectnessObjective(
                source_idx=structure.obs_source_idx,
                labels=q_obs,
                design=design,
                l2_sources=l2_sources,
                l2_features=l2_features,
                intercept=True,
            )
        else:
            loss.update_samples(structure.obs_source_idx, q_obs, None)
        w = minimize_lbfgs(
            loss, w0=w, tolerance=m_step_tolerance, gtol=min(1e-8, 10.0 * m_step_tolerance)
        ).w
        model = model_from_flat(w, dataset, design, space, intercept=True)
        current = model.accuracies()
        delta = float(np.mean(np.abs(current - previous)))
        previous = current
        if delta < tolerance:
            break
    return model_from_flat(w, dataset, design, space if use_features else None, intercept=True)


def fit_predict(
    dataset: FusionDataset, truth: Mapping[ObjectId, Value], learner: str
) -> Tuple[Dict[ObjectId, Value], Dict[ObjectId, Dict[Value, float]], Dict[SourceId, float]]:
    """``(values, posteriors, source accuracies)`` of an ERM or EM fit,
    training objects clamped to their labels."""
    model = fit_erm(dataset, truth) if learner == "erm" else fit_em(dataset, truth)
    posterior = posteriors(dataset, model, clamp=truth)
    return map_assignment(posterior), posterior, model.accuracy_map()
