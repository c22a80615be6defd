"""Empirical risk minimization for SLiMFast (paper Section 3.2).

With ground truth available, learning is a *convex* problem: no latent
variables remain, so the likelihood can be optimized directly and
efficiently ("we can avoid time consuming iterative algorithms entirely").
Two interchangeable objectives are offered:

* ``objective="correctness"`` (default) — the accuracy-estimate loss of
  Definition 7: logistic regression on per-observation correctness labels
  derived from the ground truth.  This is the objective the paper's
  Theorem 2 analyzes.
* ``objective="conditional"`` — the object-level conditional likelihood of
  Equation 4 restricted to labeled objects (the log-loss of Theorem 1).

Both objectives produce an :class:`~repro.core.model.AccuracyModel`; an
ablation bench compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import encode_dataset
from ..fusion.features import FeatureSpace
from ..fusion.types import DatasetError, ObjectId, Value
from ..optim.objectives import (
    ConditionalObjective,
    CorrectnessObjective,
    reduce_correctness_samples,
)
from ..optim.solvers import SolverResult, fista, minimize_lbfgs, sgd
from .model import AccuracyModel, model_from_flat
from .structure import PairStructure, build_pair_structure


@dataclass
class ERMConfig:
    """Hyper-parameters of the ERM learner.

    Attributes
    ----------
    objective:
        "correctness" (Definition 7) or "conditional" (Equation 4).
    l2_sources, l2_features:
        Ridge penalties.  Source indicators get a mild default penalty so
        sources with one or two labeled observations do not saturate.
    l1_features:
        Optional lasso penalty on feature weights (enables sparse models;
        the lasso-path module drives this over a grid).
    solver:
        "lbfgs" (default, deterministic) or "sgd" (paper-faithful).
    intercept:
        Fit a shared bias; required for unseen-source prediction.
    use_features:
        When False, reduces to the paper's Sources-ERM variant.
    featurizer:
        Optional :class:`repro.featurize.FeaturizerPipeline` (anything
        with ``design_for``) producing the design matrix — data-derived
        reliability features plus the metadata block — instead of the
        plain metadata :class:`FeatureSpace`.  Requires
        ``use_features=True``.
    """

    objective: str = "correctness"
    l2_sources: float = 4.0
    l2_features: float = 1.0
    l1_features: float = 0.0
    solver: str = "lbfgs"
    intercept: bool = False
    use_features: bool = True
    sgd_epochs: int = 40
    sgd_learning_rate: float = 0.5
    seed: int = 0
    featurizer: Optional[object] = None


def correctness_training_pairs(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
) -> Tuple[np.ndarray, np.ndarray]:
    """(source_idx, correctness label) pairs for observations on labeled objects.

    The arrays follow dataset observation order (the order SGD consumes
    them in), gathered from the dense encoding's index arrays.
    """
    labeled, codes = encode_dataset(dataset).truth_codes(truth)
    object_idx = dataset.obs_object_idx
    rows = np.flatnonzero(labeled[object_idx])
    source_idx = dataset.obs_source_idx[rows]
    label_values = (dataset.obs_value_idx[rows] == codes[object_idx[rows]]).astype(float)
    return source_idx, label_values


def correctness_pairs_from_structure(
    structure: PairStructure,
    truth: Mapping[ObjectId, Value],
) -> Tuple[np.ndarray, np.ndarray]:
    """Correctness training pairs derived from a prebuilt candidate structure.

    Equivalent to :func:`correctness_training_pairs` restricted to the
    observations the structure covers (up to sample order, which the
    per-source reduction erases): observations on objects present in
    ``truth`` are labeled 1 when they vote for the truth row and 0
    otherwise — including objects whose true value no surviving source
    claims, whose observations are all incorrect.  This is what lets a
    source-masked (leave-one-source-out) structure drive an ERM fit without
    rebuilding a subset dataset.
    """
    labeled, _ = structure.truth_codes(truth)
    label_rows = structure.label_rows(truth)
    obs_positions = structure.pair_object_pos[structure.obs_pair_idx]
    take = labeled[obs_positions]
    source_idx = structure.obs_source_idx[take]
    labels = (structure.obs_pair_idx[take] == label_rows[obs_positions[take]]).astype(float)
    return source_idx, labels


class ERMLearner:
    """Fits SLiMFast's accuracy model by empirical risk minimization."""

    def __init__(self, config: Optional[ERMConfig] = None, **overrides: object) -> None:
        base = config if config is not None else ERMConfig()
        if overrides:
            base = ERMConfig(**{**base.__dict__, **overrides})
        if base.objective not in ("correctness", "conditional"):
            raise ValueError(f"unknown objective {base.objective!r}")
        if base.solver not in ("lbfgs", "sgd"):
            raise ValueError(f"unknown solver {base.solver!r}")
        if base.featurizer is not None:
            if not base.use_features:
                raise ValueError("featurizer requires use_features=True")
            if not hasattr(base.featurizer, "design_for"):
                raise ValueError(
                    "featurizer must provide design_for(dataset) "
                    "(e.g. repro.featurize.FeaturizerPipeline), got "
                    f"{type(base.featurizer).__name__}"
                )
        self.config = base
        self.solver_result_: Optional[SolverResult] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: FusionDataset,
        truth: Mapping[ObjectId, Value],
        design: Optional[np.ndarray] = None,
        feature_space: Optional[FeatureSpace] = None,
        w0: Optional[np.ndarray] = None,
        structure: Optional[PairStructure] = None,
    ) -> AccuracyModel:
        """Learn model weights from ground truth ``truth``.

        ``design``/``feature_space`` may be passed to reuse a pre-built
        feature encoding (the facade does this to share one encoding across
        learners); otherwise they are built from the dataset.  ``structure``
        restricts a correctness-objective fit to the observations of a
        prebuilt (possibly source-masked) candidate structure — the sweep
        engine's leave-one-source-out path; ``w0`` warm-starts the convex
        solve (same optimum, fewer iterations).  The final
        :class:`~repro.optim.solvers.SolverResult` is published as
        :attr:`solver_result_`.
        """
        if not truth:
            raise DatasetError("ERM requires at least one ground-truth label")
        if structure is not None and self.config.objective != "correctness":
            raise ValueError("a prebuilt structure requires the correctness objective")
        if structure is not None and self.config.solver == "sgd":
            # SGD consumes per-observation samples whose order the structure
            # does not preserve; keep the bitwise-reproducible dataset path.
            raise ValueError("a prebuilt structure requires a deterministic solver")
        if design is None or feature_space is None:
            if self.config.featurizer is not None:
                design, feature_space = self.config.featurizer.design_for(dataset)
            else:
                design, feature_space = encode_dataset(dataset).design(self.config.use_features)

        if self.config.objective == "correctness":
            objective = self._correctness_objective(dataset, truth, design, structure)
            n_samples = objective.n_samples
        else:
            objective = self._conditional_objective(dataset, truth, design)
            n_samples = None

        result = self._solve(objective, n_samples, w0)
        self.solver_result_ = result
        model = model_from_flat(
            result.w,
            dataset,
            design,
            feature_space if self.config.use_features else None,
            intercept=self.config.intercept and self.config.objective == "correctness",
        )
        return model

    # ------------------------------------------------------------------
    def _correctness_objective(
        self,
        dataset: FusionDataset,
        truth: Mapping[ObjectId, Value],
        design: np.ndarray,
        structure: Optional[PairStructure] = None,
    ) -> CorrectnessObjective:
        if structure is not None:
            source_idx, labels = correctness_pairs_from_structure(structure, truth)
        else:
            source_idx, labels = correctness_training_pairs(dataset, truth)
        if source_idx.size == 0:
            raise DatasetError("no observations overlap the provided ground truth")
        sample_weights = None
        # SGD consumes the raw samples one at a time; deterministic solvers
        # see the loss only through per-source scores, so batch the samples
        # into sufficient statistics for them.
        if self.config.solver != "sgd":
            source_idx, labels, sample_weights = reduce_correctness_samples(
                source_idx, labels, dataset.n_sources
            )
        return CorrectnessObjective(
            source_idx=source_idx,
            labels=labels,
            design=design,
            sample_weights=sample_weights,
            l2_sources=self.config.l2_sources,
            l2_features=self.config.l2_features,
            intercept=self.config.intercept,
        )

    def _conditional_objective(
        self,
        dataset: FusionDataset,
        truth: Mapping[ObjectId, Value],
        design: np.ndarray,
    ) -> ConditionalObjective:
        labeled_objects = [obj for obj in dataset.objects if obj in truth]
        if not labeled_objects:
            raise DatasetError("no labeled objects found in the dataset")
        structure = build_pair_structure(dataset, labeled_objects)
        label_rows = structure.label_rows(dict(truth))
        return ConditionalObjective(
            design=design,
            obs_source_idx=structure.obs_source_idx,
            obs_pair_idx=structure.obs_pair_idx,
            pair_object_idx=structure.pair_object_pos,
            label_pair_idx=label_rows,
            l2_sources=self.config.l2_sources,
            l2_features=self.config.l2_features,
            base_scores=structure.base_scores,
        )

    def _solve(
        self,
        objective,
        n_samples: Optional[int],
        w0: Optional[np.ndarray],
    ) -> SolverResult:
        if self.config.l1_features > 0.0:
            mask = objective.layout.l1_mask(features=True)
            return fista(
                objective,
                l1_strength=self.config.l1_features,
                l1_mask=mask,
                w0=w0,
            )
        if self.config.solver == "sgd":
            if n_samples is None:
                raise ValueError("SGD solver requires the correctness objective")
            return sgd(
                objective,
                n_samples=n_samples,
                w0=w0,
                learning_rate=self.config.sgd_learning_rate,
                epochs=self.config.sgd_epochs,
                seed=self.config.seed,
            )
        return minimize_lbfgs(objective, w0=w0)
