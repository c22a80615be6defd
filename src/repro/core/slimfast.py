"""The SLiMFast facade — the library's primary public API.

Wires together compilation (feature encoding), the optimizer (ERM-vs-EM
choice), learning and inference into the three-step pipeline of paper
Figure 3::

    fuser = SLiMFast()                       # optimizer decides ERM vs EM
    result = fuser.fit_predict(dataset, train_truth)
    result.values                            # estimated true values
    result.source_accuracies                 # estimated source accuracies
    fuser.decision_                          # what the optimizer chose, and why

Variants from the paper's evaluation map onto constructor arguments:

=================  ====================================
Paper method       Construction
=================  ====================================
SLiMFast           ``SLiMFast()``
SLiMFast-ERM       ``SLiMFast(learner="erm")``
SLiMFast-EM        ``SLiMFast(learner="em")``
Sources-ERM        ``SLiMFast(learner="erm", use_features=False)``
Sources-EM         ``SLiMFast(learner="em", use_features=False)``
=================  ====================================
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import encode_dataset
from ..fusion.result import FusionResult
from ..fusion.types import DatasetError, NotFittedError, ObjectId, Value
from .em import EMConfig, EMLearner
from .erm import ERMConfig, ERMLearner
from .inference import posterior_rows
from .model import AccuracyModel
from .optimizer import OptimizerDecision, decide
from .structure import build_pair_structure


class SLiMFast:
    """Discriminative data fusion with an automatic learner choice.

    Parameters
    ----------
    learner:
        ``"auto"`` (paper's optimizer, Algorithm 2), ``"erm"`` or ``"em"``.
    use_features:
        Consume domain-specific features if the dataset provides them.
    tau:
        Optimizer bound threshold (paper default 0.1).
    objective:
        ERM objective: ``"correctness"`` (Definition 7) or ``"conditional"``
        (Equation 4).
    solver:
        M-step/ERM solver shared by both learner configs: ``"lbfgs"``
        (default), ``"lbfgs-warm"`` (EM reuses second-order state across
        rounds; ERM treats it as ``"lbfgs"``) or ``"sgd"``.  The warm
        solver is contract-equivalent to the scipy reference — objective
        values at atol=1e-8, accuracies near 1e-6 (see
        :class:`~repro.core.em.EMConfig` and the :mod:`repro.core.em`
        docstring) — and is what batched sweeps use by default.
    erm_config / em_config:
        Full learner configuration overrides; built from the scalar
        arguments when omitted.
    optimizer_per_observation / optimizer_accuracy_method:
        Optimizer variants, see :mod:`repro.core.optimizer`.
    featurizer:
        Optional :class:`repro.featurize.FeaturizerPipeline`: the design
        matrix comes from data-derived reliability features (plus the
        metadata block) instead of metadata alone.  Requires
        ``use_features=True``; ignored for learner configs passed
        explicitly.
    """

    def __init__(
        self,
        learner: str = "auto",
        use_features: bool = True,
        tau: float = 0.1,
        objective: str = "correctness",
        l2_sources: float = 4.0,
        l2_features: float = 1.0,
        solver: str = "lbfgs",
        erm_config: Optional[ERMConfig] = None,
        em_config: Optional[EMConfig] = None,
        optimizer_per_observation: bool = False,
        optimizer_accuracy_method: str = "domain-corrected",
        seed: int = 0,
        featurizer: Optional[object] = None,
    ) -> None:
        if learner not in ("auto", "erm", "em"):
            raise ValueError(f"unknown learner {learner!r}")
        if featurizer is not None and not use_features:
            raise ValueError("featurizer requires use_features=True")
        self.learner = learner
        self.use_features = use_features
        self.featurizer = featurizer
        self.tau = tau
        self.optimizer_per_observation = optimizer_per_observation
        self.optimizer_accuracy_method = optimizer_accuracy_method
        self.erm_config = erm_config or ERMConfig(
            objective=objective,
            l2_sources=l2_sources,
            l2_features=l2_features,
            solver=solver,
            use_features=use_features,
            seed=seed,
            featurizer=featurizer,
        )
        self.em_config = em_config or EMConfig(
            l2_sources=l2_sources,
            l2_features=l2_features,
            use_features=use_features,
            solver=solver,
            seed=seed,
            featurizer=featurizer,
        )

        self.model_: Optional[AccuracyModel] = None
        self.decision_: Optional[OptimizerDecision] = None
        self.chosen_learner_: Optional[str] = None
        self.timings_: Dict[str, float] = {}
        self._train_truth: Dict[ObjectId, Value] = {}
        self._dataset: Optional[FusionDataset] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: FusionDataset,
        train_truth: Optional[Mapping[ObjectId, Value]] = None,
    ) -> "SLiMFast":
        """Compile, choose a learner, and fit the accuracy model."""
        truth = dict(train_truth or {})
        self._dataset = dataset
        self._train_truth = truth

        started = time.perf_counter()
        if self.featurizer is not None:
            design, space = self.featurizer.design_for(dataset)
        else:
            # One compile covers the index arrays and the design matrix;
            # both are cached on the dataset for every later consumer.
            design, space = encode_dataset(dataset).design(self.use_features)
        self.timings_["compile"] = time.perf_counter() - started

        started = time.perf_counter()
        choice = self.learner
        if choice == "auto":
            self.decision_ = decide(
                dataset,
                truth,
                n_features=design.shape[1],
                tau=self.tau,
                per_observation=self.optimizer_per_observation,
                accuracy_method=self.optimizer_accuracy_method,
            )
            choice = self.decision_.algorithm
        self.timings_["optimizer"] = time.perf_counter() - started

        started = time.perf_counter()
        if choice == "erm":
            if not truth:
                raise DatasetError("ERM learner requires training ground truth")
            self.model_ = ERMLearner(self.erm_config).fit(
                dataset, truth, design=design, feature_space=space
            )
        else:
            self.model_ = EMLearner(self.em_config).fit(
                dataset, truth, design=design, feature_space=space
            )
        self.timings_["learning"] = time.perf_counter() - started
        self.chosen_learner_ = choice
        return self

    def predict(self) -> FusionResult:
        """Infer object values and package the full fusion output.

        Training objects are clamped to their known truth; all other
        objects receive MAP estimates under the learned model.  The returned
        :class:`FusionResult` is array-backed: no per-object dict is built
        on the predict path, the ``values`` / ``posteriors`` views
        materialize lazily on demand.
        """
        if self.model_ is None or self._dataset is None:
            raise NotFittedError("call fit() before predict()")
        started = time.perf_counter()
        structure = build_pair_structure(self._dataset)
        diagnostics: Dict[str, object] = {"learner": self.chosen_learner_}
        if self.decision_ is not None:
            diagnostics["optimizer"] = self.decision_
        result = FusionResult.from_rows(
            structure,
            posterior_rows(structure, self.model_),
            clamp=self._train_truth,
            accuracy_vector=self.model_.accuracies(),
            source_ids=self.model_.source_ids,
            method=self._method_name(),
            diagnostics=diagnostics,
        )
        self.timings_["inference"] = time.perf_counter() - started
        diagnostics["timings"] = dict(self.timings_)
        return result

    def fit_predict(
        self,
        dataset: FusionDataset,
        train_truth: Optional[Mapping[ObjectId, Value]] = None,
    ) -> FusionResult:
        """Convenience: :meth:`fit` followed by :meth:`predict`."""
        return self.fit(dataset, train_truth).predict()

    # ------------------------------------------------------------------
    def _method_name(self) -> str:
        prefix = "slimfast" if self.use_features else "sources"
        if self.learner == "auto":
            return prefix if prefix == "slimfast" else f"{prefix}-auto"
        return f"{prefix}-{self.learner}"
