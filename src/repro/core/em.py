"""Expectation maximization for SLiMFast (paper Section 3.2).

When ground truth is limited or absent, SLiMFast estimates the weights and
the latent true values jointly:

* **E-step** — with weights fixed, compute posteriors ``P(T_o | Ω; w)``
  (Equation 4).  Objects with ground truth are *clamped* (they correspond to
  observed variables in the compiled factor graph), which makes this a
  semi-supervised procedure exactly as in the paper.
* **M-step** — with posteriors fixed, refit the accuracy model by weighted
  logistic regression: each observation contributes a soft correctness
  label ``q = P(T_o = v_{o,s} | Ω; w)``.

Initialization sets every source's accuracy to ``init_accuracy`` (0.7), so
the first E-step behaves like majority vote; when training labels exist an
ERM warm start is used instead.  The likelihood is non-convex and EM may
converge to local optima — the behaviour the paper's optimizer reasons
about (e.g. label-flipped solutions when average accuracy < 0.5).

**Warm-started M-step contract** (``solver="lbfgs-warm"``): each M-step is
a convex weighted logistic regression whose data only drifts through the
soft labels, so consecutive rounds share second-order information.  The
warm path starts every solve from the previous round's weights, uses a
*tolerance-adaptive* stopping rule (coarse while the outer EM delta is
large, floored at the scipy reference's precision near convergence), and
computes updates as structured Newton directions on the per-source
sufficient statistics (:meth:`CorrectnessObjective.newton_direction`, an
``O(S K^2)`` arrowhead solve) — with a warm-memory L-BFGS
(:func:`repro.optim.solvers.minimize_lbfgs_warm`) as the generic fallback
when the structured solve is unavailable.  Both paths minimize the same
objective as the scipy reference: objective values agree at atol=1e-8,
while parameter/accuracy agreement is bounded near 1e-6 by scipy's own
double-precision stopping plateau (see ``tests/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import encode_dataset
from ..fusion.features import FeatureSpace
from ..fusion.types import DatasetError, ObjectId, Value
from ..optim.numerics import logit
from ..optim.objectives import CorrectnessObjective, reduce_correctness_samples
from ..optim.solvers import (
    LBFGSMemory,
    SolverResult,
    WarmStartState,
    minimize_lbfgs,
    minimize_lbfgs_warm,
    minimize_newton,
    sgd,
)
from .erm import ERMConfig, ERMLearner
from .inference import clamp_rows, expected_correctness
from .model import AccuracyModel, model_from_flat
from .structure import PairStructure, build_pair_structure


@dataclass
class EMConfig:
    """Hyper-parameters of the EM learner.

    Attributes
    ----------
    max_iterations:
        EM round budget.
    tolerance:
        Convergence threshold on the mean absolute change in estimated
        source accuracies between rounds.
    init_accuracy:
        Uniform initial accuracy (first E-step = majority vote).
    warm_start_erm:
        When labels exist, initialize from an ERM fit on them.
    l2_sources, l2_features:
        Ridge penalties applied in every M-step.
    use_features:
        When False, reduces to the paper's Sources-EM variant (the
        discriminative equivalent of Zhao et al.'s generative model).
    solver:
        M-step solver: ``"lbfgs"`` (scipy L-BFGS-B, the reference),
        ``"lbfgs-warm"`` (warm-started structured Newton with an L-BFGS
        fallback — same minimizer, no per-round scipy setup cost, ~2.7x
        faster end-to-end EM at 10k observations) or ``"sgd"``.
        **Equivalence contract:** ``"lbfgs-warm"`` and ``"lbfgs"`` minimize
        the same convex M-step; objective values agree at atol=1e-8 and
        accuracies near 1e-6, bounded by scipy's double-precision stopping
        plateau (full statement in the module docstring; pinned in
        ``tests/test_vectorized_equivalence.py``).  Batched sweeps
        (:class:`repro.experiments.sweeps.SweepRunner`) default to
        ``"lbfgs-warm"`` on the strength of this contract.
    m_step_tolerance:
        Convergence tolerance of each M-step solve (scipy ``ftol`` for
        ``"lbfgs"``, the relative-decrease stop for ``"lbfgs-warm"``).
        Tighten to make the two solvers' trajectories coincide exactly;
        the default matches scipy's historical behaviour.
    n_shards:
        When set, every E-step runs shard-by-shard over contiguous object
        ranges (:mod:`repro.fusion.sharding`): each shard computes partial
        per-source sufficient statistics and the M-step reduces them —
        peak E-step memory is bounded by the largest shard instead of the
        whole structure.  **Equivalence contract:** value codes are
        bit-identical to the unsharded fit and probabilities/accuracies
        agree at ``atol=1e-10`` for any shard count (only the cross-shard
        float reduce reorders additions; pinned in
        ``tests/fusion/test_posterior_store.py``).  Requires a
        statistics-reducing solver (not ``"sgd"``).
    shard_jobs:
        Process fan-out for the shard E-steps *within one fit* (requires
        ``n_shards``): values above 1 evaluate shards on a
        :class:`repro.experiments.parallel.ShardStatPool` built once per
        fit; ``None``/1 keeps the serial in-process loop.  The reduction
        order is fixed (ascending shard index), so the fit is identical
        either way.
    featurizer:
        Optional :class:`repro.featurize.FeaturizerPipeline` (anything
        with a ``design_for(dataset_or_encoding)`` method).  When set,
        the design matrix is produced by the pipeline — data-derived
        reliability features plus the metadata block — instead of the
        plain metadata :class:`FeatureSpace`.  Requires
        ``use_features=True``; explicit ``design=``/``feature_space=``
        arguments to :meth:`EMLearner.fit` still take precedence.
    """

    max_iterations: int = 50
    tolerance: float = 1e-4
    init_accuracy: float = 0.7
    warm_start_erm: bool = True
    l2_sources: float = 4.0
    l2_features: float = 1.0
    use_features: bool = True
    solver: str = "lbfgs"
    sgd_epochs: int = 10
    seed: int = 0
    m_step_tolerance: float = 1e-8
    n_shards: Optional[int] = None
    shard_jobs: Optional[int] = None
    featurizer: Optional[object] = None


EM_SOLVERS = ("lbfgs", "lbfgs-warm", "sgd")


@dataclass
class EMTrace:
    """Per-round diagnostics of an EM run."""

    accuracy_deltas: List[float]
    n_iterations: int
    converged: bool


class EMLearner:
    """Fits SLiMFast's accuracy model by (semi-supervised) EM."""

    def __init__(self, config: Optional[EMConfig] = None, **overrides: object) -> None:
        base = config if config is not None else EMConfig()
        if overrides:
            base = EMConfig(**{**base.__dict__, **overrides})
        if base.solver not in EM_SOLVERS:
            raise ValueError(f"unknown solver {base.solver!r}; expected one of {EM_SOLVERS}")
        if base.n_shards is not None:
            if int(base.n_shards) < 1:
                raise ValueError(f"n_shards must be a positive integer, got {base.n_shards!r}")
            if base.solver == "sgd":
                raise ValueError(
                    "n_shards requires a statistics-reducing solver "
                    "('lbfgs' or 'lbfgs-warm'); sgd consumes per-observation samples"
                )
        elif base.shard_jobs is not None:
            raise ValueError("shard_jobs requires n_shards to be set")
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
        self.trace_: Optional[EMTrace] = None
        self.warm_state_: Optional[WarmStartState] = None
        self.m_step_result_: Optional[SolverResult] = None

    def fit(
        self,
        dataset: FusionDataset,
        truth: Optional[Mapping[ObjectId, Value]] = None,
        design: Optional[np.ndarray] = None,
        feature_space: Optional[FeatureSpace] = None,
        structure: Optional[PairStructure] = None,
        label_rows: Optional[np.ndarray] = None,
        blocked_rows: Optional[np.ndarray] = None,
        warm_state: Optional[WarmStartState] = None,
    ) -> AccuracyModel:
        """Run EM until source accuracies stabilize.

        ``truth`` may be empty (fully unsupervised) or partial
        (semi-supervised with clamped evidence variables).

        ``structure`` / ``label_rows`` / ``blocked_rows`` let a sweep engine
        pass a prebuilt (possibly source-masked) candidate structure, its
        per-object truth rows and the fused E-step clamp plan
        (:func:`~repro.core.inference.clamp_rows`), skipping the per-fit
        derivation.  ``warm_state`` seeds the *inner* M-step solver
        (starting point and L-BFGS curvature memory) from a previously
        completed fit; because each M-step is a convex solve this
        accelerates the first rounds without changing any round's optimum,
        so the EM trajectory — and therefore the fitted model — is
        unchanged up to the M-step solver tolerance.  Only
        ``solver="lbfgs-warm"`` honors the seed (its gradient-based stop
        can be pinned to the tolerance floor for the seeded round, keeping
        the round's optimum donor-independent; scipy's decrease-based stop
        cannot), other solvers ignore it.  The learner's own final state is
        published as :attr:`warm_state_` for the next fit in a sweep,
        alongside :attr:`m_step_result_` (the last M-step's
        :class:`~repro.optim.solvers.SolverResult`).
        """
        truth = dict(truth or {})
        if design is None or feature_space is None:
            if self.config.featurizer is not None:
                design, feature_space = self.config.featurizer.design_for(dataset)
            else:
                design, feature_space = encode_dataset(dataset).design(self.config.use_features)

        if structure is None:
            structure = build_pair_structure(dataset)
        if label_rows is None:
            label_rows = structure.label_rows(truth)
        # The rows the E-step clamp masks depend only on (structure, truth):
        # computed once here (or passed in), fused into every round's
        # segmented softmax.
        if blocked_rows is None:
            blocked_rows = clamp_rows(structure, label_rows)

        # The M-step model carries an unpenalized shared intercept: ridge
        # shrinkage then pulls individual sources toward the *population
        # mean* accuracy instead of toward 0.5.  Without it, sparse
        # instances (few observations per source) collapse to the
        # degenerate all-0.5 fixed point.
        w = np.concatenate(
            [self._initial_weights(dataset, truth, design, feature_space, structure), [0.0]]
        )
        model = model_from_flat(w, dataset, design, feature_space, intercept=True)

        # Sharded E-step: contiguous object-range shards computed once per
        # fit; each round reduces their partial per-source statistics
        # instead of touching the full structure in one pass (identical up
        # to the atol=1e-10 cross-shard reduce; see EMConfig.n_shards).
        shards = None
        shard_blocked = None
        shard_pool = None
        shard_reduce = None
        if self.config.n_shards is not None:
            from ..fusion.sharding import (
                shard_blocked_rows,
                shard_structure,
                sharded_correctness_stats,
            )

            shards = shard_structure(structure, int(self.config.n_shards))
            shard_blocked = shard_blocked_rows(shards, blocked_rows)
            shard_reduce = sharded_correctness_stats
            if self.config.shard_jobs is not None and int(self.config.shard_jobs) > 1:
                from ..experiments.parallel import ShardStatPool

                shard_pool = ShardStatPool(
                    shards, shard_blocked, dataset.n_sources, int(self.config.shard_jobs)
                )

        deltas: List[float] = []
        converged = False
        previous_acc = model.accuracies()
        reduce_m_step = self.config.solver != "sgd"
        warm = self.config.solver == "lbfgs-warm"
        # A warm-state handoff must match this fit's parameter layout; an
        # incompatible donor (different feature flag or dataset) is ignored
        # entirely — both its starting point and its curvature memory.
        seeded = warm and warm_state is not None and warm_state.compatible_with(w.shape[0])
        # Curvature memory shared across M-steps: the objective only drifts
        # through the soft labels, so the previous round's inverse-Hessian
        # approximation remains a good preconditioner.  A sweep's warm-state
        # handoff continues a *copy* of the donor fit's memory instead of
        # starting cold — copying keeps the donor's published state frozen
        # rather than aliasing one memory across every fit of a sweep.
        if seeded and warm_state.memory is not None:
            donor_memory = warm_state.memory
            warm_memory = LBFGSMemory(
                max_pairs=donor_memory.max_pairs,
                s=list(donor_memory.s),
                y=list(donor_memory.y),
                rho=list(donor_memory.rho),
            )
        else:
            warm_memory = LBFGSMemory() if warm else None
        # Foreign starting point for the first inner solve only; the convex
        # M-step reaches the same optimum from any start.  Restricted to the
        # lbfgs-warm family, whose gradient-based stopping rule we can pin
        # below; scipy's decrease-based stop would terminate a near-optimal
        # foreign start early and break the equivalence contract.
        solve_from = w
        foreign_start = False
        if seeded:
            solve_from = np.asarray(warm_state.w, dtype=float)
            foreign_start = True
        objective: Optional[CorrectnessObjective] = None
        result: Optional[SolverResult] = None
        delta = float("inf")
        try:
            for _ in range(self.config.max_iterations):
                # E-step: soft correctness of each observation, with the
                # ground-truth clamp fused into the segmented softmax.  On
                # the sharded path the per-observation q never materializes
                # globally: each shard reduces its own observations to
                # per-source (totals, mass) partials.
                if shards is not None:
                    trust = model.trust_scores()
                    if shard_pool is not None:
                        totals, mass = shard_pool.stats(trust)
                    else:
                        totals, mass = shard_reduce(
                            shards, trust, dataset.n_sources, shard_blocked
                        )
                    active = np.flatnonzero(totals > 0)
                    source_idx = active
                    labels = np.clip(mass[active] / totals[active], 0.0, 1.0)
                    sample_weights = totals[active]
                else:
                    q_obs, _ = expected_correctness(
                        structure,
                        model.trust_scores(),
                        label_rows,
                        blocked_rows=blocked_rows,
                    )

                    # M-step samples: the objective is built once and
                    # re-pointed (re-reduced) at each round's samples —
                    # design, layout and penalties never change.
                    if reduce_m_step:
                        source_idx, labels, sample_weights = reduce_correctness_samples(
                            structure.obs_source_idx, q_obs, dataset.n_sources
                        )
                    else:
                        source_idx, labels, sample_weights = (
                            structure.obs_source_idx,
                            q_obs,
                            None,
                        )
                if objective is None:
                    objective = CorrectnessObjective(
                        source_idx=source_idx,
                        labels=labels,
                        design=design,
                        sample_weights=sample_weights,
                        l2_sources=self.config.l2_sources,
                        l2_features=self.config.l2_features,
                        intercept=True,
                    )
                else:
                    objective.update_samples(source_idx, labels, sample_weights)
                if self.config.solver == "sgd":
                    result = sgd(
                        objective,
                        n_samples=structure.obs_source_idx.shape[0],
                        w0=w,
                        epochs=self.config.sgd_epochs,
                        seed=self.config.seed,
                    )
                elif warm:
                    # Tolerance-adaptive stopping: while EM is far from its
                    # fixed point the M-step only needs enough precision to
                    # keep the outer iteration on track; the floor keeps the
                    # final rounds at least as tight as the scipy reference.
                    floor = min(1e-8, 10.0 * self.config.m_step_tolerance)
                    gtol = max(floor, min(1e-6, 1e-2 * delta))
                    if foreign_start:
                        # A donor's weights may already satisfy the coarse
                        # early-round gtol, which would hand them back
                        # verbatim; solving the seeded round to the floor
                        # keeps the round's optimum — and hence the whole EM
                        # trajectory — independent of the donor.
                        gtol = floor
                        foreign_start = False
                    try:
                        # Second-order update on the per-source sufficient
                        # statistics: warm-started from the previous round's
                        # weights, it reaches the M-step optimum in one or
                        # two structured Newton solves.
                        result = minimize_newton(objective, w0=solve_from, gtol=gtol)
                    except np.linalg.LinAlgError:  # pragma: no cover - degenerate
                        result = minimize_lbfgs_warm(
                            objective,
                            w0=solve_from,
                            memory=warm_memory,
                            gtol=gtol,
                            ftol=self.config.m_step_tolerance,
                        )
                else:
                    result = minimize_lbfgs(
                        objective,
                        w0=solve_from,
                        tolerance=self.config.m_step_tolerance,
                        gtol=min(1e-8, 10.0 * self.config.m_step_tolerance),
                    )
                w = result.w
                solve_from = w
                model = model_from_flat(w, dataset, design, feature_space, intercept=True)

                current_acc = model.accuracies()
                delta = float(np.mean(np.abs(current_acc - previous_acc)))
                deltas.append(delta)
                previous_acc = current_acc
                if delta < self.config.tolerance:
                    converged = True
                    break
        finally:
            if shard_pool is not None:
                shard_pool.shutdown()

        self.trace_ = EMTrace(accuracy_deltas=deltas, n_iterations=len(deltas), converged=converged)
        self.m_step_result_ = result
        self.warm_state_ = WarmStartState(w=np.array(w, dtype=float), memory=warm_memory)
        final_space = feature_space if self.config.use_features else None
        return model_from_flat(w, dataset, design, final_space, intercept=True)

    # ------------------------------------------------------------------
    def _initial_weights(
        self,
        dataset: FusionDataset,
        truth: Dict[ObjectId, Value],
        design: np.ndarray,
        feature_space: FeatureSpace,
        structure: PairStructure,
    ) -> np.ndarray:
        n_params = dataset.n_sources + design.shape[1]
        w = np.zeros(n_params)
        w[: dataset.n_sources] = float(logit(self.config.init_accuracy))
        if truth and self.config.warm_start_erm:
            # The warm start reads the fit's (possibly source-masked)
            # structure, so a leave-source-out fit never sees the excluded
            # sources' votes.
            learner = ERMLearner(
                ERMConfig(
                    l2_sources=self.config.l2_sources,
                    l2_features=self.config.l2_features,
                    use_features=self.config.use_features,
                )
            )
            try:
                warm = learner.fit(
                    dataset, truth, design=design, feature_space=feature_space, structure=structure
                )
            except DatasetError:  # no observation overlaps the labels
                return w  # fall back to the uniform init
            # Sources without labeled observations keep the uniform prior so
            # the first E-step still behaves like majority vote for objects
            # the labeled sources do not cover.
            if structure.encoding is not None:
                labeled_all, _ = structure.encoding.truth_codes(truth)
                labeled_pos = labeled_all[structure.object_dataset_idx]
            else:
                labeled_pos = np.asarray([obj in truth for obj in structure.object_ids], dtype=bool)
            obs_positions = structure.pair_object_pos[structure.obs_pair_idx]
            labeled_sources = np.unique(structure.obs_source_idx[labeled_pos[obs_positions]])
            for s_idx in labeled_sources:
                w[s_idx] = warm.w_sources[s_idx]
            w[dataset.n_sources :] = warm.w_features
        return w


def fit_incremental(
    encoding,
    truth: Optional[Mapping[ObjectId, Value]] = None,
    warm_state: Optional[WarmStartState] = None,
    config: Optional[EMConfig] = None,
    design: Optional[np.ndarray] = None,
    feature_space: Optional[FeatureSpace] = None,
    **overrides: object,
) -> Tuple[AccuracyModel, "EMLearner"]:
    """Re-fit the EM model over an incrementally-grown stream.

    The batch re-fit entry point for append-only workloads: given an
    :class:`~repro.fusion.encoding.IncrementalEncoding` (and the ground
    truth revealed so far), run a full EM fit with the encoding itself as
    the dataset.  The encoding carries the id tables, domains and source
    features the learner reads, its compiled arrays are the candidate
    structure (:func:`~repro.core.structure.build_pair_structure`) and its
    per-source row cache is the design matrix — so a periodic streaming
    re-anchor (``StreamingFuser.refit_every``) never recompiles from
    scratch and never walks the accumulated observation list.  A
    ``featurizer`` in the config reads the encoding's compiled arrays; a
    streaming caller holding running statistics passes
    ``design=``/``feature_space=`` directly to stay O(batch).

    ``warm_state`` seeds the first convex M-step solve from a previous
    re-fit (the sweep engine's warm-start hook): because each M-step is
    convex this never changes the fit's optimum, only its path, so
    periodic re-fits over a stream converge in fewer inner iterations as
    the data drifts slowly.
    The solver defaults to the contracted ``"lbfgs-warm"`` path (the only
    one that honors the seed).

    Returns ``(model, learner)``; the learner's :attr:`EMLearner.warm_state_`
    is the hand-off state for the next re-fit.
    """
    if config is None and "solver" not in overrides:
        overrides = {**overrides, "solver": "lbfgs-warm"}
    learner = EMLearner(config, **overrides)
    model = learner.fit(
        encoding, truth, design=design, feature_space=feature_space, warm_state=warm_state
    )
    return model, learner
