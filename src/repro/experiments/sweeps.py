"""Batched multi-fit sweep engine over one shared dense encoding.

Every headline experiment of the paper (Figures 4-9, Tables 2-6) is a
*sweep*: many EM/ERM fits of the same dataset under varying configurations
— training fractions, regularization strengths, learner variants,
leave-one-source-out counterfactuals.  Run naively, each fit pays the full
per-fit setup again: candidate-structure derivation, truth encoding, E-step
clamp planning, per-round objective construction, cold solver starts.

:class:`SweepRunner` amortizes all of it.  A dataset is compiled **once**
into its :class:`~repro.fusion.encoding.DenseEncoding`; every fit of the
sweep then runs against shared, cached artifacts:

* one full :class:`~repro.core.structure.PairStructure` (plus one masked
  structure per distinct ``exclude_sources`` set, derived by array
  filtering — see :func:`~repro.core.structure.build_masked_structure`);
* per-(structure, truth) label rows and fused E-step clamp plans;
* the cached design matrix per ``use_features`` flag;
* a **warm-start registry**: each completed fit publishes its final
  weights and L-BFGS curvature memory
  (:class:`~repro.optim.solvers.WarmStartState`), and each new fit seeds
  its first (convex) M-step solve from the *nearest-config* prior fit.
  Convexity of the M-step means the handoff changes only inner-solver
  paths, never any round's optimum, so batched results remain equivalent
  to isolated fits at the solver tolerance.

Batched mode additionally defaults the EM M-step solver to
``"lbfgs-warm"`` — the warm-started structured-Newton solver whose
equivalence to the scipy reference is contracted at atol=1e-8 in objective
value and ~1e-6 in accuracies (see :mod:`repro.core.em`).

``mode="isolated"`` keeps the existing per-fit path: every spec is fitted
through a fresh :class:`~repro.core.slimfast.SLiMFast`-style pipeline with
the classic ``"lbfgs"`` default and no cross-fit state.  The equivalence
of the two modes is pinned in ``tests/experiments/test_sweeps.py`` at the
same tolerances as the warm-solver contract.

**Cross-process execution** (``n_jobs``): the fits of a sweep are
independent once the shared artifacts exist, so ``SweepRunner(n_jobs=4)``
fans :meth:`SweepRunner.run` out over a ``ProcessPoolExecutor`` while
keeping the one-compile-per-sweep economics — the compiled
:class:`~repro.fusion.encoding.DenseEncoding` arrays, every cached
(masked) structure and every label/clamp plan are shipped to each worker
**once** through the pool initializer (via a picklable encoding export;
large arrays ride ``multiprocessing.shared_memory`` when the start method
would otherwise pickle them per worker).  Specs are split into
contiguous, deterministic chunks — one worker task each — and warm-start
donors are chosen *within* a chunk only, never across a scheduling-
dependent process boundary, so parallel results equal the serial batched
run at the same contract tolerances (and are themselves independent of
worker scheduling).  See :mod:`repro.experiments.parallel` for the
transport layer.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.em import EMConfig, EMLearner
from ..core.erm import ERMConfig, ERMLearner
from ..core.inference import clamp_rows, posterior_rows
from ..core.model import AccuracyModel
from ..core.optimizer import decide, estimate_average_accuracy
from ..core.structure import PairStructure, build_masked_structure, build_pair_structure
from ..fusion.dataset import FusionDataset
from ..fusion.encoding import DenseEncoding, encode_dataset
from ..fusion.result import FusionResult
from ..fusion.types import DatasetError, ObjectId, SourceId, Value
from ..optim.solvers import WarmStartState
from . import parallel as _parallel
from .parallel import (
    SharedArrayPack,
    SharedArrayRef,
    attach_shared_arrays,
    chunk_indices,
    extract_shared,
    resolve_n_jobs,
    resolve_shared,
    sharing_is_worthwhile,
)

SWEEP_MODES = ("batched", "isolated")

#: Method names (the Table 2 conventions) the runner can translate into
#: fit specs; baselines stay on the experiment harness's per-fit path.
METHOD_SPECS: Dict[str, Tuple[str, bool]] = {
    "slimfast": ("auto", True),
    "slimfast-erm": ("erm", True),
    "slimfast-em": ("em", True),
    "sources-erm": ("erm", False),
    "sources-em": ("em", False),
    "sources-auto": ("auto", False),
}


@dataclass
class FitSpec:
    """One fit of a sweep.

    Attributes
    ----------
    name:
        Label carried through to the :class:`SweepFitResult`.
    learner:
        ``"em"``, ``"erm"`` or ``"auto"`` (the paper's optimizer picks).
    train_truth:
        Ground truth revealed to this fit (may be empty for EM).
    use_features:
        Consume domain features (``False`` = the Sources-* variants).
    exclude_sources:
        Sources whose observations are masked out — the
        leave-one-source-out counterfactual.  The fit runs on a masked
        structure sharing the full dataset's source indexing, so excluded
        sources keep a (data-free) model slot.
    overrides:
        Extra :class:`~repro.core.em.EMConfig` /
        :class:`~repro.core.erm.ERMConfig` keyword overrides, e.g.
        ``{"l2_sources": 2.0}`` or ``{"intercept": True}``.
    featurizer:
        Optional :class:`repro.featurize.FeaturizerPipeline`: this fit's
        design matrix comes from data-derived reliability features
        instead of the encoding's metadata matrix.  The runner computes
        each distinct pipeline's design once per sweep (keyed by its
        ``version_key``) and shares it across fits; requires
        ``use_features=True``.
    """

    name: str
    learner: str = "em"
    train_truth: Mapping[ObjectId, Value] = field(default_factory=dict)
    use_features: bool = True
    exclude_sources: Tuple[SourceId, ...] = ()
    overrides: Mapping[str, object] = field(default_factory=dict)
    featurizer: Optional[object] = None

    @classmethod
    def from_method(cls, name: str, method: str, train_truth, **kwargs) -> "FitSpec":
        """Build a spec from a Table 2 method name (``METHOD_SPECS``)."""
        try:
            learner, use_features = METHOD_SPECS[method]
        except KeyError:
            raise KeyError(
                f"method {method!r} has no sweep spec; supported: "
                f"{', '.join(sorted(METHOD_SPECS))}"
            ) from None
        return cls(
            name=name,
            learner=learner,
            train_truth=train_truth,
            use_features=use_features,
            **kwargs,
        )


@dataclass
class SweepFitResult:
    """Outcome of one sweep fit.

    ``objective_value`` is the final solver objective (the last EM M-step's
    value, or the ERM solve's value) — the quantity the batched-vs-isolated
    equivalence contract compares at atol=1e-8.  ``warm_started`` names the
    donor fit whose :class:`~repro.optim.solvers.WarmStartState` seeded the
    first inner solve (``None`` for cold starts / isolated mode).
    """

    spec: FitSpec
    result: FusionResult
    model: AccuracyModel
    learner_used: str
    objective_value: float
    runtime_seconds: float
    warm_started: Optional[str] = None


class SweepRunner:
    """Run many EM/ERM fits of one dataset against a shared encoding.

    Parameters
    ----------
    dataset:
        The dataset every fit of the sweep runs on.
    mode:
        ``"batched"`` (default) shares compiled structures, label/clamp
        plans and warm-start state across fits and defaults the EM M-step
        to the contracted ``"lbfgs-warm"`` solver; ``"isolated"`` runs each
        spec through the existing per-fit path (fresh derivations, classic
        ``"lbfgs"`` default, no cross-fit state).
    warm_start:
        Disable the cross-fit warm-state handoff while keeping the other
        batched sharing (useful for ablation).
    n_jobs:
        Worker processes :meth:`run` fans independent fits out over
        (``None`` = one per CPU, default 1 = serial).  Parallel execution
        requires ``mode="batched"``: the whole point is shipping the
        shared compile to each worker once.  Results are deterministic
        and equal to the serial batched run at the contract tolerances —
        specs are chunked contiguously and warm-start donors never cross
        a chunk boundary — though ``warm_started`` donor *names* reflect
        the per-chunk schedule.  :meth:`run_one` always runs in-process.
    shared_memory:
        How the large encoding/structure arrays reach the workers:
        ``"auto"`` (default) uses ``multiprocessing.shared_memory`` when
        the start method pickles worker state (``spawn``/``forkserver``)
        and plain inheritance under ``fork``; ``True``/``False`` force
        either transport.

    Example::

        runner = SweepRunner(dataset, n_jobs=4)
        fits = runner.run(
            FitSpec(name=f"td={f}", learner="em", train_truth=dataset.split(f, seed=0).train_truth)
            for f in (0.05, 0.1, 0.2, 0.4)
        )
        accuracies = {fit.spec.name: fit.result.accuracy(dataset) for fit in fits}
    """

    def __init__(
        self,
        dataset: FusionDataset,
        mode: str = "batched",
        warm_start: bool = True,
        n_jobs: Optional[int] = 1,
        shared_memory: object = "auto",
    ) -> None:
        if mode not in SWEEP_MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {SWEEP_MODES}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        if self.n_jobs > 1 and mode != "batched":
            raise ValueError(
                'parallel sweeps (n_jobs > 1) require mode="batched"; the '
                "isolated path re-derives per-fit state and has nothing to ship"
            )
        if shared_memory not in ("auto", True, False):
            raise ValueError('shared_memory must be "auto", True or False')
        self.shared_memory = shared_memory
        self.dataset = dataset
        self.mode = mode
        self.warm_start = warm_start and mode == "batched"

        self._structures: Dict[Tuple[int, ...], PairStructure] = {}
        self._label_plans: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # Featurized designs per pipeline version key, shared across fits.
        self._featurized_designs: Dict[str, tuple] = {}
        self._avg_accuracy: Optional[float] = None
        # Warm registry: (spec, learner, truth fingerprint, state) per
        # completed warm-startable fit.
        self._warm_registry: List[Tuple[FitSpec, str, frozenset, WarmStartState]] = []
        if mode == "batched":
            # Compile once; every structure, design matrix and truth
            # encoding of the sweep derives from this.
            self._encoding = encode_dataset(dataset)

    # ------------------------------------------------------------------
    # Shared artifacts (batched mode)
    # ------------------------------------------------------------------
    def _exclude_key(self, exclude_sources: Tuple[SourceId, ...]) -> Tuple[int, ...]:
        """Order- and duplicate-insensitive cache key for a source mask."""
        return tuple(sorted({self.dataset.sources.index(s) for s in exclude_sources}))

    def _structure_for(self, exclude_sources: Tuple[SourceId, ...]) -> PairStructure:
        key = self._exclude_key(exclude_sources)
        cached = self._structures.get(key)
        if cached is None:
            if key:
                cached = build_masked_structure(self.dataset, exclude_sources)
            else:
                cached = build_pair_structure(self.dataset)
            self._structures[key] = cached
        return cached

    def _label_plan_for(
        self, structure: PairStructure, spec: FitSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(label_rows, fused-clamp blocked rows) per (structure, truth)."""
        key = (
            self._exclude_key(tuple(spec.exclude_sources)),
            frozenset(dict(spec.train_truth).items()),
        )
        cached = self._label_plans.get(key)
        if cached is None:
            label_rows = structure.label_rows(dict(spec.train_truth))
            cached = (label_rows, clamp_rows(structure, label_rows))
            self._label_plans[key] = cached
        return cached

    def _design_for_spec(self, spec: FitSpec, cached: bool):
        """``(design, space)`` for a spec, honoring its featurizer.

        Featurized designs are computed once per distinct pipeline
        ``version_key`` and reused by every fit that shares it (the
        pipeline's own content-addressed cache additionally dedupes
        across runners and processes).
        """
        if spec.featurizer is None:
            if cached:
                return self._encoding.design(spec.use_features)
            return encode_dataset(self.dataset).design(spec.use_features)
        if not spec.use_features:
            raise ValueError(f"spec {spec.name!r}: featurizer requires use_features=True")
        key = getattr(spec.featurizer, "version_key", repr(spec.featurizer))
        hit = self._featurized_designs.get(key)
        if hit is None:
            hit = spec.featurizer.design_for(self.dataset)
            self._featurized_designs[key] = hit
        return hit

    @staticmethod
    def _featurizer_key(spec: FitSpec) -> Optional[str]:
        if spec.featurizer is None:
            return None
        return getattr(spec.featurizer, "version_key", repr(spec.featurizer))

    def _average_accuracy(self) -> float:
        """Agreement-based accuracy estimate, computed once per sweep.

        Uses the same ``"domain-corrected"`` estimator :func:`decide`
        defaults to, so caching it cannot flip an auto-learner decision
        between the batched and isolated modes.
        """
        if self._avg_accuracy is None:
            self._avg_accuracy = estimate_average_accuracy(
                self.dataset, method="domain-corrected"
            )
        return self._avg_accuracy

    def _nearest_state(
        self, spec: FitSpec, learner: str
    ) -> Tuple[Optional[str], Optional[WarmStartState]]:
        """Warm state of the most similar completed fit, if any.

        Candidates must match the parameter layout (same learner family and
        ``use_features``); among those, similarity is ranked by matching
        source mask first, then by the symmetric difference of the revealed
        truth sets — the knobs that move the M-step optimum the least.
        """
        if not self.warm_start:
            return None, None
        truth_items = frozenset(dict(spec.train_truth).items())
        best: Optional[Tuple[tuple, str, WarmStartState]] = None
        exclude_key = self._exclude_key(tuple(spec.exclude_sources))
        for prior, prior_learner, prior_truth, state in self._warm_registry:
            if prior_learner != learner or prior.use_features != spec.use_features:
                continue
            # A different featurizer (or none) changes the design's column
            # count, so the flat parameter layouts are incompatible.
            if self._featurizer_key(prior) != self._featurizer_key(spec):
                continue
            distance = (
                self._exclude_key(tuple(prior.exclude_sources)) != exclude_key,
                len(truth_items ^ prior_truth),
            )
            if best is None or distance < best[0]:
                best = (distance, prior.name, state)
        if best is None:
            return None, None
        return best[1], best[2]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, specs) -> List[SweepFitResult]:
        """Run every spec, in order; fans out across processes when
        ``n_jobs > 1`` (single-spec inputs stay in-process — there is
        nothing to parallelize).  Serial runs thread warm state through
        the whole sweep; parallel runs thread it through each contiguous
        chunk."""
        specs = list(specs)
        if self.n_jobs > 1 and len(specs) > 1:
            return self._run_parallel(specs)
        return [self.run_one(spec) for spec in specs]

    def run_one(self, spec: FitSpec) -> SweepFitResult:
        """Run a single spec (batched fits still consult the shared caches)."""
        if spec.learner not in ("em", "erm", "auto"):
            raise ValueError(f"unknown learner {spec.learner!r}")
        started = time.perf_counter()
        truth = dict(spec.train_truth)

        if self.mode == "isolated":
            fit = self._run_isolated(spec, truth)
        else:
            fit = self._run_batched(spec, truth)
        fit.runtime_seconds = time.perf_counter() - started
        return fit

    # ------------------------------------------------------------------
    @staticmethod
    def _config_for(spec: FitSpec, learner_used: str, batched: bool):
        """Learner config from a spec's overrides.

        Explicit-learner specs pass overrides through verbatim (typos fail
        loudly).  ``learner="auto"`` specs may carry overrides for either
        learner, so only the fields the chosen config class actually has
        are applied.  Batched EM defaults to the contracted ``lbfgs-warm``
        solver unless the spec overrides it.
        """
        overrides = dict(spec.overrides)
        config_cls = EMConfig if learner_used == "em" else ERMConfig
        if spec.learner == "auto":
            known = {f.name for f in fields(config_cls)}
            overrides = {k: v for k, v in overrides.items() if k in known}
        if batched and learner_used == "em":
            overrides.setdefault("solver", "lbfgs-warm")
        return config_cls(use_features=spec.use_features, **overrides)

    @staticmethod
    def _erm_structure(spec: FitSpec, config: ERMConfig, structure: PairStructure):
        """Structure for a batched ERM fit, or ``None`` when unsupported.

        The structure-based sample path covers the deterministic
        correctness objective; SGD and the conditional objective keep their
        dataset-order derivations (SGD's sample stream is bitwise-pinned to
        the loop oracle), which is only impossible for source-masked specs.
        """
        if config.objective == "correctness" and config.solver != "sgd":
            return structure
        if spec.exclude_sources:
            raise ValueError(
                "source-masked ERM fits require the correctness objective "
                "and a deterministic solver"
            )
        return None

    def _choose_learner(self, spec: FitSpec, truth, n_features: int, cached: bool):
        """(learner name, OptimizerDecision or None) for a spec."""
        if spec.learner != "auto":
            return spec.learner, None
        decision = decide(
            self.dataset,
            truth,
            n_features=n_features,
            avg_accuracy=self._average_accuracy() if cached else None,
        )
        return decision.algorithm, decision

    def _run_batched(self, spec: FitSpec, truth) -> SweepFitResult:
        structure = self._structure_for(tuple(spec.exclude_sources))
        design, space = self._design_for_spec(spec, cached=True)
        label_rows, blocked = self._label_plan_for(structure, spec)
        learner_used, decision = self._choose_learner(spec, truth, design.shape[1], cached=True)
        # Warm handoff applies to EM only: its inner solver stops on the
        # gradient norm, so a foreign start changes nothing but speed.  A
        # one-shot ERM solve under scipy's decrease-based stop would instead
        # terminate *earlier* from a near-optimal start, trading the
        # equivalence contract for a negligible saving.
        donor, state = (
            self._nearest_state(spec, learner_used) if learner_used == "em" else (None, None)
        )

        config = self._config_for(spec, learner_used, batched=True)
        if learner_used == "em":
            learner = EMLearner(config)
            model = learner.fit(
                self.dataset,
                truth,
                design=design,
                feature_space=space,
                structure=structure,
                label_rows=label_rows,
                blocked_rows=blocked,
                warm_state=state,
            )
            final = learner.m_step_result_
            new_state = learner.warm_state_
        else:
            if not truth:
                raise DatasetError("ERM fits require training ground truth")
            learner = ERMLearner(config)
            model = learner.fit(
                self.dataset,
                truth,
                design=design,
                feature_space=space,
                structure=self._erm_structure(spec, config, structure),
            )
            final = learner.solver_result_
            # ERM fits are never warm-started (see above), so registering
            # their state would only accumulate dead weight vectors.
            new_state = None
        if new_state is not None and self.warm_start:
            self._warm_registry.append(
                (spec, learner_used, frozenset(truth.items()), new_state)
            )
        return self._package(spec, structure, model, truth, learner_used, final, donor, decision)

    def _run_isolated(self, spec: FitSpec, truth) -> SweepFitResult:
        """The existing per-fit path: fresh derivations, no shared state.

        Learners receive a prebuilt structure only for source-masked specs
        (which the classic path cannot express); plain specs go through the
        learners' own derivations, exactly as a direct per-fit call would.
        """
        if spec.exclude_sources:
            structure = build_masked_structure(self.dataset, spec.exclude_sources)
            fit_structure = structure
        else:
            structure = build_pair_structure(self.dataset)
            fit_structure = None
        design, space = self._design_for_spec(spec, cached=False)
        learner_used, decision = self._choose_learner(spec, truth, design.shape[1], cached=False)

        config = self._config_for(spec, learner_used, batched=False)
        if learner_used == "em":
            learner = EMLearner(config)
            model = learner.fit(
                self.dataset,
                truth,
                design=design,
                feature_space=space,
                structure=fit_structure,
            )
            final = learner.m_step_result_
        else:
            if not truth:
                raise DatasetError("ERM fits require training ground truth")
            learner = ERMLearner(config)
            model = learner.fit(
                self.dataset,
                truth,
                design=design,
                feature_space=space,
                structure=fit_structure,
            )
            final = learner.solver_result_
        return self._package(spec, structure, model, truth, learner_used, final, None, decision)

    # ------------------------------------------------------------------
    def _package(
        self, spec, structure, model, truth, learner_used, final, donor=None, decision=None
    ) -> SweepFitResult:
        """Array-native result packaging shared by both modes."""
        probs = posterior_rows(structure, model)
        diagnostics = {"learner": learner_used, "sweep_mode": self.mode}
        if decision is not None:
            # Parity with the SLiMFast facade, which records the optimizer
            # decision for auto-learner runs.
            diagnostics["optimizer"] = decision
        result = FusionResult.from_rows(
            structure,
            probs,
            clamp=truth,
            accuracy_vector=model.accuracies(),
            source_ids=model.source_ids,
            method=self._method_name(spec, learner_used),
            diagnostics=diagnostics,
        )
        return SweepFitResult(
            spec=spec,
            result=result,
            model=model,
            learner_used=learner_used,
            objective_value=float(final.value) if final is not None else float("nan"),
            runtime_seconds=0.0,
            warm_started=donor,
        )

    @staticmethod
    def _method_name(spec: FitSpec, learner_used: str) -> str:
        prefix = "slimfast" if spec.use_features else "sources"
        suffix = learner_used if spec.learner != "auto" else "auto"
        return f"{prefix}-{suffix}"

    # ------------------------------------------------------------------
    # Cross-process execution
    # ------------------------------------------------------------------
    def _run_parallel(self, specs: List[FitSpec]) -> List[SweepFitResult]:
        """Fan the specs out over worker processes, one compile for all.

        The parent derives every shared artifact the sweep needs
        (structures, label/clamp plans, design matrices, the cached
        optimizer accuracy estimate) exactly as the serial path would,
        exports it once, and hands each worker a contiguous chunk of
        specs.  Results come back in spec order regardless of completion
        order.
        """
        for spec in specs:
            if spec.learner not in ("em", "erm", "auto"):
                raise ValueError(f"unknown learner {spec.learner!r}")
            structure = self._structure_for(tuple(spec.exclude_sources))
            self._label_plan_for(structure, spec)
            self._encoding.design(spec.use_features)
        if any(spec.learner == "auto" for spec in specs):
            self._average_accuracy()

        payload, pack = self._export_payload()
        chunks = chunk_indices(len(specs), min(self.n_jobs, len(specs)))
        results: List[Optional[SweepFitResult]] = [None] * len(specs)
        try:
            with ProcessPoolExecutor(
                max_workers=len(chunks),
                initializer=_init_sweep_worker,
                initargs=(payload,),
            ) as executor:
                futures = [
                    (chunk, executor.submit(_run_sweep_chunk, [specs[i] for i in chunk]))
                    for chunk in chunks
                ]
                for chunk, future in futures:
                    for i, fit in zip(chunk, future.result()):
                        results[i] = fit
        finally:
            if pack is not None:
                pack.release()
        return results

    def _export_payload(self) -> Tuple["_SweepPayload", Optional[SharedArrayPack]]:
        """Bundle the shared compile for one-shot transfer to workers."""
        share = self.shared_memory
        if share == "auto":
            share = sharing_is_worthwhile()
        min_bytes = _parallel.SHARED_ARRAY_MIN_BYTES
        pool: Dict[str, np.ndarray] = {}
        state = self._encoding.export_state()

        arrays = state["arrays"]
        if share:
            arrays = extract_shared(arrays, pool, "enc", min_bytes)
        design_cache: Dict[bool, Tuple[object, object]] = {}
        for key, (rows, space) in state["design_cache"].items():
            entry: object = rows
            if share and rows.nbytes >= min_bytes:
                pool[f"design:{key}"] = rows
                entry = SharedArrayRef(f"design:{key}")
            design_cache[key] = (entry, space)
        structures: Dict[Tuple[int, ...], Dict[str, object]] = {}
        for key, structure in self._structures.items():
            if not key:
                continue  # workers re-wrap the full structure from the encoding
            masked_state = {
                f.name: getattr(structure, f.name)
                for f in fields(PairStructure)
                if f.name != "encoding"
            }
            if share:
                masked_state = extract_shared(masked_state, pool, f"mask:{key}", min_bytes)
            structures[key] = masked_state

        payload = _SweepPayload(
            dataset=self.dataset,  # pickles without its cached encoding
            warm_start=self.warm_start,
            encoding_arrays=arrays,
            encoding_pair_values=state["pair_values"],
            design_cache=design_cache,
            structures=structures,
            label_plans=dict(self._label_plans),
            avg_accuracy=self._avg_accuracy,
        )
        pack: Optional[SharedArrayPack] = None
        if pool:
            pack = SharedArrayPack(pool)
            payload.shared = pack.descriptor
        return payload, pack

    @classmethod
    def _from_payload(cls, payload: "_SweepPayload"):
        """Worker-side rebuild: a batched runner with pre-seeded caches.

        Returns ``(runner, segment)`` where ``segment`` is the attached
        shared-memory handle (or ``None``) the worker must keep alive for
        the runner's lifetime.
        """
        arrays: Dict[str, np.ndarray] = {}
        segment = None
        if payload.shared is not None:
            arrays, segment = attach_shared_arrays(payload.shared)
        dataset = payload.dataset
        dataset._dense_encoding = DenseEncoding.from_state(
            dataset,
            {
                "arrays": resolve_shared(payload.encoding_arrays, arrays),
                "pair_values": payload.encoding_pair_values,
                "design_cache": {
                    key: (
                        arrays[rows.key] if isinstance(rows, SharedArrayRef) else rows,
                        space,
                    )
                    for key, (rows, space) in payload.design_cache.items()
                },
            },
        )
        runner = cls(dataset, mode="batched", warm_start=payload.warm_start)
        for key, state in payload.structures.items():
            runner._structures[key] = PairStructure(**resolve_shared(state, arrays))
        runner._structures[()] = build_pair_structure(dataset)
        runner._label_plans = dict(payload.label_plans)
        runner._avg_accuracy = payload.avg_accuracy
        return runner, segment


@dataclass
class _SweepPayload:
    """Everything a sweep worker needs, shipped once per worker.

    ``encoding_arrays`` / ``design_cache`` / ``structures`` may contain
    :class:`~repro.experiments.parallel.SharedArrayRef` markers pointing
    into the ``shared`` segment descriptor; everything else travels by
    pickle (or copy-on-write inheritance under ``fork``).
    """

    dataset: FusionDataset
    warm_start: bool
    encoding_arrays: Dict[str, object]
    encoding_pair_values: List[Value]
    design_cache: Dict[bool, Tuple[object, object]]
    structures: Dict[Tuple[int, ...], Dict[str, object]]
    label_plans: Dict[tuple, Tuple[np.ndarray, np.ndarray]]
    avg_accuracy: Optional[float]
    shared: Optional[dict] = None


#: Per-worker runner (re)built once by the pool initializer, plus the
#: shared-memory handle that must outlive it.
_WORKER_RUNNER: Optional[SweepRunner] = None
_WORKER_SEGMENT = None


def _init_sweep_worker(payload: _SweepPayload) -> None:
    global _WORKER_RUNNER, _WORKER_SEGMENT
    _WORKER_RUNNER, _WORKER_SEGMENT = SweepRunner._from_payload(payload)


def _run_sweep_chunk(specs: List[FitSpec]) -> List[SweepFitResult]:
    """Run one contiguous chunk of specs in this worker, in order.

    The warm registry is reset per chunk: donors are drawn only from the
    chunk's own completed fits, so results depend on the deterministic
    chunking, never on which worker ran which chunk or in what order.
    """
    runner = _WORKER_RUNNER
    runner._warm_registry = []
    return [runner.run_one(spec) for spec in specs]


def leave_one_out_specs(
    dataset: FusionDataset,
    train_truth: Mapping[ObjectId, Value],
    sources: Optional[Sequence[SourceId]] = None,
    learner: str = "em",
    use_features: bool = True,
    overrides: Optional[Mapping[str, object]] = None,
) -> List[FitSpec]:
    """One :class:`FitSpec` per source, each masking that source out.

    The shared-encoding counterpart of rebuilding ``subset_sources``
    datasets in a loop; feed the result to :meth:`SweepRunner.run`.
    """
    pool = list(sources) if sources is not None else dataset.sources.items
    return [
        FitSpec(
            name=f"loo:{source!r}",
            learner=learner,
            train_truth=train_truth,
            use_features=use_features,
            exclude_sources=(source,),
            overrides=dict(overrides or {}),
        )
        for source in pool
    ]
