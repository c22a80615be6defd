"""Adversarial, drifting, and correlated source scenarios.

The paper's evaluation (and the simulators in this package) assumes
*static* source reliabilities.  A production fusion service sees none of
that: sources drift (a feed degrades after a schema change), collude
(copier cliques replicate a leader's mistakes), and the world itself is
open (new objects and new candidate values keep arriving).  This module
generates *timed* workloads — streams of observation batches with a
ground-truth reveal schedule — that stress exactly those regimes:

* :func:`drift_scenario` — per-source accuracy follows a
  :class:`DriftSchedule` (step change, linear ramp, sinusoidal seasonality
  or constant), so flat Beta-count trust goes stale while decayed /
  windowed trust (``StreamingFuser(trust_decay=DecayConfig(...))``) and
  periodic ``refit_every`` re-anchoring can track the new regime;
* :func:`copier_clique_scenario` — coordinated cliques of copiers
  replicate a low-accuracy leader's claims (mistakes included) at a
  configurable copy rate, recreating the correlated-error structure the
  copying extension (:mod:`repro.core.copying`) exists to detect;
* :func:`open_world_scenario` — the object universe and the per-object
  candidate domains both *grow during streaming*, exercising the
  incremental encoding's domain-growth paths and open-world abstention.

Every generator accepts ``seed`` as an int or a live
:class:`numpy.random.Generator` (see
:func:`repro.data.simulators.as_generator`) and is deterministic across
process boundaries for int seeds; determinism is pinned in
``tests/scenarios/``.  Replay a scenario with :meth:`Scenario.replay`, or
drive the full figure-style comparison (flat vs decayed vs re-anchored
streaming vs batch EM vs majority) with
:func:`repro.experiments.harness.scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.types import DatasetError, ObjectId, Observation, SourceId, Value
from .simulators import SeedLike, as_generator

_ACCURACY_CLIP = (0.02, 0.98)

#: Drift shapes understood by :class:`DriftSchedule`.
DRIFT_KINDS = ("constant", "step", "ramp", "sin")


@dataclass(frozen=True)
class DriftSchedule:
    """Accuracy of one source as a function of stream time ``t in [0, 1]``.

    Attributes
    ----------
    kind:
        ``"constant"`` (always ``start``), ``"step"`` (``start`` before
        ``at``, ``end`` from ``at`` on), ``"ramp"`` (linear from ``start``
        at ``t=0`` to ``end`` at ``t=1``) or ``"sin"`` (``start`` plus a
        sinusoid of the given ``amplitude`` completing ``cycles`` full
        oscillations over the stream).
    start, end:
        Accuracy endpoints; ``end`` defaults to ``start``.
    at:
        Step position as a fraction of the stream (``kind="step"`` only).
    cycles, amplitude:
        Seasonality parameters (``kind="sin"`` only).

    Values are clipped into ``(0.02, 0.98)`` so degenerate all-right /
    all-wrong sources cannot occur.
    """

    kind: str = "constant"
    start: float = 0.8
    end: Optional[float] = None
    at: float = 0.5
    cycles: float = 1.0
    amplitude: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected one of {DRIFT_KINDS}")
        for label, value in (("start", self.start), ("end", self.end)):
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{label} accuracy must be in (0, 1), got {value}")
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("step position `at` must be in [0, 1]")

    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, accuracy: float) -> "DriftSchedule":
        """A source that never drifts."""
        return cls(kind="constant", start=accuracy)

    @classmethod
    def step(cls, start: float, end: float, at: float = 0.5) -> "DriftSchedule":
        """An abrupt regime change at stream fraction ``at``."""
        return cls(kind="step", start=start, end=end, at=at)

    @classmethod
    def ramp(cls, start: float, end: float) -> "DriftSchedule":
        """A linear drift from ``start`` to ``end`` over the stream."""
        return cls(kind="ramp", start=start, end=end)

    @classmethod
    def sine(cls, center: float, amplitude: float, cycles: float = 1.0) -> "DriftSchedule":
        """Seasonal accuracy oscillating around ``center``."""
        return cls(kind="sin", start=center, amplitude=amplitude, cycles=cycles)

    # ------------------------------------------------------------------
    def accuracy(self, t: float) -> float:
        """True accuracy at stream fraction ``t`` (clipped into (0.02, 0.98))."""
        end = self.start if self.end is None else self.end
        if self.kind == "constant":
            value = self.start
        elif self.kind == "step":
            value = self.start if t < self.at else end
        elif self.kind == "ramp":
            value = self.start + (end - self.start) * t
        else:  # sin
            value = self.start + self.amplitude * float(np.sin(2.0 * np.pi * self.cycles * t))
        return float(np.clip(value, *_ACCURACY_CLIP))


@dataclass
class ScenarioStep:
    """One time step of a scenario stream.

    ``observations`` is the batch ingested at this step; ``reveal`` maps
    objects whose ground truth becomes known *after* the batch is
    observed (delayed supervision, the feedback that drives streaming
    trust updates).
    """

    index: int
    time: float
    observations: List[Observation]
    reveal: Dict[ObjectId, Value] = field(default_factory=dict)


@dataclass
class Scenario:
    """A timed fusion workload: observation batches plus latent state.

    Attributes
    ----------
    name:
        Scenario label (also the exported dataset's name).
    steps:
        The stream, one :class:`ScenarioStep` per time step.
    truth:
        Full ground truth for every generated object (the *latent* truth;
        only each step's ``reveal`` is fed to streaming methods).
    source_ids:
        All sources, in stable order.
    true_accuracy:
        ``(n_steps, n_sources)`` matrix of each source's true per-claim
        accuracy at each step (copiers carry their *effective* accuracy,
        i.e. including copied claims).
    object_step:
        Step index at which each object was introduced.
    cliques:
        Planted copier cliques, ``[leader, copier, ...]`` per clique
        (empty for scenarios without copying structure).
    """

    name: str
    steps: List[ScenarioStep]
    truth: Dict[ObjectId, Value]
    source_ids: List[SourceId]
    true_accuracy: np.ndarray
    object_step: Dict[ObjectId, int]
    cliques: List[List[SourceId]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def n_observations(self) -> int:
        return sum(len(step.observations) for step in self.steps)

    def observations(self) -> List[Observation]:
        """The full stream, flattened in arrival order."""
        flat: List[Observation] = []
        for step in self.steps:
            flat.extend(step.observations)
        return flat

    def revealed_truth(self) -> Dict[ObjectId, Value]:
        """Union of every step's reveal (the supervision a replay sees)."""
        revealed: Dict[ObjectId, Value] = {}
        for step in self.steps:
            revealed.update(step.reveal)
        return revealed

    def eval_objects(
        self, at_step: Optional[int] = None, window: Optional[int] = None
    ) -> List[ObjectId]:
        """Held-out objects for accuracy scoring.

        Objects introduced in the ``window`` steps ending at ``at_step``
        (inclusive; defaults: last step, full history) whose truth was
        never revealed — the streaming analogue of the harness's test
        split.
        """
        last = self.n_steps - 1 if at_step is None else at_step
        first = 0 if window is None else max(0, last - window + 1)
        revealed = self.revealed_truth()
        return [
            obj
            for obj, step in self.object_step.items()
            if first <= step <= last and obj not in revealed
        ]

    def to_dataset(self) -> FusionDataset:
        """Export the accumulated stream as a batch dataset.

        ``true_accuracies`` carries each source's *time-averaged* true
        accuracy, the quantity a static batch fit can at best recover.
        """
        mean_accuracy = self.true_accuracy.mean(axis=0)
        return FusionDataset(
            self.observations(),
            ground_truth=dict(self.truth),
            true_accuracies={
                source: float(mean_accuracy[i]) for i, source in enumerate(self.source_ids)
            },
            name=self.name,
        )

    def replay(self, fuser, one_by_one: bool = False):
        """Drive a :class:`~repro.extensions.streaming.StreamingFuser`.

        Each step's batch is observed (as one bulk batch, or observation
        by observation when ``one_by_one`` — the mode that is bit-identical
        to the sequential streaming oracle), then the step's truth reveals
        are fed.
        Returns the fuser.
        """
        for step in self.steps:
            if step.observations:
                if one_by_one:
                    for observation in step.observations:
                        fuser.observe(observation)
                else:
                    fuser.observe_batch(step.observations)
            for obj, value in step.reveal.items():
                fuser.reveal_truth(obj, value)
        return fuser


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _times(n_steps: int) -> np.ndarray:
    if n_steps < 1:
        raise DatasetError("n_steps must be positive")
    if n_steps == 1:
        return np.zeros(1)
    return np.arange(n_steps) / float(n_steps - 1)


def _claim(rng: np.random.Generator, p_correct: float, domain_size: int) -> str:
    """One claimed value: the truth w.p. ``p_correct``, else a uniform alt."""
    if domain_size < 2:
        raise DatasetError("domain_size must be at least 2")
    if rng.random() < p_correct:
        return "v0"
    return f"v{1 + int(rng.integers(domain_size - 1))}"


def _ensure_observed(
    rng: np.random.Generator, mask: np.ndarray
) -> np.ndarray:
    """Guarantee every object (column) has at least one observer."""
    empty = np.flatnonzero(~mask.any(axis=0))
    for column in empty:
        mask[int(rng.integers(mask.shape[0])), column] = True
    return mask


def _ensure_truth_claimed_step(
    rng: np.random.Generator,
    claims: Dict[Tuple[int, str], str],
    objects: Sequence[str],
) -> None:
    """Flip one claimant per truth-less object to ``"v0"`` (in place)."""
    holders: Dict[str, List[int]] = {}
    has_truth: Dict[str, bool] = {obj: False for obj in objects}
    for (source, obj), value in claims.items():
        holders.setdefault(obj, []).append(source)
        if value == "v0":
            has_truth[obj] = True
    for obj in objects:
        if has_truth[obj] or obj not in holders:
            continue
        observers = holders[obj]
        lucky = observers[int(rng.integers(len(observers)))]
        claims[(lucky, obj)] = "v0"


def _reveal_sample(
    rng: np.random.Generator, objects: Sequence[str], fraction: float
) -> List[str]:
    count = int(round(fraction * len(objects)))
    if count == 0:
        return []
    picked = rng.choice(len(objects), size=min(count, len(objects)), replace=False)
    return [objects[int(i)] for i in sorted(picked)]


def default_drift_schedules(
    n_sources: int,
    stable_accuracy: float = 0.62,
    drift_start: float = 0.9,
    drift_end: float = 0.15,
    at: float = 0.5,
) -> List[DriftSchedule]:
    """The canonical step-drift mix: half trusted-then-broken, half stable.

    The first ``n_sources // 2`` sources start highly accurate and
    collapse at stream fraction ``at`` (the regime change flat Beta
    counts cannot forget); the rest are mediocre but stable.  This is the
    workload the decayed-vs-flat differential pins.
    """
    drifters = n_sources // 2
    return [
        DriftSchedule.step(drift_start, drift_end, at=at)
        if i < drifters
        else DriftSchedule.constant(stable_accuracy)
        for i in range(n_sources)
    ]


# ----------------------------------------------------------------------
# Generator (a): accuracy drift
# ----------------------------------------------------------------------
def drift_scenario(
    n_sources: int = 20,
    objects_per_step: int = 12,
    n_steps: int = 40,
    density: float = 0.6,
    schedules: Optional[Sequence[DriftSchedule]] = None,
    domain_size: int = 2,
    reveal_fraction: float = 0.5,
    ensure_truth_claimed: bool = True,
    name: str = "drift",
    seed: SeedLike = 0,
) -> Scenario:
    """Sources whose accuracy drifts over the stream.

    Each step introduces ``objects_per_step`` fresh objects; every source
    observes each w.p. ``density`` with correctness drawn from its
    :class:`DriftSchedule` at that step's time (default: the step-drift
    mix of :func:`default_drift_schedules`).  A ``reveal_fraction`` of
    each step's objects has its truth revealed right after the batch —
    the delayed supervision that drives streaming trust updates — while
    the rest stay held out for :meth:`Scenario.eval_objects` scoring.
    """
    rng = as_generator(seed)
    if schedules is None:
        schedules = default_drift_schedules(n_sources)
    if len(schedules) != n_sources:
        raise DatasetError(
            f"need one DriftSchedule per source: got {len(schedules)} for {n_sources} sources"
        )
    if not 0.0 < density <= 1.0:
        raise DatasetError("density must be in (0, 1]")
    if not 0.0 <= reveal_fraction <= 1.0:
        raise DatasetError("reveal_fraction must be in [0, 1]")

    times = _times(n_steps)
    source_ids = [f"s{i}" for i in range(n_sources)]
    accuracy = np.asarray(
        [[schedule.accuracy(float(t)) for schedule in schedules] for t in times]
    )

    steps: List[ScenarioStep] = []
    truth: Dict[ObjectId, Value] = {}
    object_step: Dict[ObjectId, int] = {}
    for s in range(n_steps):
        objects = [f"o{s:03d}_{j}" for j in range(objects_per_step)]
        for obj in objects:
            truth[obj] = "v0"
            object_step[obj] = s
        mask = _ensure_observed(
            rng, rng.random((n_sources, objects_per_step)) < density
        )
        claims: Dict[Tuple[int, str], str] = {}
        for source in range(n_sources):
            for j in np.flatnonzero(mask[source]):
                claims[(source, objects[int(j)])] = _claim(
                    rng, accuracy[s, source], domain_size
                )
        if ensure_truth_claimed:
            _ensure_truth_claimed_step(rng, claims, objects)
        observations = [
            Observation(source_ids[source], obj, value)
            for (source, obj), value in sorted(claims.items())
        ]
        reveal = {obj: truth[obj] for obj in _reveal_sample(rng, objects, reveal_fraction)}
        steps.append(
            ScenarioStep(index=s, time=float(times[s]), observations=observations, reveal=reveal)
        )
    return Scenario(
        name=name,
        steps=steps,
        truth=truth,
        source_ids=source_ids,
        true_accuracy=accuracy,
        object_step=object_step,
    )


# ----------------------------------------------------------------------
# Generator (b): coordinated copier cliques
# ----------------------------------------------------------------------
def copier_clique_scenario(
    n_sources: int = 24,
    n_cliques: int = 2,
    clique_size: int = 4,
    copy_rate: float = 0.9,
    leader_accuracy: float = 0.5,
    honest_accuracy: float = 0.78,
    accuracy_spread: float = 0.05,
    objects_per_step: int = 16,
    n_steps: int = 12,
    density: float = 0.55,
    domain_size: int = 3,
    reveal_fraction: float = 0.3,
    name: str = "copier-cliques",
    seed: SeedLike = 0,
) -> Scenario:
    """Coordinated copier cliques riding a stream of honest sources.

    The first ``n_cliques * clique_size`` sources form cliques: each has a
    low-accuracy *leader* whose claims its copiers replicate w.p.
    ``copy_rate`` (mistakes included; otherwise they draw independently at
    their own honest accuracy).  Remaining sources are independent.  The
    correlated errors make agreeing copiers look mutually corroborating to
    any conditional-independence model — the structure
    :func:`repro.core.copying.find_candidate_pairs` and
    :class:`repro.core.copying.CopyingSLiMFast` are built to detect;
    detection parity is pinned in ``tests/scenarios/``.

    ``Scenario.cliques`` records the planted groups (leader first).
    ``true_accuracy`` carries copiers' *effective* per-claim accuracy
    ``copy_rate * leader + (1 - copy_rate) * own``.
    """
    rng = as_generator(seed)
    n_clique_members = n_cliques * clique_size
    if clique_size < 2:
        raise DatasetError("clique_size must be at least 2 (a leader plus one copier)")
    if n_clique_members > n_sources:
        raise DatasetError("n_cliques * clique_size cannot exceed n_sources")
    if not 0.0 <= copy_rate <= 1.0:
        raise DatasetError("copy_rate must be in [0, 1]")

    source_ids = [f"s{i}" for i in range(n_sources)]
    own_accuracy = np.clip(
        honest_accuracy + rng.normal(scale=accuracy_spread, size=n_sources),
        *_ACCURACY_CLIP,
    )
    cliques: List[List[SourceId]] = []
    leader_of: Dict[int, int] = {}
    for g in range(n_cliques):
        block = list(range(g * clique_size, (g + 1) * clique_size))
        leader = block[0]
        own_accuracy[leader] = leader_accuracy
        for member in block[1:]:
            leader_of[member] = leader
        cliques.append([source_ids[i] for i in block])

    effective = own_accuracy.copy()
    for member, leader in leader_of.items():
        effective[member] = (
            copy_rate * own_accuracy[leader] + (1.0 - copy_rate) * own_accuracy[member]
        )

    times = _times(n_steps)
    steps: List[ScenarioStep] = []
    truth: Dict[ObjectId, Value] = {}
    object_step: Dict[ObjectId, int] = {}
    for s in range(n_steps):
        objects = [f"o{s:03d}_{j}" for j in range(objects_per_step)]
        for obj in objects:
            truth[obj] = "v0"
            object_step[obj] = s
        mask = _ensure_observed(
            rng, rng.random((n_sources, objects_per_step)) < density
        )
        claims: Dict[Tuple[int, str], str] = {}
        # Leaders and independent sources draw their own claims first.
        for source in range(n_sources):
            if source in leader_of:
                continue
            for j in np.flatnonzero(mask[source]):
                claims[(source, objects[int(j)])] = _claim(
                    rng, own_accuracy[source], domain_size
                )
        # Copiers replicate their leader's claims (errors included) w.p.
        # copy_rate on the leader's objects, and draw independently on
        # their own mask elsewhere.
        for member, leader in leader_of.items():
            for j in range(objects_per_step):
                obj = objects[j]
                leader_value = claims.get((leader, obj))
                if leader_value is not None:
                    if rng.random() < copy_rate:
                        claims[(member, obj)] = leader_value
                    else:
                        claims[(member, obj)] = _claim(rng, own_accuracy[member], domain_size)
                elif mask[member, j]:
                    claims[(member, obj)] = _claim(rng, own_accuracy[member], domain_size)
        _ensure_truth_claimed_step(rng, claims, objects)
        observations = [
            Observation(source_ids[source], obj, value)
            for (source, obj), value in sorted(claims.items())
        ]
        reveal = {obj: truth[obj] for obj in _reveal_sample(rng, objects, reveal_fraction)}
        steps.append(
            ScenarioStep(index=s, time=float(times[s]), observations=observations, reveal=reveal)
        )
    return Scenario(
        name=name,
        steps=steps,
        truth=truth,
        source_ids=source_ids,
        true_accuracy=np.tile(effective, (n_steps, 1)),
        object_step=object_step,
        cliques=cliques,
    )


# ----------------------------------------------------------------------
# Generator (c): open-world growth during streaming
# ----------------------------------------------------------------------
def open_world_scenario(
    n_sources: int = 16,
    initial_objects: int = 24,
    new_objects_per_step: int = 4,
    n_steps: int = 15,
    claim_rate: float = 0.12,
    initial_domain: int = 2,
    growth_rate: float = 0.25,
    accuracy: float = 0.72,
    accuracy_spread: float = 0.1,
    reveal_fraction: float = 0.3,
    name: str = "open-world",
    seed: SeedLike = 0,
) -> Scenario:
    """An object universe and value domains that grow *during* streaming.

    Each step adds ``new_objects_per_step`` fresh objects, and every live
    object's candidate-value pool gains a new (wrong) alternative w.p.
    ``growth_rate`` — so later claims can introduce values no earlier
    batch mentioned, exercising the incremental encoding's domain-growth
    and the streaming score table's span-relocation paths.  Sources that
    have not yet claimed an object do so w.p. ``claim_rate`` per step
    (each (source, object) pair claims at most once, the streaming
    dataset invariant), erring uniformly over the object's *current*
    alternative pool.  Source accuracies are static here; compose with
    :func:`drift_scenario` schedules for drift-plus-growth workloads.
    """
    rng = as_generator(seed)
    if initial_domain < 2:
        raise DatasetError("initial_domain must be at least 2")
    if not 0.0 < claim_rate <= 1.0:
        raise DatasetError("claim_rate must be in (0, 1]")
    if not 0.0 <= growth_rate <= 1.0:
        raise DatasetError("growth_rate must be in [0, 1]")

    source_ids = [f"s{i}" for i in range(n_sources)]
    accuracies = np.clip(
        accuracy + rng.normal(scale=accuracy_spread, size=n_sources), *_ACCURACY_CLIP
    )

    times = _times(n_steps)
    steps: List[ScenarioStep] = []
    truth: Dict[ObjectId, Value] = {}
    object_step: Dict[ObjectId, int] = {}
    pool_size: Dict[ObjectId, int] = {}  # current candidate-pool size (truth included)
    claimed: Set[Tuple[int, ObjectId]] = set()
    live: List[ObjectId] = []
    for s in range(n_steps):
        fresh = initial_objects if s == 0 else new_objects_per_step
        new_objects = [f"o{s:03d}_{j}" for j in range(fresh)]
        for obj in new_objects:
            truth[obj] = "v0"
            object_step[obj] = s
            pool_size[obj] = initial_domain
        live.extend(new_objects)

        # Open-world growth: existing pools gain a fresh alternative.
        grew = rng.random(len(live)) < growth_rate
        for keep, obj in zip(grew, live):
            if keep and obj not in new_objects:
                pool_size[obj] += 1

        claims: Dict[Tuple[int, str], str] = {}
        for obj in live:
            for source in range(n_sources):
                if (source, obj) in claimed:
                    continue
                force_first = obj in new_objects and not any(
                    (other, obj) in claims for other in range(n_sources)
                )
                if rng.random() < claim_rate or (source == n_sources - 1 and force_first):
                    claims[(source, obj)] = _claim(rng, accuracies[source], pool_size[obj])
                    claimed.add((source, obj))
        _ensure_truth_claimed_step(rng, claims, new_objects)
        observations = [
            Observation(source_ids[source], obj, value)
            for (source, obj), value in sorted(claims.items())
        ]
        reveal = {
            obj: truth[obj] for obj in _reveal_sample(rng, new_objects, reveal_fraction)
        }
        steps.append(
            ScenarioStep(index=s, time=float(times[s]), observations=observations, reveal=reveal)
        )
    return Scenario(
        name=name,
        steps=steps,
        truth=truth,
        source_ids=source_ids,
        true_accuracy=np.tile(accuracies, (n_steps, 1)),
        object_step=object_step,
    )


__all__ = [
    "DriftSchedule",
    "ScenarioStep",
    "Scenario",
    "default_drift_schedules",
    "drift_scenario",
    "copier_clique_scenario",
    "open_world_scenario",
]
