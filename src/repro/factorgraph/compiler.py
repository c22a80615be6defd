"""Compiler from fusion datasets to factor graphs (paper "Compilation").

SLiMFast's model compiles into a factor graph with:

* one categorical variable ``("T", obj)`` per object, observed when the
  object's true value is given as ground truth (evidence);
* per observation ``(o, s)`` one indicator factor ``1[T_o = v_{o,s}]`` tied
  to the source-indicator weight ``("src", s)``;
* per observation and active domain feature ``k`` (``f_{s,k} = 1``) one
  indicator factor tied to the feature weight ``("feat", k)``;
* one constant-weight offset factor per observation carrying the
  multi-valued domain correction ``log(|D_o| - 1)`` (zero for binary
  objects), mirroring :mod:`repro.core.inference`.

The tied weights make the graph exactly equivalent to Equation 4, which the
test suite verifies against the closed-form posterior.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..core.model import AccuracyModel
from ..fusion.dataset import FusionDataset
from ..fusion.features import FeatureSpace, build_design_matrix
from ..fusion.types import ObjectId, Value
from .graph import LATENT, FactorGraph

OFFSET_WEIGHT_ID = "__offset__"


def _indicator(target: Value):
    """Feature function: 1 when the (single) argument equals ``target``."""

    def feature(args: Tuple[Hashable, ...]) -> float:
        return 1.0 if args[0] == target else 0.0

    return feature


def _scaled_indicator(target: Value, scale: float):
    def feature(args: Tuple[Hashable, ...]) -> float:
        return scale if args[0] == target else 0.0

    return feature


class CompiledGraph:
    """A compiled factor graph plus its weight bookkeeping."""

    def __init__(
        self,
        graph: FactorGraph,
        dataset: FusionDataset,
        design: np.ndarray,
        feature_space: Optional[FeatureSpace],
    ) -> None:
        self.graph = graph
        self.dataset = dataset
        self.design = design
        self.feature_space = feature_space

    def variable_name(self, obj: ObjectId) -> Tuple[str, ObjectId]:
        return ("T", obj)

    def set_weights_from_model(self, model: AccuracyModel) -> None:
        """Copy an :class:`AccuracyModel`'s parameters into the tied weights."""
        for i, source in enumerate(self.dataset.sources):
            self.graph.weights[("src", source)] = float(model.w_sources[i])
        for k in range(self.design.shape[1]):
            self.graph.weights[("feat", k)] = float(model.w_features[k])
        self.graph.weights[OFFSET_WEIGHT_ID] = 1.0

    def learnable_weight_ids(self) -> list:
        """All weight ids except the constant offset."""
        return [wid for wid in self.graph.weights if wid != OFFSET_WEIGHT_ID]


def compile_with_copying(
    dataset: FusionDataset,
    pairs,
    evidence: Optional[Mapping[ObjectId, Value]] = None,
    use_features: bool = False,
    domain_correction: bool = True,
) -> CompiledGraph:
    """Compile the Appendix D extension: copying factors on top of the base model.

    For each candidate :class:`~repro.core.copying.SourcePair` and each
    object where both sources claim the same value, a factor
    ``1[T_o != common value]`` tied to the pair's weight ``("copy", first,
    second)`` is added — the paper's "agree but the inferred value
    differs" feature.  This demonstrates the declarative-extensibility
    claim of Section 3.2: the extension is a handful of extra factors, and
    the model stays log-linear.
    """
    compiled = compile_dataset(
        dataset,
        evidence=evidence,
        use_features=use_features,
        domain_correction=domain_correction,
    )
    graph = compiled.graph

    claims: Dict[Hashable, Dict[ObjectId, Value]] = {}
    for obs in dataset.observations:
        claims.setdefault(obs.source, {})[obs.obj] = obs.value

    def not_equal(target: Value):
        def feature(args: Tuple[Hashable, ...]) -> float:
            return 1.0 if args[0] != target else 0.0

        return feature

    for pair in pairs:
        weight_id = ("copy", pair.first, pair.second)
        claims_a = claims.get(pair.first, {})
        claims_b = claims.get(pair.second, {})
        for obj in claims_a.keys() & claims_b.keys():
            if claims_a[obj] != claims_b[obj]:
                continue
            graph.add_factor([("T", obj)], not_equal(claims_a[obj]), weight_id=weight_id)
    return compiled


def compile_dataset(
    dataset: FusionDataset,
    evidence: Optional[Mapping[ObjectId, Value]] = None,
    use_features: bool = True,
    domain_correction: bool = True,
) -> CompiledGraph:
    """Compile ``dataset`` into a factor graph.

    ``evidence`` objects become observed variables (the semi-supervised
    clamping of Section 3.2).
    """
    evidence = dict(evidence or {})
    design, space = build_design_matrix(dataset, use_features=use_features)

    graph = FactorGraph()
    for obj in dataset.objects:
        domain = dataset.domain(obj)
        observed = evidence.get(obj, LATENT)
        if observed is not LATENT and observed not in domain:
            # Evidence for a value no source claimed: extend the domain so
            # the variable can be clamped (single-truth semantics normally
            # prevent this, but simulated splits may hit it).
            domain = list(domain) + [observed]
        graph.add_variable(("T", obj), domain, observed=observed)

    graph.weights[OFFSET_WEIGHT_ID] = 1.0
    for obs in dataset.observations:
        var = ("T", obs.obj)
        s_idx = dataset.sources.index(obs.source)
        graph.add_factor([var], _indicator(obs.value), weight_id=("src", obs.source))
        for k in np.nonzero(design[s_idx])[0]:
            graph.add_factor([var], _indicator(obs.value), weight_id=("feat", int(k)))
        if domain_correction:
            n_alternatives = max(len(dataset.domain(obs.obj)) - 1, 1)
            offset = float(np.log(n_alternatives))
            if offset != 0.0:
                graph.add_factor(
                    [var],
                    _scaled_indicator(obs.value, offset),
                    weight_id=OFFSET_WEIGHT_ID,
                    initial_weight=1.0,
                )
    return CompiledGraph(graph, dataset, design, space if use_features else None)
