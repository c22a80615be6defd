"""A small factor-graph engine.

The paper compiles SLiMFast's model into a declarative factor-graph
framework (DeepDive) and runs learning and inference over it with a Gibbs
sampler.  This package is our substrate replacement: a minimal but real
factor-graph representation with

* categorical :class:`Variable` nodes (latent or observed/evidence),
* :class:`Factor` nodes whose log-potential is ``weight *
  feature(assignment)``, with weights optionally *tied* across factors
  (SLiMFast ties one weight per source / per domain feature),
* a Gibbs sampler (:mod:`repro.factorgraph.gibbs`) and
* a compiler from :class:`~repro.fusion.dataset.FusionDataset`
  (:mod:`repro.factorgraph.compiler`).

The engine is validated against the closed-form inference of
:mod:`repro.core.inference` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..fusion.types import FusionError


class GraphError(FusionError):
    """Raised for malformed factor graphs."""


class _Latent:
    """Type of :data:`LATENT`; copies and pickles resolve to the one instance."""

    def __repr__(self) -> str:
        return "LATENT"

    def __reduce__(self) -> str:
        return "LATENT"


#: The ``observed`` value of a variable without evidence (``None`` is a
#: value like any other, so it can be evidence).
LATENT = _Latent()


@dataclass
class Variable:
    """A categorical random variable.

    Attributes
    ----------
    name:
        Unique identifier.
    domain:
        The variable's possible values (at least one).
    observed:
        Evidence value, or :data:`LATENT` for a latent variable.
    """

    name: Hashable
    domain: Tuple[Hashable, ...]
    observed: Hashable = LATENT

    def __post_init__(self) -> None:
        if not self.domain:
            raise GraphError(f"variable {self.name!r} has an empty domain")
        if self.observed is not LATENT and self.observed not in self.domain:
            raise GraphError(f"evidence {self.observed!r} outside the domain of {self.name!r}")

    @property
    def cardinality(self) -> int:
        return len(self.domain)


@dataclass
class Factor:
    """A log-linear factor: ``log phi(x) = weight * feature(x)``.

    Attributes
    ----------
    variables:
        Names of the variables this factor touches, in feature-argument
        order.
    feature:
        Function mapping an assignment tuple (one value per variable, in
        ``variables`` order) to a real feature value.
    weight_id:
        Key of the (shared) weight this factor uses.  Factors with equal
        ``weight_id`` are *tied* — they share one learned parameter.
    """

    variables: Tuple[Hashable, ...]
    feature: Callable[[Tuple[Hashable, ...]], float]
    weight_id: Hashable

    def __post_init__(self) -> None:
        if not self.variables:
            raise GraphError("a factor must touch at least one variable")


class FactorGraph:
    """A collection of variables, factors and tied weights."""

    def __init__(self) -> None:
        self._variables: Dict[Hashable, Variable] = {}
        self._factors: List[Factor] = []
        self.weights: Dict[Hashable, float] = {}
        self._adjacency: Dict[Hashable, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: Hashable,
        domain: Sequence[Hashable],
        observed: Hashable = LATENT,
    ) -> Variable:
        """Add a variable; names must be unique."""
        if name in self._variables:
            raise GraphError(f"duplicate variable {name!r}")
        variable = Variable(name=name, domain=tuple(domain), observed=observed)
        self._variables[name] = variable
        self._adjacency[name] = []
        return variable

    def add_factor(
        self,
        variables: Sequence[Hashable],
        feature: Callable[[Tuple[Hashable, ...]], float],
        weight_id: Hashable,
        initial_weight: float = 0.0,
    ) -> Factor:
        """Add a factor over existing variables with a (shared) weight."""
        for name in variables:
            if name not in self._variables:
                raise GraphError(f"factor references unknown variable {name!r}")
        factor = Factor(variables=tuple(variables), feature=feature, weight_id=weight_id)
        index = len(self._factors)
        self._factors.append(factor)
        self.weights.setdefault(weight_id, initial_weight)
        for name in variables:
            self._adjacency[name].append(index)
        return factor

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def variable(self, name: Hashable) -> Variable:
        return self._variables[name]

    @property
    def variables(self) -> List[Variable]:
        return list(self._variables.values())

    @property
    def factors(self) -> List[Factor]:
        return list(self._factors)

    def factors_of(self, name: Hashable) -> List[Factor]:
        """Factors adjacent to a variable."""
        return [self._factors[i] for i in self._adjacency[name]]

    def latent_variables(self) -> List[Variable]:
        return [v for v in self._variables.values() if v.observed is LATENT]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def local_scores(self, name: Hashable, assignment: Dict[Hashable, Hashable]) -> np.ndarray:
        """Unnormalized log-scores of each value of ``name`` given the rest.

        Only adjacent factors are evaluated; all other variables are read
        from ``assignment`` (observed variables fall back to their
        evidence).
        """
        variable = self._variables[name]
        scores = np.zeros(variable.cardinality)
        for factor in self.factors_of(name):
            weight = self.weights[factor.weight_id]
            if weight == 0.0:
                continue
            for value_idx, value in enumerate(variable.domain):
                args = tuple(
                    value if other == name else self._resolve(other, assignment)
                    for other in factor.variables
                )
                scores[value_idx] += weight * factor.feature(args)
        return scores

    def assignment_log_score(self, assignment: Dict[Hashable, Hashable]) -> float:
        """Total unnormalized log-score of a full assignment."""
        total = 0.0
        for factor in self._factors:
            args = tuple(self._resolve(name, assignment) for name in factor.variables)
            total += self.weights[factor.weight_id] * factor.feature(args)
        return total

    def _resolve(self, name: Hashable, assignment: Dict[Hashable, Hashable]) -> Hashable:
        variable = self._variables[name]
        if variable.observed is not LATENT:
            return variable.observed
        if name not in assignment:
            raise GraphError(f"latent variable {name!r} missing from assignment")
        return assignment[name]
