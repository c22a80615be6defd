"""Weight learning over factor graphs by pseudo-likelihood SGD.

DeepDive learns factor weights with SGD over the (pseudo-)likelihood of
evidence variables; this module does the same for our engine.  For each
evidence variable ``v`` the pseudo-likelihood term is
``log P(v = observed | rest)`` with the local conditional given by the
adjacent factors; its gradient with respect to a tied weight ``w`` is::

    feature(observed assignment) - E_{local conditional}[feature]

summed over the factors adjacent to ``v`` that carry ``w``.  For SLiMFast's
base model every factor is unary, so the pseudo-likelihood coincides with
the exact conditional likelihood of Equation 4 — the tests exploit that to
validate this learner against the closed-form ERM fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

from .._rng import as_generator
from ..optim.numerics import softmax
from .graph import LATENT, FactorGraph, Variable


@dataclass
class LearningResult:
    """Outcome of a pseudo-likelihood SGD run."""

    weights: Dict[Hashable, float]
    n_epochs: int
    final_objective: float


class PseudoLikelihoodLearner:
    """SGD over the pseudo-likelihood of a factor graph's evidence.

    Parameters
    ----------
    learning_rate:
        AdaGrad base step size.
    epochs:
        Passes over the evidence variables.
    l2:
        Ridge penalty per learnable weight (sum-space).
    seed:
        Shuffling seed.
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        epochs: int = 30,
        l2: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed

    def fit(
        self,
        graph: FactorGraph,
        learnable_ids: Optional[List[Hashable]] = None,
    ) -> LearningResult:
        """Learn the tied weights of ``graph`` in place.

        Only evidence (observed) variables contribute; ``learnable_ids``
        restricts which weights move (e.g. to keep offset weights fixed).
        """
        evidence = [v for v in graph.variables if v.observed is not LATENT]
        if not evidence:
            raise ValueError("pseudo-likelihood learning requires evidence variables")
        learnable = (set(learnable_ids) if learnable_ids is not None else set(graph.weights.keys()))

        rng = as_generator(self.seed)
        grad_sq: Dict[Hashable, float] = {wid: 0.0 for wid in learnable}
        n_evidence = len(evidence)

        objective = 0.0
        for _epoch in range(self.epochs):
            order = rng.permutation(n_evidence)
            objective = 0.0
            for idx in order:
                variable = evidence[int(idx)]
                objective += self._update_one(graph, variable, learnable, grad_sq)
        return LearningResult(
            weights=dict(graph.weights),
            n_epochs=self.epochs,
            final_objective=objective / n_evidence,
        )

    # ------------------------------------------------------------------
    def _update_one(
        self,
        graph: FactorGraph,
        variable: Variable,
        learnable: set,
        grad_sq: Dict[Hashable, float],
    ) -> float:
        """One SGD step on one evidence variable; returns its log-loss."""
        scores = graph.local_scores(variable.name, {})
        probs = softmax(scores)
        observed_idx = variable.domain.index(variable.observed)
        log_loss = -float(np.log(max(probs[observed_idx], 1e-12)))

        # Gradient of -log P(observed | rest) w.r.t. each adjacent weight.
        grads: Dict[Hashable, float] = {}
        for factor in graph.factors_of(variable.name):
            wid = factor.weight_id
            if wid not in learnable:
                continue
            feat_observed = factor.feature((variable.observed,))
            feat_expected = sum(
                probs[i] * factor.feature((value,))
                for i, value in enumerate(variable.domain)
            )
            grads[wid] = grads.get(wid, 0.0) + (feat_expected - feat_observed)

        for wid, grad in grads.items():
            grad += self.l2 * graph.weights[wid] / max(len(grad_sq), 1)
            grad_sq[wid] += grad * grad
            step = self.learning_rate / (np.sqrt(grad_sq[wid]) + 1e-8)
            graph.weights[wid] -= step * grad
        return log_loss
