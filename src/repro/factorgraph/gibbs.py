"""Gibbs sampling over factor graphs.

The paper performs probabilistic inference "via Gibbs sampling ...
implemented over DeepDive's sampler".  This sampler does the same over our
:class:`~repro.factorgraph.graph.FactorGraph`: iterate over latent
variables in a fixed order, resample each from its full conditional (a
softmax of the local scores), and accumulate marginal counts after an
initial burn-in.

:meth:`GibbsSampler.run` picks its path from the input.  A graph whose
latent-adjacent factors are all unary — exactly what
:mod:`repro.factorgraph.compiler` emits for SLiMFast — *compiles* into
per-variable factor-score tables (one flat score vector over all
(variable, value) rows); its full conditionals are state-independent, so
entire sweeps collapse into one segmented inverse-CDF draw over the
precomputed tables.  Every other graph, and every warm restart from an
``initial_state``, runs the per-factor sweeps
(:meth:`GibbsSampler.run_sweeps`), which evaluate every adjacent factor's
Python feature function at every sweep — faithful to the DeepDive
execution model but slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

from .._rng import as_generator
from ..optim.numerics import softmax
from ..optim.objectives import segment_softmax
from .graph import FactorGraph, GraphError

@dataclass
class GibbsResult:
    """Marginals and the last sampled state of a Gibbs run.

    Attributes
    ----------
    marginals:
        Per-variable dict ``value -> estimated posterior probability``.
    last_state:
        Final assignment of all latent variables.
    n_samples:
        Samples retained after burn-in.
    """

    marginals: Dict[Hashable, Dict[Hashable, float]]
    last_state: Dict[Hashable, Hashable]
    n_samples: int

    def map_assignment(self) -> Dict[Hashable, Hashable]:
        """Most probable value per variable under the marginals."""
        return {name: max(dist, key=dist.get) for name, dist in self.marginals.items()}


@dataclass
class UnaryScoreTables:
    """Per-variable conditional score tables of a unary-factor graph.

    Attributes
    ----------
    names:
        Latent variable names in graph order.
    domains:
        Domain tuple per latent variable.
    offsets:
        CSR offsets into the flattened (variable, value) ``scores`` vector.
    scores:
        Unnormalized log-score of every (variable, value) row.
    """

    names: List[Hashable]
    domains: List[tuple]
    offsets: np.ndarray
    scores: np.ndarray

    @property
    def n_variables(self) -> int:
        return len(self.names)


def compile_unary_score_tables(graph: FactorGraph) -> UnaryScoreTables:
    """Precompute every latent variable's conditional score table.

    Requires all factors adjacent to latent variables to be unary (true for
    the SLiMFast compilation, where every vote/feature/offset factor touches
    one object variable); raises :class:`GraphError` otherwise.
    """
    latent = graph.latent_variables()
    for variable in latent:
        for factor in graph.factors_of(variable.name):
            if len(factor.variables) != 1:
                raise GraphError(
                    "score tables require unary factors; factor over "
                    f"{factor.variables!r} touches latent {variable.name!r}"
                )
    names = [variable.name for variable in latent]
    domains = [variable.domain for variable in latent]
    cardinalities = np.asarray([len(d) for d in domains], dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(cardinalities, dtype=np.int64)]
    )
    scores = np.empty(int(offsets[-1]), dtype=float)
    empty_assignment: Dict[Hashable, Hashable] = {}
    for i, variable in enumerate(latent):
        scores[offsets[i] : offsets[i + 1]] = graph.local_scores(variable.name, empty_assignment)
    return UnaryScoreTables(names=names, domains=domains, offsets=offsets, scores=scores)


class GibbsSampler:
    """Single-chain Gibbs sampler with burn-in.

    Parameters
    ----------
    n_samples:
        Samples to retain for marginal estimation.
    burn_in:
        Initial sweeps to discard.  (On the score-table path the
        conditionals are state-independent, so burn-in sweeps would be
        i.i.d. draws; they are skipped without affecting the sampling
        distribution.)
    seed:
        RNG seed for reproducibility.  The two paths consume randomness
        differently, so their streams differ while targeting the same
        distribution.
    """

    def __init__(self, n_samples: int = 500, burn_in: int = 100, seed: int = 0) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.seed = seed

    def run(
        self,
        graph: FactorGraph,
        initial_state: Optional[Dict[Hashable, Hashable]] = None,
    ) -> GibbsResult:
        """Sample the latent variables of ``graph``.

        Samples from compiled score tables when the graph compiles (all
        latent-adjacent factors unary) and no ``initial_state`` is given;
        otherwise runs the per-factor sweeps, the only path that honors a
        warm restart or handles non-unary factors.
        """
        if initial_state is None:
            try:
                tables = compile_unary_score_tables(graph)
            except GraphError:
                pass
            else:
                return self._run_tables(tables)
        return self.run_sweeps(graph, initial_state)

    # ------------------------------------------------------------------
    def _run_tables(self, tables: UnaryScoreTables) -> GibbsResult:
        """Sample all variables per sweep from the precomputed tables.

        Each variable's full conditional is a static softmax of its score
        table, so a sweep is one inverse-CDF lookup per variable; all
        ``n_samples`` sweeps batch into a single searchsorted over the
        concatenated per-variable CDFs.
        """
        rng = as_generator(self.seed)
        n_vars = tables.n_variables
        if n_vars == 0:
            return GibbsResult(marginals={}, last_state={}, n_samples=self.n_samples)

        offsets = tables.offsets
        segment_idx = np.repeat(np.arange(n_vars, dtype=np.int64), np.diff(offsets))
        probs = segment_softmax(tables.scores, segment_idx, n_vars)
        cdf = np.cumsum(probs)
        # Exclusive cumulative mass at each variable's first row; each
        # segment spans ~1.0 of the global CDF.
        base = np.concatenate([[0.0], cdf])[offsets[:-1]]

        uniforms = rng.random((self.n_samples, n_vars))
        rows = np.searchsorted(cdf, base[None, :] + uniforms, side="left")
        # Guard against float drift pushing a draw across a segment edge.
        rows = np.clip(rows, offsets[:-1][None, :], (offsets[1:] - 1)[None, :])

        counts = np.bincount(rows.ravel(), minlength=int(offsets[-1]))
        marginals: Dict[Hashable, Dict[Hashable, float]] = {}
        last_state: Dict[Hashable, Hashable] = {}
        for i, name in enumerate(tables.names):
            domain = tables.domains[i]
            start = int(offsets[i])
            marginals[name] = {
                value: float(counts[start + j]) / self.n_samples
                for j, value in enumerate(domain)
            }
            last_state[name] = domain[int(rows[-1, i]) - start]
        return GibbsResult(marginals=marginals, last_state=last_state, n_samples=self.n_samples)

    # ------------------------------------------------------------------
    def run_sweeps(
        self,
        graph: FactorGraph,
        initial_state: Optional[Dict[Hashable, Hashable]] = None,
    ) -> GibbsResult:
        """Per-factor sweeps: resample each latent variable from its full
        conditional, evaluated from every adjacent factor, in graph order.

        Variables missing from ``initial_state`` start at a random value.
        """
        rng = as_generator(self.seed)
        latent = graph.latent_variables()
        state: Dict[Hashable, Hashable] = {}
        for variable in latent:
            if initial_state and variable.name in initial_state:
                state[variable.name] = initial_state[variable.name]
            else:
                state[variable.name] = variable.domain[int(rng.integers(variable.cardinality))]

        counts: Dict[Hashable, np.ndarray] = {
            variable.name: np.zeros(variable.cardinality) for variable in latent
        }

        for sweep in range(self.burn_in + self.n_samples):
            for variable in latent:
                scores = graph.local_scores(variable.name, state)
                probs = softmax(scores)
                choice = int(rng.choice(variable.cardinality, p=probs))
                state[variable.name] = variable.domain[choice]
            if sweep >= self.burn_in:
                for variable in latent:
                    value_idx = variable.domain.index(state[variable.name])
                    counts[variable.name][value_idx] += 1.0

        marginals: Dict[Hashable, Dict[Hashable, float]] = {}
        for variable in latent:
            total = counts[variable.name].sum() or 1.0
            marginals[variable.name] = {
                value: float(counts[variable.name][i] / total)
                for i, value in enumerate(variable.domain)
            }
        return GibbsResult(marginals=marginals, last_state=dict(state), n_samples=self.n_samples)
