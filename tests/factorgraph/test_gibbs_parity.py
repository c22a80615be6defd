"""Parity of the Gibbs sampler's two paths: score tables vs per-factor sweeps.

The paths consume randomness differently, so parity is distributional: on
unary graphs (the SLiMFast compilation target) both must converge to the
same exact softmax marginals.  ``run`` samples the compiled score tables on
such graphs; ``run_sweeps`` always runs the per-factor loop.
"""

import numpy as np
import pytest

from repro.factorgraph import FactorGraph, GibbsSampler, compile_unary_score_tables
from repro.factorgraph.graph import GraphError
from repro.optim import softmax


def indicator(target):
    return lambda args: 1.0 if args[0] == target else 0.0


def unary_graph():
    """Three independent variables with distinct unary pulls."""
    graph = FactorGraph()
    for i, weight in enumerate((1.2, -0.4, 0.7)):
        graph.add_variable(f"v{i}", ["a", "b", "c"])
        graph.add_factor([f"v{i}"], indicator("a"), weight_id=f"w{i}", initial_weight=weight)
    return graph


def sample(path, graph, **kwargs):
    sampler = GibbsSampler(**kwargs)
    return sampler.run_sweeps(graph) if path == "sweeps" else sampler.run(graph)


class TestGibbsPathParity:
    @pytest.mark.parametrize("path", ["sweeps", "tables"])
    def test_matches_exact_marginals(self, path):
        result = sample(path, unary_graph(), n_samples=6000, burn_in=200, seed=7)
        for i, weight in enumerate((1.2, -0.4, 0.7)):
            exact = softmax(np.array([weight, 0.0, 0.0]))
            for j, value in enumerate(("a", "b", "c")):
                assert result.marginals[f"v{i}"][value] == pytest.approx(
                    exact[j], abs=0.03
                ), f"path={path} v{i}[{value}]"

    def test_paths_agree_pairwise(self):
        graph = unary_graph()
        results = {
            path: sample(path, graph, n_samples=6000, burn_in=200, seed=11)
            for path in ("sweeps", "tables")
        }
        for name, dist in results["sweeps"].marginals.items():
            for value, probability in dist.items():
                assert results["tables"].marginals[name][value] == pytest.approx(
                    probability, abs=0.04
                )

    def test_map_assignment_agrees(self):
        graph = unary_graph()
        maps = {
            path: sample(path, graph, n_samples=4000, burn_in=100, seed=3).map_assignment()
            for path in ("sweeps", "tables")
        }
        # v1's "b" and "c" are exactly tied, so its argmax is sampling
        # noise; compare only the variables with a unique mode.
        for name in ("v0", "v2"):
            assert maps["sweeps"][name] == maps["tables"][name]


class TestGibbsPathDispatch:
    def pairwise_graph(self):
        graph = FactorGraph()
        graph.add_variable("x", ["a", "b"])
        graph.add_variable("y", ["a", "b"])
        graph.add_factor(
            ["x", "y"], lambda args: 1.0 if args[0] == args[1] else 0.0,
            weight_id="w", initial_weight=1.0,
        )
        return graph

    def test_score_tables_reject_non_unary(self):
        with pytest.raises(GraphError, match="unary"):
            compile_unary_score_tables(self.pairwise_graph())

    def test_non_unary_graph_runs_the_sweeps(self):
        sampler = GibbsSampler(n_samples=200, burn_in=20, seed=0)
        graph = self.pairwise_graph()
        result = sampler.run(graph)
        assert set(result.marginals) == {"x", "y"}
        assert result.marginals == sampler.run_sweeps(graph).marginals

    def test_initial_state_runs_the_sweeps(self):
        """A warm restart keeps the per-factor sweep semantics."""
        graph = unary_graph()
        state = {f"v{i}": "c" for i in range(3)}
        sampler = GibbsSampler(n_samples=50, burn_in=0, seed=5)
        result = sampler.run(graph, initial_state=state)
        assert set(result.last_state) == set(state)
        assert result.marginals == sampler.run_sweeps(graph, initial_state=state).marginals
