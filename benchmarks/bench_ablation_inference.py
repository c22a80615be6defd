"""Ablation: inference backend — closed form vs factor-graph Gibbs.

The paper runs Gibbs sampling over DeepDive; this library's fast path is
the exact per-object softmax.  The two must agree on MAP assignments
(up to sampling noise), with the closed form orders of magnitude faster.
"""

import time

import pytest

from repro.core import ERMLearner, map_assignment, posteriors
from repro.data import generate_stocks
from repro.experiments import format_table
from repro.factorgraph import GibbsSampler, compile_dataset

from conftest import publish


@pytest.fixture(scope="module")
def fitted():
    dataset = generate_stocks(n_objects=150, seed=0)
    split = dataset.split(0.3, seed=0)
    model = ERMLearner().fit(dataset, split.train_truth)
    return dataset, model


def test_ablation_inference_backends(benchmark, fitted):
    dataset, model = fitted

    def run():
        started = time.perf_counter()
        exact = posteriors(dataset, model)
        exact_time = time.perf_counter() - started

        started = time.perf_counter()
        compiled = compile_dataset(dataset)
        compiled.set_weights_from_model(model)
        # The per-factor sweeps are DeepDive's execution model.
        gibbs = GibbsSampler(n_samples=400, burn_in=100, seed=0).run_sweeps(compiled.graph)
        gibbs_time = time.perf_counter() - started
        return exact, exact_time, gibbs, gibbs_time

    exact, exact_time, gibbs, gibbs_time = benchmark.pedantic(run, rounds=1, iterations=1)

    exact_map = map_assignment(exact)
    gibbs_map = {obj: gibbs.marginals[("T", obj)] for obj in dataset.objects}
    agreements = sum(
        1
        for obj, dist in gibbs_map.items()
        if max(dist, key=dist.get) == exact_map[obj]
    )
    agreement_rate = agreements / dataset.n_objects

    text = format_table(
        ["Backend", "Time (s)", "MAP agreement"],
        [
            ["closed form", exact_time, 1.0],
            ["factor graph + Gibbs", gibbs_time, agreement_rate],
        ],
        title="Ablation: inference backend",
    )
    publish("ablation_inference", text)

    assert agreement_rate > 0.95
    assert exact_time < gibbs_time
