"""Table 3: weighted error of source-accuracy estimates.

Only the probabilistic methods participate (CATD and SSTF are omitted, as
in the paper); Genomics is excluded because per-source accuracies cannot
be estimated reliably from ~1 observation per source (paper's "Omitted
Comparison" note).

Shape checks: SLiMFast's error stays below 0.1 everywhere, and beats
Counts clearly at the smallest training fraction (2-10x in the paper).
"""

import pytest

from repro.experiments import CellKey, TABLE3_METHODS, run_sweep, table3

from conftest import FRACTIONS, SEEDS, publish


@pytest.fixture(scope="module")
def sweep_report(paper_datasets):
    datasets = {k: v for k, v in paper_datasets.items() if k != "genomics"}
    return run_sweep(
        datasets,
        methods=TABLE3_METHODS,
        fractions=FRACTIONS,
        seeds=SEEDS,
    )


def test_table3_source_accuracy_error(benchmark, sweep_report, paper_datasets):
    text = benchmark.pedantic(lambda: table3(sweep_report), rounds=1, iterations=1)
    publish("table3_source_error", text)

    cells = sweep_report.cells

    def err(dataset, method, fraction):
        return cells[CellKey(paper_datasets[dataset].name, method, fraction)].source_error

    # SLiMFast's weighted error stays below 0.1 at every training fraction,
    # including 0.1% TD (one labeled object on Stocks, where the optimizer
    # picks EM, as the paper's did).
    for dataset in ("stocks", "crowd"):
        for fraction in FRACTIONS:
            assert err(dataset, "slimfast", fraction) < 0.1, (dataset, fraction)

    # The paper's core Table 3 claim: discriminative models estimate
    # accuracies with far lower error than label-counting at tiny TD.
    assert err("stocks", "sources-em", 0.001) < err("stocks", "counts", 0.001) / 2
    assert err("crowd", "sources-em", 0.001) < err("crowd", "counts", 0.001) / 2

    # Per-learner trend: the supervised estimate sharpens with ground
    # truth.  (The "slimfast" column itself can tick up when the optimizer
    # switches learners between fractions, so the trend is asserted on the
    # fixed-learner variant.)
    for dataset in ("stocks", "crowd", "demos"):
        assert err(dataset, "sources-erm", 0.20) < err(dataset, "sources-erm", 0.001)
