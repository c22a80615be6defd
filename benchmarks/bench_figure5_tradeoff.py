"""Figure 5: the ERM/EM tradeoff grid.

Reproduces the qualitative winner map over (training data, average
accuracy, density): abundant labels favor ERM; scarce labels with high
accuracy and density favor EM.
"""

from repro.experiments import figure5_grid, format_table

from conftest import FULL_SCALE, publish

N_SOURCES = 1000
N_OBJECTS = 600 if FULL_SCALE else 250


def test_figure5_tradeoff_grid(benchmark):
    cells = benchmark.pedantic(
        lambda: figure5_grid(
            train_fractions=(0.02, 0.40),
            accuracies=(0.55, 0.80),
            densities=(0.005, 0.02),
            n_sources=N_SOURCES,
            n_objects=N_OBJECTS,
            seeds=(0,),
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            f"{c.train_fraction:g}",
            f"{c.avg_accuracy:g}",
            f"{c.density:g}",
            c.winner,
            c.em_accuracy,
            c.erm_accuracy,
        ]
        for c in cells
    ]
    text = format_table(
        ["TD", "Avg acc", "Density", "Winner", "EM", "ERM"],
        rows,
        title="Figure 5: EM/ERM tradeoff grid",
    )
    publish("figure5_tradeoff", text)

    by_key = {(c.train_fraction, c.avg_accuracy, c.density): c for c in cells}
    # Paper Figure 5, top row: with ample ground truth ERM is competitive.
    # We check the high-accuracy columns; in the low-accuracy, sparse
    # corner our semi-supervised EM keeps an edge even at 40% labels
    # because it additionally consumes the unlabeled conflicts (deviation
    # documented under "Deviations from the paper" in README.md).
    for density in (0.005, 0.02):
        cell = by_key[(0.40, 0.80, density)]
        assert cell.erm_accuracy >= cell.em_accuracy - 0.05

    # Bottom-right corner: scarce labels + high accuracy + high density -> EM.
    corner = by_key[(0.02, 0.80, 0.02)]
    assert corner.em_accuracy >= corner.erm_accuracy - 0.005

    # In the high-accuracy columns (where EM dominates at scarce labels)
    # the EM-minus-ERM gap must shrink as labels grow — the core of the
    # tradeoff.  Low-accuracy columns are excluded: there both algorithms
    # are label-starved and the gap is noise-dominated.
    for density in (0.005, 0.02):
        scarce = by_key[(0.02, 0.80, density)]
        ample = by_key[(0.40, 0.80, density)]
        scarce_gap = scarce.em_accuracy - scarce.erm_accuracy
        ample_gap = ample.em_accuracy - ample.erm_accuracy
        assert ample_gap <= scarce_gap + 0.02
