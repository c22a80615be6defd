"""Figure 4: EM vs ERM on the synthetic instance (Example 6).

Three sweeps on the 1000-source x 1000-object instance (reduced to
400x400 at default bench scale):

* (a) accuracy vs training-data fraction — ERM rises with labels;
* (b) accuracy vs observation density — EM rises with density, ERM flat;
* (c) accuracy vs average source accuracy — EM rises, ERM flat.
"""


from repro.experiments import figure4a, figure4b, figure4c, series

from conftest import FULL_SCALE, publish

# The source count stays at the paper's 1000 so observations-per-object
# (and hence the EM dynamics) match; only the object count is reduced for
# speed at default bench scale.
N_SOURCES = 1000
N_OBJECTS = 1000 if FULL_SCALE else 400
SEEDS = (0, 1) if FULL_SCALE else (0,)
# Paper Figure 4(b) fixes training data at 400 *source observations* on the
# 1000x1000 instance; scale that budget with the object count so the
# labeled-object fraction sweep matches the paper's.
TRAIN_OBSERVATIONS = max(int(400 * N_OBJECTS / 1000), 20)


def _render(points, x_label):
    em = {p.x: p.em_accuracy for p in points}
    erm = {p.x: p.erm_accuracy for p in points}
    return (
        series(em, x_label, "EM accuracy", title="EM")
        + "\n\n"
        + series(erm, x_label, "ERM accuracy", title="ERM")
    )


def test_figure4a_training_data(benchmark):
    fractions = (0.01, 0.10, 0.20, 0.40, 0.60)

    def run():
        plain = figure4a(
            train_fractions=fractions,
            n_sources=N_SOURCES,
            n_objects=N_OBJECTS,
            seeds=SEEDS,
        )
        with_intercept = figure4a(
            train_fractions=fractions,
            n_sources=N_SOURCES,
            n_objects=N_OBJECTS,
            seeds=SEEDS,
            erm_intercept=True,
        )
        return plain, with_intercept

    plain, with_intercept = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        _render(plain, "training fraction")
        + "\n\nERM (shared intercept)\n"
        + "\n".join(f"{p.x:g}  {p.erm_accuracy:.3f}" for p in with_intercept)
    )
    publish("figure4a_training_data", text)

    erm = {p.x: p.erm_accuracy for p in plain}
    em = {p.x: p.em_accuracy for p in plain}
    erm_bias = {p.x: p.erm_accuracy for p in with_intercept}

    # Paper shape 1: the Equation-3 ERM improves markedly with labels.
    assert erm[0.60] > erm[0.01] + 0.03
    # Paper shape 2: EM is roughly flat in the training fraction.
    assert abs(em[0.60] - em[0.01]) < 0.08
    # Paper shape 3: with enough labels ERM matches EM — our sparse
    # instance needs the shared-intercept variant for that (see
    # "Deviations from the paper" in README.md).
    assert erm_bias[0.60] >= em[0.60] - 0.03


def test_figure4b_density(benchmark):
    points = benchmark.pedantic(
        lambda: figure4b(
            densities=(0.005, 0.010, 0.015, 0.020),
            n_sources=N_SOURCES,
            n_objects=N_OBJECTS,
            train_observations=TRAIN_OBSERVATIONS,
            seeds=SEEDS,
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure4b_density", _render(points, "density"))

    em = {p.x: p.em_accuracy for p in points}
    erm = {p.x: p.erm_accuracy for p in points}
    # EM benefits from denser observations (paper Figure 4b).
    assert em[0.020] > em[0.005]
    # ERM stays comparatively flat.
    assert abs(erm[0.020] - erm[0.005]) < abs(em[0.020] - em[0.005]) + 0.05


def test_figure4c_average_accuracy(benchmark):
    points = benchmark.pedantic(
        lambda: figure4c(
            accuracies=(0.5, 0.6, 0.7, 0.8),
            n_sources=N_SOURCES,
            n_objects=N_OBJECTS,
            seeds=SEEDS,
        ),
        rounds=1,
        iterations=1,
    )
    publish("figure4c_accuracy", _render(points, "avg source accuracy"))

    em = {p.x: p.em_accuracy for p in points}
    # EM gains sharply as sources get more accurate (paper Figure 4c).
    assert em[0.8] > em[0.5] + 0.1
    # At high accuracy EM beats ERM at this small label budget.
    erm = {p.x: p.erm_accuracy for p in points}
    assert em[0.8] >= erm[0.8] - 0.02
