"""Tests for the optimization solvers."""

import numpy as np
import pytest

from repro.optim import (
    CorrectnessObjective,
    fista,
    gradient_descent,
    minimize_lbfgs,
    sgd,
)


class Quadratic:
    """Simple strongly-convex test objective: 0.5 * ||w - target||^2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.n_params = self.target.shape[0]

    def value(self, w):
        return 0.5 * float(np.sum((w - self.target) ** 2))

    def grad(self, w):
        return w - self.target

    def value_and_grad(self, w):
        return self.value(w), self.grad(w)


def logistic_objective(seed=0, n_sources=5, n_samples=200, l2=1.0):
    rng = np.random.default_rng(seed)
    design = np.zeros((n_sources, 0))
    source_idx = rng.integers(n_sources, size=n_samples)
    true_acc = rng.uniform(0.3, 0.9, size=n_sources)
    labels = (rng.random(n_samples) < true_acc[source_idx]).astype(float)
    return CorrectnessObjective(source_idx, labels, design, l2_sources=l2)


class TestLBFGS:
    def test_quadratic_exact(self):
        target = np.array([1.0, -2.0, 3.0])
        result = minimize_lbfgs(Quadratic(target))
        assert np.allclose(result.w, target, atol=1e-5)
        assert result.converged

    def test_logistic_converges(self):
        objective = logistic_objective()
        result = minimize_lbfgs(objective)
        assert np.linalg.norm(objective.grad(result.w)) < 1e-4

    def test_warm_start_respected(self):
        target = np.array([5.0])
        result = minimize_lbfgs(Quadratic(target), w0=np.array([4.9]))
        assert result.w[0] == pytest.approx(5.0, abs=1e-6)


class TestGradientDescent:
    def test_quadratic(self):
        target = np.array([0.5, -0.5])
        result = gradient_descent(Quadratic(target), max_iterations=500)
        assert np.allclose(result.w, target, atol=1e-3)
        assert result.converged

    def test_agrees_with_lbfgs_on_logistic(self):
        objective = logistic_objective(seed=3)
        gd = gradient_descent(objective, max_iterations=3000)
        lb = minimize_lbfgs(objective)
        assert gd.value == pytest.approx(lb.value, abs=1e-4)

    def test_zero_iterations(self):
        result = gradient_descent(Quadratic(np.array([1.0])), max_iterations=0)
        assert result.n_iterations == 0


class TestFista:
    def test_high_penalty_zeroes_masked_params(self):
        objective = logistic_objective(seed=1, l2=0.0)
        mask = np.ones(objective.n_params, dtype=bool)
        result = fista(objective, l1_strength=1e3, l1_mask=mask)
        assert np.allclose(result.w, 0.0, atol=1e-6)

    def test_zero_penalty_matches_smooth_solution(self):
        objective = logistic_objective(seed=2)
        mask = np.ones(objective.n_params, dtype=bool)
        result = fista(objective, l1_strength=0.0, l1_mask=mask, max_iterations=5000)
        smooth = minimize_lbfgs(objective)
        assert result.value == pytest.approx(smooth.value, abs=1e-4)

    def test_mask_protects_parameters(self):
        target = np.array([2.0, 2.0])
        mask = np.array([True, False])
        result = fista(Quadratic(target), l1_strength=10.0, l1_mask=mask, max_iterations=2000)
        assert abs(result.w[0]) < 1e-6  # fully shrunk
        assert result.w[1] == pytest.approx(2.0, abs=1e-4)  # untouched by L1

    def test_mask_length_validated(self):
        with pytest.raises(ValueError):
            fista(Quadratic(np.zeros(2)), l1_strength=1.0, l1_mask=np.ones(3, dtype=bool))

    def test_intermediate_penalty_sparsifies(self):
        objective = logistic_objective(seed=4, l2=0.0)
        mask = np.ones(objective.n_params, dtype=bool)
        dense = minimize_lbfgs(objective).w
        sparse = fista(objective, l1_strength=2.0, l1_mask=mask).w
        assert np.sum(np.abs(sparse) < 1e-8) >= np.sum(np.abs(dense) < 1e-8)


class TestSGD:
    def test_decreases_objective(self):
        objective = logistic_objective(seed=5)
        start_value = objective.value(np.zeros(objective.n_params))
        result = sgd(objective, n_samples=objective.n_samples, epochs=20, seed=0)
        assert result.value < start_value

    def test_approaches_lbfgs_optimum(self):
        objective = logistic_objective(seed=6)
        lb = minimize_lbfgs(objective)
        result = sgd(objective, n_samples=objective.n_samples, epochs=80, seed=0)
        assert result.value <= lb.value + 0.02

    def test_callback_invoked(self):
        objective = logistic_objective(seed=7)
        epochs_seen = []
        sgd(
            objective,
            n_samples=objective.n_samples,
            epochs=3,
            callback=lambda epoch, w: epochs_seen.append(epoch),
        )
        assert epochs_seen == [0, 1, 2]

    def test_deterministic_for_seed(self):
        objective = logistic_objective(seed=8)
        a = sgd(objective, n_samples=objective.n_samples, epochs=5, seed=42)
        b = sgd(objective, n_samples=objective.n_samples, epochs=5, seed=42)
        assert np.allclose(a.w, b.w)


class TestNewton:
    def test_reaches_tighter_gradients_than_scipy(self):
        from repro.optim.solvers import minimize_newton

        objective = logistic_objective(seed=13)
        newton = minimize_newton(objective, w0=np.zeros(objective.n_params), gtol=1e-11)
        assert newton.converged
        assert np.max(np.abs(objective.grad(newton.w))) <= 1e-11

    def test_quadratic_convergence_near_optimum(self):
        from repro.optim.solvers import minimize_newton

        objective = logistic_objective(seed=14)
        first = minimize_newton(objective, w0=np.zeros(objective.n_params), gtol=1e-10)
        again = minimize_newton(objective, w0=first.w, gtol=1e-10)
        assert again.n_iterations <= 1

    def test_featureful_intercept_objective(self):
        from repro.optim.solvers import minimize_newton

        rng = np.random.default_rng(15)
        n_sources, n_features, n_samples = 8, 3, 300
        design = (rng.random((n_sources, n_features)) < 0.5).astype(float)
        source_idx = rng.integers(n_sources, size=n_samples)
        labels = (rng.random(n_samples) < 0.7).astype(float)
        objective = CorrectnessObjective(
            source_idx,
            labels,
            design,
            l2_sources=2.0,
            l2_features=1.0,
            intercept=True,
        )
        newton = minimize_newton(objective, w0=np.zeros(objective.n_params), gtol=1e-11)
        scipy_fit = minimize_lbfgs(objective, tolerance=1e-15, gtol=1e-12, max_iterations=2000)
        assert newton.value == pytest.approx(scipy_fit.value, abs=1e-10)
        assert np.max(np.abs(objective.grad(newton.w))) <= np.max(
            np.abs(objective.grad(scipy_fit.w))
        )
