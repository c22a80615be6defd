"""Optimization algorithms used to fit SLiMFast's parameters.

The paper learns weights with stochastic gradient descent on top of
DeepDive's sampler.  Each solve the learners make — an ERM fit or one EM
M-step — is convex, so the library solves it deterministically to its
optimum:

* :func:`minimize_lbfgs` — scipy's L-BFGS-B on the smooth (L2) objective;
  the reference solver of ERM and of EM's ``"lbfgs"`` M-step.
* :func:`minimize_newton` — damped Newton on an objective's structured
  Newton direction; EM's warm-started ``"lbfgs-warm"`` M-step, seeded
  across fits by a :class:`WarmStartState`.
* :func:`fista` — accelerated proximal gradient for L1-regularized fits,
  used by the lasso-path analysis (paper Section 5.3.1).

:func:`sgd` (mini-batch SGD / AdaGrad) keeps the paper's learning setup
for ERM (``ERMConfig(solver="sgd")``).  All solvers take any objective
exposing ``value_and_grad`` (see :mod:`repro.optim.objectives`) and
return a :class:`SolverResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np
from scipy import optimize

from .._rng import as_generator
from .numerics import soft_threshold


class Objective(Protocol):
    """Minimal protocol solvers rely on."""

    n_params: int

    def value(self, w: np.ndarray) -> float: ...

    def grad(self, w: np.ndarray) -> np.ndarray: ...

    def value_and_grad(self, w: np.ndarray) -> tuple: ...


@dataclass
class SolverResult:
    """Outcome of a fit.

    Attributes
    ----------
    w:
        Final parameter vector.
    value:
        Final objective value (smooth part plus any L1 penalty applied by
        the solver itself).
    n_iterations:
        Iterations (or epochs for SGD) actually performed.
    converged:
        Whether the solver's own stopping rule triggered before the budget
        ran out.
    """

    w: np.ndarray
    value: float
    n_iterations: int
    converged: bool


def minimize_lbfgs(
    objective: Objective,
    w0: Optional[np.ndarray] = None,
    max_iterations: int = 500,
    tolerance: float = 1e-8,
    bounds: Optional[list] = None,
    gtol: float = 1e-8,
) -> SolverResult:
    """Minimize a smooth objective with L-BFGS-B.

    ``bounds`` is an optional per-parameter list of ``(low, high)`` pairs
    (``None`` endpoints = unbounded), e.g. to constrain copying weights to
    be non-negative.  ``tolerance``/``gtol`` map to scipy's ``ftol``/``pgtol``
    stopping rules; tighten both to drive the solve to the exact optimum
    (the solver-equivalence tests do).
    """
    start = np.zeros(objective.n_params) if w0 is None else np.asarray(w0, dtype=float)
    result = optimize.minimize(
        objective.value_and_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": gtol},
    )
    return SolverResult(
        w=np.asarray(result.x, dtype=float),
        value=float(result.fun),
        n_iterations=int(result.nit),
        converged=bool(result.success),
    )


@dataclass
class WarmStartState:
    """Final weights handed from one EM fit to the next in a parameter sweep.

    The sweep engine (:class:`repro.experiments.sweeps.SweepRunner`) passes
    the state of the *nearest-config* prior fit into the next fit's first
    M-step solve: the M-step is convex, so a foreign starting point changes
    only the solve's path, never its optimum — batched results stay
    equivalent to isolated fits at the solver's own tolerance while nearby
    configs converge in fewer inner iterations.
    """

    w: np.ndarray

    def compatible_with(self, n_params: int) -> bool:
        """Whether the stored vector matches an objective's dimensionality."""
        return self.w.shape[0] == n_params


def minimize_newton(
    objective,
    w0: np.ndarray,
    max_iterations: int = 50,
    gtol: float = 1e-10,
) -> SolverResult:
    """Damped Newton iteration for objectives exposing ``newton_direction``.

    Each iteration asks the objective for the exact Newton direction
    (e.g. :meth:`CorrectnessObjective.newton_direction`, an O(S K^2)
    structured solve) and applies Armijo backtracking for global
    convergence.  Near the optimum the full step is always accepted and
    convergence is quadratic, so warm-started solves (EM M-steps) finish
    in one or two iterations; the stopping rule is *gradient-based*, which
    — unlike objective-decrease rules — keeps making progress below the
    double-precision plateau of the objective value and reaches gradient
    norms around 1e-12.

    A singular structured solve raises ``np.linalg.LinAlgError``; the EM
    M-step then solves that round with :func:`minimize_lbfgs` instead.
    """
    w = np.asarray(w0, dtype=float).copy()
    value, grad = objective.value_and_grad(w)
    for iteration in range(max_iterations):
        if float(np.max(np.abs(grad))) <= gtol:
            return SolverResult(w=w, value=value, n_iterations=iteration, converged=True)
        direction = objective.newton_direction(w, grad)
        descent = float(grad @ direction)
        if descent >= 0.0:  # pragma: no cover - degenerate Hessian
            direction = -grad
            descent = float(grad @ direction)
        step = 1.0
        for _ in range(40):
            candidate = w + step * direction
            candidate_value, candidate_grad = objective.value_and_grad(candidate)
            if candidate_value <= value + 1e-4 * step * descent:
                break
            step *= 0.5
        else:  # pragma: no cover - pathological objective
            return SolverResult(w=w, value=value, n_iterations=iteration, converged=False)
        w, value, grad = candidate, candidate_value, candidate_grad
    return SolverResult(w=w, value=value, n_iterations=max_iterations, converged=False)


def gradient_descent(
    objective: Objective,
    w0: Optional[np.ndarray] = None,
    learning_rate: float = 1.0,
    max_iterations: int = 1000,
    tolerance: float = 1e-8,
) -> SolverResult:
    """Full-batch gradient descent with backtracking line search.

    Kept as a dependency-light fallback and as a reference implementation
    the tests compare L-BFGS against.
    """
    w = np.zeros(objective.n_params) if w0 is None else np.asarray(w0, dtype=float).copy()
    value, grad = objective.value_and_grad(w)
    step = learning_rate
    for iteration in range(max_iterations):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tolerance:
            return SolverResult(w=w, value=value, n_iterations=iteration, converged=True)
        # Backtracking: halve the step until the Armijo condition holds.
        for _ in range(50):
            candidate = w - step * grad
            candidate_value = objective.value(candidate)
            if candidate_value <= value - 0.5 * step * grad_norm**2:
                break
            step *= 0.5
        else:  # pragma: no cover - pathological objective
            return SolverResult(w=w, value=value, n_iterations=iteration, converged=False)
        improvement = value - candidate_value
        w = candidate
        value, grad = objective.value_and_grad(w)
        step = min(step * 2.0, learning_rate)
        if improvement < tolerance * max(1.0, abs(value)):
            return SolverResult(w=w, value=value, n_iterations=iteration + 1, converged=True)
    return SolverResult(w=w, value=value, n_iterations=max_iterations, converged=False)


def fista(
    objective: Objective,
    l1_strength: float,
    l1_mask: np.ndarray,
    w0: Optional[np.ndarray] = None,
    learning_rate: float = 1.0,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
) -> SolverResult:
    """Accelerated proximal gradient (FISTA) for smooth + L1 objectives.

    Only parameters with ``l1_mask`` True are soft-thresholded; the others
    (per-source weights, intercept) get the plain gradient step.  Step size
    adapts by backtracking against the smooth part's quadratic upper bound.
    """
    w = np.zeros(objective.n_params) if w0 is None else np.asarray(w0, dtype=float).copy()
    mask = np.asarray(l1_mask, dtype=bool)
    if mask.shape[0] != objective.n_params:
        raise ValueError("l1_mask length must equal the number of parameters")

    def penalized(vec: np.ndarray) -> float:
        return objective.value(vec) + l1_strength * float(np.sum(np.abs(vec[mask])))

    def prox(vec: np.ndarray, step: float) -> np.ndarray:
        out = vec.copy()
        out[mask] = soft_threshold(vec[mask], step * l1_strength)
        return out

    y = w.copy()
    momentum = 1.0
    step = learning_rate
    previous = penalized(w)
    for iteration in range(max_iterations):
        value_y, grad_y = objective.value_and_grad(y)
        for _ in range(60):
            candidate = prox(y - step * grad_y, step)
            delta = candidate - y
            quadratic_bound = (
                value_y
                + float(grad_y @ delta)
                + float(delta @ delta) / (2.0 * step)
            )
            if objective.value(candidate) <= quadratic_bound + 1e-12:
                break
            step *= 0.5
        next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        y = candidate + ((momentum - 1.0) / next_momentum) * (candidate - w)
        w = candidate
        momentum = next_momentum
        current = penalized(w)
        if abs(previous - current) < tolerance * max(1.0, abs(current)):
            return SolverResult(w=w, value=current, n_iterations=iteration + 1, converged=True)
        previous = current
    return SolverResult(w=w, value=penalized(w), n_iterations=max_iterations, converged=False)


def sgd(
    objective,
    n_samples: int,
    w0: Optional[np.ndarray] = None,
    learning_rate: float = 0.5,
    batch_size: int = 64,
    epochs: int = 50,
    seed: int = 0,
    adagrad: bool = True,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> SolverResult:
    """Mini-batch SGD / AdaGrad over an objective exposing ``batch_grad``.

    This mirrors the paper's learning setup ("EM and ERM are implemented on
    top of DeepDive's sampler using SGD").  AdaGrad per-coordinate scaling is
    on by default, which makes the method robust to the very different
    frequencies of source-indicator versus shared domain features.
    """
    rng = as_generator(seed)
    w = np.zeros(objective.n_params) if w0 is None else np.asarray(w0, dtype=float).copy()
    grad_sq = np.zeros_like(w)
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            rows = order[start : start + batch_size]
            grad = objective.batch_grad(w, rows)
            if adagrad:
                grad_sq += grad * grad
                w -= learning_rate * grad / (np.sqrt(grad_sq) + 1e-8)
            else:
                w -= learning_rate / np.sqrt(epoch + 1.0) * grad
        if callback is not None:
            callback(epoch, w)
    return SolverResult(w=w, value=float(objective.value(w)), n_iterations=epochs, converged=True)
