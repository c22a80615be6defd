"""Theoretical error-bound calculators (paper Section 4.2, Appendix A/B).

These functions evaluate the *rates* the paper proves (constants set to 1,
as the statements are O(...) bounds).  They power the optimizer's fast path,
and ``benchmarks/bench_guarantees.py`` reports measured errors alongside
them ("Deviations from the paper" in README.md lists where measured
results depart from the paper's).

* Theorem 1 / 2 (with ground truth): generalization and accuracy-estimation
  error scale as ``sqrt(|K| / |G|) * log|G|``.
* Sparse refinement: with L1 regularization and ``k`` active features the
  rate improves to ``sqrt(k * log|K| / |G|) * log|G|``.
* Theorem 3 (no ground truth): average KL error of EM-style estimation is
  ``log|O| / (|S| * delta) + sqrt(|K| / (|O||S|p)) * log^2(|O||S|) / delta``.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator


def rademacher_linear(n_features: int, n_samples: int) -> float:
    """Rademacher-complexity rate for linear losses (Appendix A, Eq. 5)."""
    if n_samples <= 0:
        return float("inf")
    effective = max(n_features, 1)
    return float(np.sqrt(effective / n_samples) * np.log(max(n_samples, 2)))


def erm_generalization_bound(n_features: int, n_labels: int) -> float:
    """Theorem 1/2 rate: ``sqrt(|K|/|G|) log|G|``.

    ``n_features`` counts the domain-feature columns ``|K|``; with zero
    features the model still has a one-dimensional effective class per
    source, so the rate uses ``max(|K|, 1)``.
    """
    return rademacher_linear(n_features, n_labels)


def erm_sparse_bound(k_active: int, n_features: int, n_labels: int) -> float:
    """Sparse (L1) refinement: ``sqrt(k log|K| / |G|) log|G|``."""
    if n_labels <= 0:
        return float("inf")
    k = max(k_active, 1)
    total = max(n_features, 2)
    return float(np.sqrt(k * np.log(total) / n_labels) * np.log(max(n_labels, 2)))


def em_accuracy_bound(
    n_sources: int,
    n_objects: int,
    density: float,
    delta: float,
    n_features: int,
) -> float:
    """Theorem 3 rate on the average KL error of EM accuracy estimates.

    Parameters
    ----------
    density:
        Probability ``p`` of a source observing an object.
    delta:
        Accuracy margin: every source satisfies ``A*_s >= 0.5 + delta/2``.
    """
    if min(n_sources, n_objects) <= 0 or density <= 0.0 or delta <= 0.0:
        return float("inf")
    so = float(n_sources) * float(n_objects)
    first = np.log(max(n_objects, 2)) / (n_sources * delta)
    second = (np.sqrt(max(n_features, 1) / (so * density)) * np.log(max(so, 2)) ** 2 / delta)
    return float(first + second)


def expected_observations(n_sources: int, n_objects: int, density: float) -> float:
    """Expected observation count ``|S||O|p`` under uniform selectivity."""
    return float(n_sources) * float(n_objects) * float(density)


def empirical_rademacher_linear(
    features: np.ndarray,
    weight_bound: float = 1.0,
    n_draws: int = 200,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the empirical Rademacher complexity of the
    norm-bounded linear class over the given sample rows.

    For ``H = {z -> w . z : ||w||_2 <= B}`` the supremum in the Rademacher
    definition has the closed form ``sup_w |sum_i s_i w . z_i| =
    B * ||sum_i s_i z_i||_2``, so the estimate is
    ``(2 B / n) * E_s ||sum_i s_i z_i||``.  This is the data-dependent
    quantity behind the paper's Appendix A bounds; the test suite checks
    it follows the ``sqrt(|K| / n)`` rate the bounds assume.
    """
    rows = np.asarray(features, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("features must be a non-empty 2-D sample matrix")
    n = rows.shape[0]
    rng = as_generator(seed)
    total = 0.0
    for _ in range(n_draws):
        signs = rng.choice([-1.0, 1.0], size=n)
        total += float(np.linalg.norm(signs @ rows))
    return 2.0 * weight_bound * total / (n_draws * n)
