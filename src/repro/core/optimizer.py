"""SLiMFast's optimizer: choose ERM or EM (paper Section 4.3).

The optimizer compares the *units of information* available to each
learning algorithm:

* ERM consumes ground truth: one labeled object contributes one unit
  (Algorithm 2 sets ``totalERMUnits = |G|``).  Only labels on observed
  objects count (``|G ∩ O|``), here and in the bound; without any, the
  choice is EM.
* EM consumes the E-step's soft labels.  Modeling the E-step as majority
  vote by sources of uniform accuracy ``A``, an object observed by ``m``
  sources with ``|D_o|`` distinct claimed values is resolved correctly with
  probability ``p_e = 1 - BinomCDF(floor(m / |D_o|); m, A)``; it then
  contributes ``1 - H(p_e)`` units (Algorithm 1).

The average accuracy ``A`` is estimated by agreement-matrix completion
(:mod:`repro.core.agreement`).  A fast pre-check returns ERM outright when
the Theorem-1 generalization bound ``sqrt(|K| / |G|) * log|G|`` is already
below the threshold ``tau``.

Two places deviate from the *printed* pseudo-code, in both cases because
the printed form contradicts the decisions the paper's own Table 4
reports (see "Deviations from the paper" in README.md):

* the majority-vote success criterion defaults to ``m/2`` (the paper's
  Example 8 semantics) rather than Algorithm 1's ``m/|D_o|`` — pass
  ``vote_threshold="paper"`` for the printed form;
* the average-accuracy estimate defaults to the multi-valued
  ``"domain-corrected"`` agreement identity — pass
  ``accuracy_method="paper"`` for the binary identity ``E[X]=(2A-1)^2``.

``per_observation=True`` additionally switches the unit accounting to
per-observation (Example 8's multiplication by ``m``); the ablation
benches exercise all variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy import stats

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import encode_dataset
from ..fusion.metrics import binary_entropy
from ..fusion.types import ObjectId, Value
from .agreement import estimate_average_accuracy
from .guarantees import erm_generalization_bound


@dataclass
class OptimizerDecision:
    """Outcome of Algorithm 2 with full diagnostics.

    Attributes
    ----------
    algorithm:
        ``"erm"`` or ``"em"``.
    reason:
        ``"bound"`` when the Theorem-1 pre-check fired, else ``"units"``.
    erm_units / em_units:
        The two sides of the information comparison.
    estimated_accuracy:
        The agreement-based average source-accuracy estimate fed to
        Algorithm 1.
    bound:
        The value of ``sqrt(|K| / |G|) * log|G|`` (``inf`` without labels).
    """

    algorithm: str
    reason: str
    erm_units: float
    em_units: float
    estimated_accuracy: float
    bound: float


def em_information_units(
    dataset: FusionDataset,
    avg_accuracy: float,
    per_observation: bool = False,
    vote_threshold: str = "majority",
) -> float:
    """Algorithm 1 (EMUnits): total units the E-step is expected to yield.

    Objects whose majority-vote success probability ``p_e`` is below 0.5
    contribute nothing — the E-step output for them carries no usable
    signal under the optimizer's model.

    ``vote_threshold`` selects the success criterion of the internal
    majority-vote model:

    * ``"majority"`` (default) — more than ``m/2`` correct votes needed.
      The paper's Example 8 uses this criterion, and it is the only
      reading consistent with the decisions Table 4 reports (e.g. ERM on
      the dense Stocks dataset).
    * ``"paper"`` — more than ``m/|D_o|`` correct votes, the expression
      printed in Algorithm 1 (plurality against evenly-split wrong votes).
      Kept for ablation; on binary domains the two coincide.
    """
    if vote_threshold not in ("majority", "paper"):
        raise ValueError(f"unknown vote_threshold {vote_threshold!r}")
    avg_accuracy = float(np.clip(avg_accuracy, 1e-6, 1.0 - 1e-6))
    encoding = encode_dataset(dataset)
    m = np.diff(encoding.obs_offsets)
    n_distinct = encoding.domain_sizes
    # Unanimous objects: majority vote is trivially "correct" under the
    # optimizer's model; they carry a full unit each.
    p_e = np.ones(m.shape[0])
    conflicted = n_distinct > 1
    divisor = 2 if vote_threshold == "majority" else n_distinct[conflicted]
    threshold = m[conflicted] // divisor
    p_e[conflicted] = 1.0 - stats.binom.cdf(threshold, m[conflicted], avg_accuracy)
    counted = p_e >= 0.5
    units = 1.0 - binary_entropy(p_e[counted])
    if per_observation:
        units = units * m[counted]
    # A running sum, not np.sum's pairwise one: the per-object loop's
    # left-to-right total, bit for bit.
    return float(np.cumsum(units)[-1]) if units.shape[0] else 0.0


def erm_information_units(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    per_observation: bool = False,
) -> float:
    """Ground-truth units: ``|G ∩ O|``, or total observations on those objects.

    Labels on objects the dataset never observed carry no information for
    either learner and count for nothing.
    """
    encoding = encode_dataset(dataset)
    labeled, _ = encoding.truth_codes(truth)
    if not per_observation:
        return float(np.count_nonzero(labeled))
    return float(np.diff(encoding.obs_offsets)[labeled].sum())


def decide(
    dataset: FusionDataset,
    truth: Mapping[ObjectId, Value],
    n_features: int,
    tau: float = 0.1,
    per_observation: bool = False,
    accuracy_method: str = "domain-corrected",
    avg_accuracy: Optional[float] = None,
    vote_threshold: str = "majority",
) -> OptimizerDecision:
    """Algorithm 2: pick the learning algorithm for a fusion instance.

    Parameters
    ----------
    n_features:
        ``|K|``, the number of domain-feature columns in the model.
    tau:
        Bound threshold for the ERM fast path (paper uses 0.1).
    avg_accuracy:
        Override the agreement-based estimate (used by the oracle ablation).
    """
    n_labels = int(erm_information_units(dataset, truth))  # |G ∩ O|
    bound = erm_generalization_bound(n_features, n_labels) if n_labels else float("inf")
    accuracy = (
        avg_accuracy
        if avg_accuracy is not None
        else estimate_average_accuracy(dataset, method=accuracy_method)
    )
    if n_labels and bound < tau:
        return OptimizerDecision(
            algorithm="erm",
            reason="bound",
            erm_units=float(n_labels),
            em_units=float("nan"),
            estimated_accuracy=accuracy,
            bound=bound,
        )

    erm_units = erm_information_units(dataset, truth, per_observation)
    em_units = em_information_units(dataset, accuracy, per_observation, vote_threshold)
    # ERM is undefined without a label on an observed object.
    algorithm = "em" if erm_units < em_units or not n_labels else "erm"
    return OptimizerDecision(
        algorithm=algorithm,
        reason="units",
        erm_units=erm_units,
        em_units=em_units,
        estimated_accuracy=accuracy,
        bound=bound,
    )
