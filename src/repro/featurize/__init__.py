"""Reliability featurization: data-derived source features at scale.

The paper's accuracy model (Equation 2) conditions each source's
accuracy on *domain features*.  This package supplies those features
when no metadata exists (or to augment it), computing them **from the
claims themselves**: per-source volume, object/domain breadth,
recency/staleness decay, corroboration with the per-object consensus
(all-history and recency-weighted), contradiction rate, claim overlap,
and claimed-object entropy.

Three layers:

* :mod:`~repro.featurize.stats` — per-source accumulators from one
  pass over the encoding's arrays, plus the O(batch)
  :class:`RunningSourceStats` streaming counterpart;
* :mod:`~repro.featurize.groups` — named, versioned
  :class:`FeatureGroup` column blocks over those accumulators;
* :mod:`~repro.featurize.pipeline` — :class:`FeaturizerPipeline`
  composing groups with the metadata
  :class:`~repro.fusion.features.FeatureSpace`, persisting matrices in
  a content + version addressed :class:`FeatureCache` and exposing the
  learner-facing ``design_for`` / :class:`FeaturizedSpace` adapter.

Wire into a learner via ``EMConfig(featurizer=...)`` /
``ERMConfig(featurizer=...)``, ``SLiMFast(featurizer=...)``, or the
experiments harness's ``featurizer=`` entry points.
"""

from .cache import FeatureCache, cache_key, dataset_digest
from .groups import (
    BreadthGroup,
    ContradictionGroup,
    CorroborationGroup,
    EntropyGroup,
    FeatureGroup,
    OverlapGroup,
    RecencyGroup,
    RecentCorroborationGroup,
    VolumeGroup,
    default_groups,
)
from .pipeline import (
    FEATURIZER_VERSION,
    FeaturizedDesign,
    FeaturizedSpace,
    FeaturizerPipeline,
)
from .stats import (
    DEFAULT_HALF_LIFE,
    ObjectStats,
    RunningSourceStats,
    SourceStats,
    compute_object_stats,
    compute_source_stats,
)

__all__ = [
    "FEATURIZER_VERSION",
    "DEFAULT_HALF_LIFE",
    "FeaturizerPipeline",
    "FeaturizedDesign",
    "FeaturizedSpace",
    "FeatureCache",
    "FeatureGroup",
    "VolumeGroup",
    "BreadthGroup",
    "RecencyGroup",
    "CorroborationGroup",
    "RecentCorroborationGroup",
    "ContradictionGroup",
    "OverlapGroup",
    "EntropyGroup",
    "default_groups",
    "SourceStats",
    "ObjectStats",
    "RunningSourceStats",
    "compute_source_stats",
    "compute_object_stats",
    "dataset_digest",
    "cache_key",
]
