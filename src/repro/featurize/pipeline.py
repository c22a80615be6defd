"""The reliability featurizer pipeline.

:class:`FeaturizerPipeline` composes versioned reliability
:mod:`feature groups <repro.featurize.groups>` (computed from the data
itself by one pass of per-source reductions) with the
classic metadata :class:`~repro.fusion.features.FeatureSpace` block, and
persists results in a content + version addressed
:class:`~repro.featurize.cache.FeatureCache`.

The produced design matrix plugs into the learners through
:class:`FeaturizedSpace`, a read-only stand-in for a fitted
``FeatureSpace`` (column labels for introspection; ``transform_one``
raises, because reliability features are derived from claim data a new
source does not have yet).

Typical use::

    from repro.featurize import FeaturizerPipeline

    pipeline = FeaturizerPipeline(cache=".feature_cache")
    design, space = pipeline.design_for(dataset)           # |S| x K
    learner = EMLearner(EMConfig(featurizer=pipeline))     # or wire directly
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..fusion.dataset import FusionDataset
from ..fusion.encoding import DenseEncoding, encode_dataset
from ..fusion.features import FEATURE_SPACE_VERSION, FeatureSpace
from ..fusion.types import DatasetError, NotFittedError, SourceId
from .cache import FeatureCache, cache_key, dataset_digest
from .groups import FeatureGroup, default_groups
from .stats import (
    DEFAULT_HALF_LIFE,
    STAT_ARRAYS,
    SourceStats,
    compute_source_stats,
)

#: Bump to invalidate every cached matrix after a pipeline-semantics change.
FEATURIZER_VERSION = 6


class FeaturizedSpace:
    """Read-only ``FeatureSpace`` stand-in for pipeline-produced designs.

    Provides the introspection surface the model layer needs
    (:attr:`column_labels`, :attr:`n_columns`, :meth:`columns_for`) while
    making the data-derived nature of the columns explicit:
    :meth:`transform_one` raises :class:`NotFittedError`, since a brand
    new source has no claim history to featurize.
    """

    def __init__(self, column_labels: Sequence[str], version_key: str = "") -> None:
        self._column_labels = [str(label) for label in column_labels]
        self.version_key = version_key

    @property
    def column_labels(self) -> List[str]:
        return list(self._column_labels)

    @property
    def n_columns(self) -> int:
        return len(self._column_labels)

    def columns_for(self, name: str) -> List[Tuple[int, str]]:
        """(index, label) of columns belonging to one group or feature."""
        prefix_a = f"{name}:"
        prefix_b = f"{name}="
        return [
            (i, label)
            for i, label in enumerate(self._column_labels)
            if label.startswith(prefix_a) or label.startswith(prefix_b)
        ]

    def transform_one(self, features: Mapping[str, object], unseen: Optional[str] = None):
        raise NotFittedError(
            "reliability features are derived from claim data; a new source "
            "has no claim history to featurize. Refit (or refeaturize) with "
            "the source's claims included instead."
        )

    def to_state(self) -> Dict[str, object]:
        return {"column_labels": list(self._column_labels), "version_key": self.version_key}

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "FeaturizedSpace":
        return cls(list(state["column_labels"]), str(state.get("version_key", "")))


@dataclass
class FeaturizedDesign:
    """Result of one featurization: the matrix plus its provenance."""

    matrix: np.ndarray
    column_names: List[str]
    version_key: str
    digest: str
    from_cache: bool = False
    stats: Optional[SourceStats] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def n_sources(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.matrix.shape[1])

    def space(self) -> FeaturizedSpace:
        return FeaturizedSpace(self.column_names, self.version_key)


class FeaturizerPipeline:
    """Compose reliability groups + metadata features into one design.

    Parameters
    ----------
    groups:
        The reliability :class:`FeatureGroup` instances, in column order.
        Defaults to the full library (:func:`default_groups`).
    include_metadata:
        Append the classic metadata one-hot block (a
        :class:`FeatureSpace` fitted on ``source_features``) after the
        reliability columns.
    metadata_bins:
        ``n_bins`` for the metadata space's numeric features.
    standardize:
        Z-score the reliability block column-wise (constant columns
        become zeros).  The metadata block stays binary.
    half_life:
        Half-life, in arrival rows, of the decayed-volume accumulator.
    cache:
        A :class:`FeatureCache`, a directory path for one, or ``None``
        (in-process memoization only).
    """

    def __init__(
        self,
        groups: Optional[Sequence[FeatureGroup]] = None,
        *,
        include_metadata: bool = True,
        metadata_bins: int = 2,
        standardize: bool = True,
        half_life: float = DEFAULT_HALF_LIFE,
        cache: Union[FeatureCache, str, None] = None,
    ) -> None:
        self.groups: Tuple[FeatureGroup, ...] = tuple(
            default_groups() if groups is None else groups
        )
        seen = set()
        for group in self.groups:
            if group.key in seen:
                raise DatasetError(f"duplicate feature group {group.key!r}")
            seen.add(group.key)
        self.include_metadata = bool(include_metadata)
        self.metadata_bins = int(metadata_bins)
        self.standardize = bool(standardize)
        self.half_life = float(half_life)
        if self.half_life <= 0:
            raise DatasetError(f"half_life must be positive, got {half_life!r}")
        self.cache: FeatureCache = (
            cache if isinstance(cache, FeatureCache) else FeatureCache(cache)
        )

    # ------------------------------------------------------------------
    @property
    def version_key(self) -> str:
        """Configuration fingerprint folded into every cache key."""
        parts = [
            f"fz{FEATURIZER_VERSION}",
            f"hl={self.half_life:g}",
            f"std={int(self.standardize)}",
            f"groups={','.join(group.key for group in self.groups)}",
        ]
        if self.include_metadata:
            parts.append(f"meta=fs{FEATURE_SPACE_VERSION}:bins={self.metadata_bins}")
        else:
            parts.append("meta=off")
        return "|".join(parts)

    def __repr__(self) -> str:
        return f"FeaturizerPipeline({self.version_key})"

    # ------------------------------------------------------------------
    def featurize(self, source) -> FeaturizedDesign:
        """Compute (or load) the featurized design for a dataset/encoding."""
        if not isinstance(source, (FusionDataset, DenseEncoding)):
            raise DatasetError(
                "featurizer input must be a FusionDataset or an encoding of one "
                f"(DenseEncoding, IncrementalEncoding), got {type(source).__name__}"
            )
        encoding = encode_dataset(source)
        arrays = {name: getattr(encoding, name) for name in STAT_ARRAYS}
        if encoding._digest is None:  # memoized until IncrementalEncoding.append
            encoding._digest = dataset_digest(arrays, encoding.source_features)
        digest = encoding._digest
        key = cache_key(digest, self.version_key)
        hit = self.cache.load(key)
        if hit is not None:
            matrix, names, meta = hit
            return FeaturizedDesign(
                matrix=matrix,
                column_names=names,
                version_key=self.version_key,
                digest=digest,
                from_cache=True,
                meta=meta,
            )

        stats = compute_source_stats(arrays, encoding.n_sources, half_life=self.half_life)
        matrix, names = self._assemble(stats, encoding.sources.items, encoding.source_features)
        meta = {
            "digest": digest,
            "version_key": self.version_key,
            "n_sources": int(matrix.shape[0]),
            "n_columns": int(matrix.shape[1]),
        }
        self.cache.store(key, matrix, names, meta)
        return FeaturizedDesign(
            matrix=matrix,
            column_names=names,
            version_key=self.version_key,
            digest=digest,
            from_cache=False,
            stats=stats,
            meta=meta,
        )

    def design_for(self, source):
        """``(design, FeaturizedSpace)`` — the learner-facing entry point."""
        result = self.featurize(source)
        return result.matrix, result.space()

    def design_from_stats(
        self,
        stats: SourceStats,
        source_ids: Sequence[SourceId] = (),
        source_features: Optional[Mapping[SourceId, Mapping[str, object]]] = None,
    ):
        """Assemble a design from precomputed stats (streaming refits).

        Bypasses digesting and the cache: the caller (e.g. a
        :class:`~repro.featurize.stats.RunningSourceStats` owner) already
        holds the up-to-date accumulators.
        """
        matrix, names = self._assemble(stats, list(source_ids), source_features or {})
        return matrix, FeaturizedSpace(names, self.version_key)

    # ------------------------------------------------------------------
    def _assemble(
        self,
        stats: SourceStats,
        source_ids: List[SourceId],
        source_features: Mapping[SourceId, Mapping[str, object]],
    ) -> Tuple[np.ndarray, List[str]]:
        n_sources = stats.n_sources
        blocks: List[np.ndarray] = []
        names: List[str] = []
        for group in self.groups:
            block = np.asarray(group.compute(stats), dtype=float)
            group_names = group.column_names()
            if block.shape != (n_sources, len(group_names)):
                raise DatasetError(
                    f"feature group {group.key!r} produced shape {block.shape}, "
                    f"expected {(n_sources, len(group_names))}"
                )
            blocks.append(block)
            names.extend(group_names)
        reliability = (
            np.concatenate(blocks, axis=1) if blocks else np.zeros((n_sources, 0))
        )
        if self.standardize and reliability.shape[1]:
            mean = reliability.mean(axis=0)
            std = reliability.std(axis=0)
            scaled = np.zeros_like(reliability)
            np.divide(reliability - mean, std, out=scaled, where=std > 0)
            reliability = scaled

        if self.include_metadata and source_features:
            space = FeatureSpace(n_bins=self.metadata_bins).fit(source_features)
            meta_block = np.zeros((n_sources, space.n_columns))
            for s_idx, source in enumerate(source_ids[:n_sources]):
                feats = source_features.get(source)
                if feats:
                    meta_block[s_idx] = space.transform_one(feats)
            reliability = np.concatenate([reliability, meta_block], axis=1)
            names.extend(space.column_labels)
        return reliability, names


__all__ = [
    "FEATURIZER_VERSION",
    "FeaturizerPipeline",
    "FeaturizedDesign",
    "FeaturizedSpace",
]
