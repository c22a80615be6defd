"""Fusion data model: datasets, features, metrics and result containers."""

from .dataset import FusionDataset, Split, subset_sources
from .encoding import AppendBatch, DenseEncoding, IncrementalEncoding, encode_dataset
from .features import FeatureColumn, FeatureSpace, FeatureSpec, build_design_matrix
from .metrics import (
    bernoulli_kl,
    binary_entropy,
    dataset_source_accuracy_error,
    log_loss,
    mean_accuracy_kl,
    object_value_accuracy,
    source_accuracy_error,
)
from .posterior_store import DenseMaterializationWarning, PosteriorStore
from .result import FusionResult
from .types import (
    DatasetError,
    DatasetStats,
    FusionError,
    Indexer,
    NotFittedError,
    ObjectId,
    Observation,
    SourceId,
    Value,
)

__all__ = [
    "FusionDataset",
    "Split",
    "subset_sources",
    "DenseEncoding",
    "IncrementalEncoding",
    "AppendBatch",
    "encode_dataset",
    "FeatureSpace",
    "FeatureSpec",
    "FeatureColumn",
    "build_design_matrix",
    "FusionResult",
    "PosteriorStore",
    "DenseMaterializationWarning",
    "Observation",
    "Indexer",
    "DatasetStats",
    "FusionError",
    "DatasetError",
    "NotFittedError",
    "SourceId",
    "ObjectId",
    "Value",
    "object_value_accuracy",
    "source_accuracy_error",
    "dataset_source_accuracy_error",
    "bernoulli_kl",
    "mean_accuracy_kl",
    "binary_entropy",
    "log_loss",
]
