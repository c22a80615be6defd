"""Core value types for data fusion.

The fusion data model follows Section 2 of the paper: a set of *sources*
``S`` provide *observations* for a set of *objects* ``O``.  Each observation
``v_{o,s}`` is the value source ``s`` claims for the (single) attribute of
object ``o``.  Each object has one latent true value ``v*_o`` (single-truth
semantics).  Sources may additionally carry *domain-specific features*
(Section 3.1) which SLiMFast uses to predict their accuracy.

Identifiers for sources, objects and values are arbitrary hashable Python
objects (usually strings or ints).  Internally every algorithm works on
contiguous integer indices produced by :class:`Indexer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Sequence, TypeVar

SourceId = Hashable
ObjectId = Hashable
Value = Hashable

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class Observation:
    """A single claim: ``source`` asserts that ``obj`` has value ``value``.

    Attributes
    ----------
    source:
        Identifier of the reporting data source.
    obj:
        Identifier of the described object.
    value:
        The claimed value for the object's attribute.
    """

    source: SourceId
    obj: ObjectId
    value: Value

    def __iter__(self) -> Iterator[Hashable]:
        """Allow ``source, obj, value = observation`` unpacking."""
        return iter((self.source, self.obj, self.value))


class Indexer(Generic[T]):
    """Bidirectional mapping between hashable ids and dense integer indices.

    Insertion order defines index order, which makes all downstream numpy
    arrays deterministic for a given input ordering.
    """

    def __init__(self, items: Optional[Iterable[T]] = None) -> None:
        self._index: Dict[T, int] = {}
        self._items: List[T] = []
        if items is not None:
            for item in items:
                self.add(item)

    def add(self, item: T) -> int:
        """Insert ``item`` (idempotently) and return its index."""
        idx = self._index.get(item)
        if idx is None:
            idx = len(self._items)
            self._index[item] = idx
            self._items.append(item)
        return idx

    def add_all(self, items: Sequence[T]) -> List[int]:
        """Insert every item (idempotently) and return their indices, aligned.

        Equivalent to ``[self.add(item) for item in items]`` — new items get
        indices in first-seen order and an equal item already present keeps
        its stored representative — but walks only the distinct items in
        Python; the per-item lookups run in C.
        """
        index, stored = self._index, self._items
        for item in dict.fromkeys(items):
            if item not in index:
                index[item] = len(stored)
                stored.append(item)
        return list(map(index.__getitem__, items))

    def index(self, item: T) -> int:
        """Return the index of ``item``; raises ``KeyError`` if unknown."""
        return self._index[item]

    def get(self, item: T, default: Optional[int] = None) -> Optional[int]:
        """Return the index of ``item``, or ``default`` when unknown."""
        return self._index.get(item, default)

    def item(self, idx: int) -> T:
        """Return the item stored at integer index ``idx``."""
        return self._items[idx]

    def __contains__(self, item: object) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def items(self) -> List[T]:
        """All items in index order (a copy; safe to mutate)."""
        return list(self._items)


@dataclass
class DatasetStats:
    """Summary statistics of a fusion dataset, mirroring paper Table 1."""

    n_sources: int
    n_objects: int
    n_observations: int
    n_domain_features: int
    n_feature_values: int
    avg_source_accuracy: Optional[float]
    avg_observations_per_object: float
    avg_observations_per_source: float
    ground_truth_fraction: float

    def rows(self) -> List[tuple]:
        """Rows of (parameter-name, value) pairs in Table 1 order."""
        acc = "-" if self.avg_source_accuracy is None else round(self.avg_source_accuracy, 3)
        return [
            ("# Sources", self.n_sources),
            ("# Objects", self.n_objects),
            ("Available GrdTruth", f"{self.ground_truth_fraction:.0%}"),
            ("# Observations", self.n_observations),
            ("# Domain Features", self.n_domain_features),
            ("# Feature Values", self.n_feature_values),
            ("Avg. Src. Acc.", acc),
            ("Avg. Obsrvs per Obj.", round(self.avg_observations_per_object, 3)),
            ("Avg. Obsrvs per Src.", round(self.avg_observations_per_source, 3)),
        ]


class FusionError(Exception):
    """Base class for errors raised by the repro library."""


class DatasetError(FusionError, ValueError):
    """Raised when a fusion dataset is malformed or inconsistent.

    Also a :class:`ValueError`, so callers validating user-supplied
    parameters (split fractions, budgets) can catch the standard type.
    """


class NotFittedError(FusionError):
    """Raised when predictions are requested from an unfitted model."""
