"""Loop oracle for :func:`repro.fusion.dataset.intern_columns`: one batch
validated and interned record by record, as first written.

Every row is checked for a repeated ``(source, obj)`` pair (within the
batch or against ``seen_pairs``) and a NaN value before anything is
interned; then each id goes through one :meth:`Indexer.add` call.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.fusion.types import DatasetError, Indexer, ObjectId, Observation, SourceId, Value


def intern_observations(
    observations: Iterable[Observation | Tuple[SourceId, ObjectId, Value]],
    sources: Indexer[SourceId],
    objects: Indexer[ObjectId],
    domains: List[Indexer[Value]],
    seen_pairs: Optional[Set[Tuple[SourceId, ObjectId]]] = None,
) -> Tuple[List[Observation], np.ndarray, np.ndarray, np.ndarray]:
    """Validate one batch, then intern it in first-seen order.

    Returns ``(entries, source_idx, object_idx, value_code)``: the batch as
    :class:`Observation` records and its ``int64`` code columns.
    """
    entries = [obs if isinstance(obs, Observation) else Observation(*obs) for obs in observations]
    previous = seen_pairs if seen_pairs is not None else ()
    batch_pairs: Set[Tuple[SourceId, ObjectId]] = set()
    for obs in entries:
        pair = (obs.source, obs.obj)
        if pair in batch_pairs or pair in previous:
            raise DatasetError(f"duplicate observation for source={obs.source!r} obj={obs.obj!r}")
        if obs.value != obs.value:
            raise DatasetError(
                f"NaN claim value for source={obs.source!r} obj={obs.obj!r}; "
                "NaN never equals itself, so agreeing claims would split"
            )
        batch_pairs.add(pair)
    if seen_pairs is not None:
        seen_pairs |= batch_pairs

    add_source, add_object = sources.add, objects.add
    source_idx = [add_source(obs.source) for obs in entries]
    object_idx = [add_object(obs.obj) for obs in entries]
    domains.extend(Indexer() for _ in range(len(objects) - len(domains)))
    value_code = [domains[o].add(obs.value) for o, obs in zip(object_idx, entries)]
    return (
        entries,
        np.asarray(source_idx, dtype=np.int64),
        np.asarray(object_idx, dtype=np.int64),
        np.asarray(value_code, dtype=np.int64),
    )
