"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from this directory: around the calls the
benchmark makes into a layer (``Tracer.span``), and by wrapping the public
entry points that the ``repro`` facade calls on the benchmark's behalf
(``Tracer.instrument``).  Nothing inside ``src/`` is traced, and an
untraced op runs with :data:`NULL_TRACER`, which installs no wrapper and
records nothing.

A span's *self time* is its duration minus the time its child spans
cover.  Ops are single-threaded, so children never overlap and every
span's self times plus the root's self time add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Root span wrapped around each traced op; its self time is ``other``.
ROOT = "op"


class Span:
    """One timed call: name, start, end and the id of the enclosing span."""

    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


class Tracer:
    """Records nested spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, self._clock(), parent)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, targets: Iterable[Tuple[object, str, str]]) -> Iterator["Tracer"]:
        """Wrap ``owner.attribute`` in a span named ``name`` for the block.

        ``owner`` is a module or a class; classmethods stay classmethods.
        Every original attribute is restored on exit.
        """
        saved: List[Tuple[object, str, object]] = []
        try:
            for owner, attribute, name in targets:
                original = vars(owner)[attribute]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                setattr(owner, attribute, replacement)
                saved.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def dump(self, path: Path, **header: object) -> None:
        payload = dict(header, spans=[span.as_dict() for span in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class _NullTracer:
    """Untraced ops: ``span`` is a shared no-op context manager."""

    _nothing = contextlib.nullcontext()

    def span(self, name: str):
        return self._nothing


NULL_TRACER = _NullTracer()


def layer_of(name: str) -> str:
    """``core.em.fit`` -> ``core.em``; the root span's layer is ``other``."""
    return "other" if name == ROOT else name.rsplit(".", 1)[0]


def summarize(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Inclusive seconds per span name and self seconds per layer."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        inclusive[span.name] += span.duration
        self_time[layer_of(span.name)] += span.duration - covered[span.id]
    return dict(inclusive), dict(self_time)
