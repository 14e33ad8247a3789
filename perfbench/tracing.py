"""Spans recorded by the benchmark around calls into the program's layers.

A span has a name, a start and an end (``perf_counter`` seconds), the id
of the span that was open around it on the same thread, and the id of the
request it belongs to.  Spans are kept in memory and written out as JSON
lines when the run ends.  A span's *self time* is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe, nesting tracked per thread.

    A disabled tracer still times its spans (callers read ``duration``)
    but keeps none of them.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.span_id if parent else None,
            request=request if request is not None else (parent.request if parent else "-"),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if self.enabled:
                with self._lock:
                    self.spans.append(record)

    @contextmanager
    def patched(self, targets: Sequence[Tuple[type, str, str]]) -> Iterator[None]:
        """Wrap ``cls.attr`` in a span named ``name`` for each target, then restore."""
        originals = []
        for cls, attr, name in targets:
            original = cls.__dict__[attr]
            originals.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for cls, attr, original in reversed(originals):
                setattr(cls, attr, original)

    def _wrap(self, function, name: str):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(record)) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    return {
        record.span_id: record.duration
        - covered(children.get(record.span_id, ()), record.start, record.end)
        for record in spans
    }
