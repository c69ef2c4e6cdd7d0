"""In-memory spans for the benchmark's traced run.

A span is ``(name, start, end, parent, request)``, recorded by the
benchmark's own code around a call into one of the program's layers.
Aggregated time that has no start or end of its own -- a
``PhaseProfiler`` phase total -- is charged as a child of the open span,
so a layer's self time is its duration minus what its children cover.

Wrapping a program function that no longer exists marks the layer
``unmeasured`` instead of failing, so a later refactor that renames a
wrapped name shows up in the report rather than as a crash.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Spans, counts and unmeasured layer names for one thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self.unmeasured: set = set()
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": parent, "request": request, "calls": 1,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def charge(self, name: str, seconds: float, calls: int) -> None:
        """Record aggregated child time under the currently open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append({
            "name": name, "start": None, "end": None, "seconds": seconds,
            "parent": parent, "calls": calls,
            "request": None if parent is None else self.spans[parent]["request"],
        })

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, owner: object, attribute: str, name: str) -> Callable[[], None]:
        """Record a span around every call of ``owner.attribute``.

        Returns the callable that restores the original.  A missing
        attribute marks ``name`` unmeasured and returns a no-op.
        """
        original = getattr(owner, attribute, None)
        if not callable(original):
            self.unmeasured.add(name)
            return lambda: None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        return lambda: setattr(owner, attribute, original)

    def take(self) -> dict:
        """Hand over the recorded spans and counts, then start afresh."""
        taken = {"spans": self.spans, "counts": self.counts}
        self.spans, self.counts = [], {}
        return taken


def duration(span: dict) -> float:
    if span["start"] is None:
        return span["seconds"]
    return span["end"] - span["start"]


def layer_table(spans: List[dict]) -> Dict[str, List[float]]:
    """``{name: [total seconds, self seconds, calls]}`` over ``spans``.

    ``parent`` fields are indices into the same list, so pass the spans
    of one :meth:`SpanRecorder.take` at a time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)
    table: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span["name"], [0.0, 0.0, 0])
        row[0] += duration(span)
        row[1] += duration(span) - child_time[index]
        row[2] += span["calls"]
    return table
