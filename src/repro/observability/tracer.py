"""Span/event tracer over simulated time.

The tracer records *where simulated time goes*: spans (a named interval
with a category), instant events (a point marker) and counter samples (a
numeric time series), all timestamped on the **simulation clock** — not
wall time. Export to Chrome ``trace_event`` JSON or JSONL lives in
:mod:`repro.observability.export`.

Design constraints, per the overhead contract (DESIGN.md §6):

* a disabled tracer is a handful of no-op method calls — it records
  nothing, allocates nothing per call, and schedules nothing on the
  simulation it observes;
* instrumented subsystems never need an open-span handle across
  callbacks when they already know both endpoints — :meth:`Tracer.complete`
  takes explicit start/end times, which also serves simulators that keep
  their own clock (e.g. the flow-level fabric).

Example
-------
>>> from repro.core.events import Simulation
>>> sim = Simulation()
>>> tracer = Tracer(clock=lambda: sim.now)
>>> with tracer.span("warmup", category="job"):
...     sim.run(until=5.0)
5.0
>>> tracer.spans[0].name, tracer.spans[0].duration
('warmup', 5.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.errors import ConfigurationError


@dataclass
class SpanRecord:
    """A closed span: ``[start, end]`` simulated seconds with a category."""

    name: str
    category: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


@dataclass
class InstantRecord:
    """A point event at one simulated timestamp."""

    name: str
    category: str
    time: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterRecord:
    """One sample of a numeric series (renders as a counter track)."""

    name: str
    time: float
    values: Dict[str, float] = field(default_factory=dict)


def span_record(
    name: str, category: str, start: float, end: float, args: Dict[str, Any]
) -> SpanRecord:
    """A :class:`SpanRecord`, refused when it ends before it starts.

    :meth:`Tracer.complete` without the keyword-argument round trip, for
    a recorder that appends to an enabled tracer's ``spans`` itself.
    """
    if end < start:
        raise ConfigurationError(
            f"span {name!r} ends before it starts ({end} < {start})"
        )
    return SpanRecord(name, category, start, end, args)


class _OpenSpan:
    """Handle returned by :meth:`Tracer.begin`; close with :meth:`Tracer.end`."""

    __slots__ = ("name", "category", "start", "args", "closed")

    def __init__(self, name: str, category: str, start: float, args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.start = start
        self.args = args
        self.closed = False


class Tracer:
    """Records spans, instants and counter samples on simulated time.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time; used
        by :meth:`span`, and as the default timestamp for :meth:`begin`,
        :meth:`end` and :meth:`instant`. Optional — methods taking explicit
        times work without one.
    enabled:
        When False every record method is a no-op; flip at any time.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counters: List[CounterRecord] = []

    # --- clock helpers ----------------------------------------------------------

    def _time(self, explicit: Optional[float]) -> float:
        if explicit is not None:
            return explicit
        if self.clock is None:
            raise ConfigurationError(
                "tracer has no clock; pass an explicit timestamp"
            )
        return self.clock()

    # --- recording --------------------------------------------------------------

    def complete(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        **args: Any,
    ) -> None:
        """Record a finished span with explicit endpoints."""
        if not self.enabled:
            return
        self.spans.append(span_record(name, category, start, end, args))

    def begin(
        self,
        name: str,
        category: str,
        time: Optional[float] = None,
        **args: Any,
    ) -> Optional[_OpenSpan]:
        """Open a span; returns a handle for :meth:`end` (None when disabled)."""
        if not self.enabled:
            return None
        return _OpenSpan(name, category, self._time(time), args)

    def end(self, handle: Optional[_OpenSpan], time: Optional[float] = None) -> None:
        """Close a span opened by :meth:`begin` (no-op for a None handle)."""
        if handle is None or not self.enabled:
            return
        if handle.closed:
            raise ConfigurationError(f"span {handle.name!r} already closed")
        handle.closed = True
        self.spans.append(
            SpanRecord(
                handle.name, handle.category, handle.start,
                self._time(time), handle.args,
            )
        )

    def span(self, name: str, category: str = "default", **args: Any):
        """Context manager recording a span around the ``with`` body.

        Requires a ``clock``; nests naturally — inner spans close first
        and are contained in the enclosing span's interval.
        """
        return _SpanContext(self, name, category, args)

    def instant(
        self,
        name: str,
        category: str,
        time: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        self.instants.append(InstantRecord(name, category, self._time(time), args))

    def sample(self, name: str, time: float, **values: float) -> None:
        """Record one sample of a counter series (e.g. queue depth)."""
        if not self.enabled:
            return
        self.counters.append(CounterRecord(name, time, dict(values)))

    # --- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    @property
    def categories(self) -> List[str]:
        """Distinct categories, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.spans:
            seen.setdefault(record.category, None)
        for record in self.instants:
            seen.setdefault(record.category, None)
        return list(seen)

    def spans_in(self, category: str) -> Iterator[SpanRecord]:
        """Spans of one category."""
        return (s for s in self.spans if s.category == category)

    def clear(self) -> None:
        """Drop every recorded span, instant and counter sample."""
        self.spans.clear()
        self.instants.clear()
        self.counters.clear()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    def __init__(self, tracer: Tracer, name: str, category: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._start: Optional[float] = None

    def __enter__(self) -> "_SpanContext":
        if self._tracer.enabled:
            self._start = self._tracer._time(None)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tracer.enabled and self._start is not None:
            self._tracer.complete(
                self._name, self._category, self._start,
                self._tracer._time(None), **self._args,
            )


#: A permanently-disabled tracer instrumented code can hold unconditionally.
NULL_TRACER = Tracer(enabled=False)
