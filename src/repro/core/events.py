"""A minimal, fast discrete-event simulation kernel.

The kernel is deliberately callback-based rather than coroutine-based: every
subsystem in the library (cluster scheduler, federation, market rounds)
schedules plain callables at absolute or relative simulated times. Events at
the same timestamp fire in insertion order (FIFO), which makes simulations
deterministic for a fixed seed.

Example
-------
>>> sim = Simulation()
>>> fired = []
>>> handle = sim.schedule(5.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[5.0]
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.errors import SimulationError


class Event:
    """A scheduled callback, ordered by ``(time, sequence)``.

    A ``__slots__`` class with a hand-rolled comparison key rather than a
    ``@dataclass(order=True)``: the kernel allocates one of these per
    scheduled callback, so skipping the per-instance ``__dict__`` speeds
    the dispatch loop.  The kernel's heap orders ``(time, sequence,
    event)`` tuples and never compares events; for everyone else, events
    compare by ``(time, sequence)`` and nothing else.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    sequence:
        Monotonic tie-breaker assigned by the simulation; events scheduled
        earlier fire first among equal timestamps.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Set by :meth:`Simulation.cancel`; cancelled events are skipped.
    fired:
        Set by the kernel just before the callback runs;
        fired events cannot be cancelled.
    daemon:
        Daemon events (periodic telemetry samplers) never keep the
        simulation alive: they are excluded from :attr:`Simulation.pending`
        and :meth:`Simulation.run` stops once only daemon events remain.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "fired", "daemon")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        fired: bool = False,
        daemon: bool = False,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled
        self.fired = fired
        self.daemon = daemon

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r}, "
            f"fired={self.fired!r}, daemon={self.daemon!r})"
        )

    # The comparison set mirrors what @dataclass(order=True) generated
    # (including eq-implies-unhashable), minus the per-compare tuple builds.
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.sequence == other.sequence

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __le__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence <= other.sequence

    def __gt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time > other.time
        return self.sequence > other.sequence

    def __ge__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time > other.time
        return self.sequence >= other.sequence


class SimulationHooks:
    """Observer protocol for the simulation kernel's lifecycle.

    Subclass (or duck-type) and attach via :meth:`Simulation.set_hooks` to
    observe every schedule/fire/cancel without touching the hot loop:
    with no hooks attached the kernel pays a single ``is None`` test per
    operation and its behaviour is bit-identical to an unhooked run.

    Hooks must not mutate the queue they observe (scheduling *new* work
    from a hook is allowed — the telemetry samplers rely on it).
    """

    def on_schedule(self, simulation: "Simulation", event: Event) -> None:
        """Called after ``event`` is pushed onto the queue."""

    def on_fire_start(self, simulation: "Simulation", event: Event) -> None:
        """Called just before ``event``'s callback runs (clock is at the event).

        Paired with :meth:`on_fire`; the wall-clock profiler brackets the
        callback between the two to attribute dispatch latency per event.
        """

    def on_fire(self, simulation: "Simulation", event: Event) -> None:
        """Called after ``event``'s callback ran (clock is at the event)."""

    def on_cancel(self, simulation: "Simulation", event: Event) -> None:
        """Called when a live event is cancelled (not for no-op cancels)."""


def _time_error(time: float, now: float) -> SimulationError:
    """The error for a time that is NaN or before the clock."""
    if time != time:
        return SimulationError(f"cannot schedule at a NaN time ({time})")
    return SimulationError(f"cannot schedule at {time} before current time {now}")


class Simulation:
    """Discrete-event simulation clock and event queue.

    The simulation starts at time ``0.0`` and advances only when events are
    processed. Scheduling into the past, or at a NaN time, raises
    :class:`SimulationError`.

    The queue is a heap of ``(time, sequence, event)`` tuples, so every
    heap comparison runs in C (sequences are unique, so an :class:`Event`
    is never compared).  The kernel counts its own scheduled, fired and
    cancelled events as plain ints (:attr:`event_counts`); a publisher set
    with :meth:`set_publisher` is called each time :meth:`run` or
    :meth:`step` returns, which is how telemetry turns the counts into
    ``sim.events.*`` counters without a per-event hook.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        # Events scheduled so far; also the next event's sequence number.
        self._scheduled = 0
        self._processed = 0
        self._cancelled = 0
        self._live = 0
        self._hooks: Optional[SimulationHooks] = None
        self._publisher: Optional[Callable[["Simulation"], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not fired) non-daemon events queued.

        O(1): maintained as a counter on schedule/cancel/fire, so samplers
        may poll it every tick without scanning the heap. Daemon events do
        not count — they are bookkeeping, not simulated work.
        """
        return self._live

    @property
    def hooks(self) -> Optional[SimulationHooks]:
        """The attached :class:`SimulationHooks` observer, if any."""
        return self._hooks

    def set_hooks(self, hooks: Optional[SimulationHooks]) -> None:
        """Attach (or detach, with ``None``) a lifecycle observer."""
        self._hooks = hooks

    def set_publisher(
        self, publisher: Optional[Callable[["Simulation"], None]]
    ) -> None:
        """Set (or clear, with ``None``) the call made when a run returns.

        ``publisher(simulation)`` runs each time :meth:`run` or
        :meth:`step` returns, also when an event callback raised.  One
        slot: setting a publisher replaces the previous one.
        """
        self._publisher = publisher

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def event_counts(self) -> Tuple[int, int, int]:
        """``(scheduled, fired, cancelled)`` events so far, daemons included.

        Cancelled counts live events only: cancelling a fired or an
        already-cancelled event is a no-op.
        """
        return self._scheduled, self._processed, self._cancelled

    def schedule(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which can be passed to :meth:`cancel`.
        """
        if not delay >= 0:  # also rejects NaN
            if delay != delay:
                raise SimulationError(f"cannot schedule at a NaN delay ({delay})")
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, daemon=daemon)

    def schedule_at(
        self, time: float, callback: Callable[[], None], daemon: bool = False
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time.

        Daemon events (``daemon=True``) are bookkeeping work — periodic
        telemetry samplers — that must never keep the simulation alive:
        they do not count towards :attr:`pending` and an unbounded
        :meth:`run` stops as soon as only daemon events remain.
        """
        if not time >= self._now:  # also rejects NaN
            raise _time_error(time, self._now)
        sequence = self._scheduled
        self._scheduled = sequence + 1
        event = Event(time, sequence, callback, False, False, daemon)
        heappush(self._queue, (time, sequence, event))
        if not daemon:
            self._live += 1
        if self._hooks is not None:
            self._hooks.on_schedule(self, event)
        return event

    def schedule_many(
        self,
        entries: Iterable[Tuple[float, Callable[[], None]]],
        daemon: bool = False,
    ) -> List[Event]:
        """Schedule a batch of ``(time, callback)`` pairs at absolute times.

        Semantically identical to calling :meth:`schedule_at` once per pair
        in iteration order — sequence numbers, and therefore FIFO
        tie-breaking among equal timestamps, are assigned in that order and
        the firing order is bit-identical — but the heap maintenance is
        amortised: when the batch is large relative to the queue the events
        are appended and the whole heap re-heapified in ``O(n + m)``, which
        beats ``m`` pushes at ``O(m log(n + m))``.  Trace generators and
        link-event replays that front-load thousands of arrivals hit this
        path.  Validation is all-or-nothing: a past or NaN timestamp
        anywhere in the batch raises before any event is queued.
        """
        now = self._now
        sequence = self._scheduled
        events: List[Event] = []
        for time, callback in entries:
            if not time >= now:
                raise _time_error(time, now)
            events.append(Event(time, sequence, callback, False, False, daemon))
            sequence += 1
        if not events:
            return events
        self._scheduled = sequence
        queue = self._queue
        total = len(queue) + len(events)
        # heapify is O(total); pushes are O(len(events) * log2(total)).
        if len(events) * max(1, total.bit_length()) >= total:
            queue.extend([(event.time, event.sequence, event) for event in events])
            heapify(queue)
        else:
            for event in events:
                heappush(queue, (event.time, event.sequence, event))
        if not daemon:
            self._live += len(events)
        if self._hooks is not None:
            for event in events:
                self._hooks.on_schedule(self, event)
        return events

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op if already fired)."""
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._cancelled += 1
        if not event.daemon:
            self._live -= 1
        if self._hooks is not None:
            self._hooks.on_cancel(self, event)

    def step(self) -> bool:
        """Fire the next event. Returns ``False`` when the queue is empty."""
        try:
            return self._fire_next()
        finally:
            if self._publisher is not None:
                self._publisher(self)

    def _fire_next(self) -> bool:
        """Pop and fire the next live event; ``False`` when none is left."""
        queue = self._queue
        while queue:
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            event.fired = True
            if not event.daemon:
                self._live -= 1
            self._now = event.time
            self._processed += 1
            if self._hooks is not None:
                self._hooks.on_fire_start(self, event)
            event.callback()
            if self._hooks is not None:
                self._hooks.on_fire(self, event)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic samplers observe a
        consistent horizon. An unbounded run (no ``until``) stops once only
        daemon events remain, so self-rescheduling samplers cannot keep a
        drained simulation alive. Returns the final simulated time.
        """
        queue = self._queue
        fired = 0
        try:
            while queue:
                if until is None and self._live == 0:
                    break
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                self._fire_next()
                fired += 1
        finally:
            if self._publisher is not None:
                self._publisher(self)
        if until is not None and self._now < until:
            self._now = until
        return self._now
