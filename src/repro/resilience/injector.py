"""The fault injector: plays a campaign timeline on the DES kernel.

:class:`FaultInjector` expands a :class:`~repro.resilience.faults.FaultCampaign`
into concrete events and schedules them on a shared
:class:`~repro.core.events.Simulation`. Fault arrivals are scheduled as
*daemon* events — a campaign whose horizon outlives the workload must never
keep a drained simulation alive — while each applied fault's repair is a
regular event: recovery is pending work that queued jobs may be waiting on,
so the run cannot end in the middle of an outage.

Subsystems subscribe with :meth:`FaultInjector.on`;
:func:`~repro.resilience.recovery.bind_cluster` wires the cluster's
standard reaction so most callers never register handlers by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import Simulation
from repro.core.rng import RandomSource
from repro.observability.metrics import CounterSeries
from repro.observability.probes import CATEGORY_FAULT, Telemetry
from repro.resilience.faults import FaultCampaign, FaultEvent, FaultKind

#: A fault handler: receives the event and whether this call is the repair
#: (``True``) or the fault itself (``False``).  On the fault call it
#: returns ``False`` when the fault found nothing to take; that fault's
#: repair then counts nothing and reaches no handler.
FaultHandler = Callable[[FaultEvent, bool], Optional[bool]]


class FaultInjector:
    """Schedules a campaign's fault and repair events on a simulation.

    Parameters
    ----------
    simulation:
        The shared DES kernel the workload runs on.
    campaign:
        The declarative fault schedule.
    rng:
        Seed-stable source the timeline is drawn from (fork it from the
        run seed; see :meth:`FaultCampaign.timeline`).
    telemetry:
        Optional :class:`~repro.observability.probes.Telemetry`: faults
        bump ``resilience.faults.injected`` / ``.repaired`` counters
        (labelled by kind) and leave instant markers on the trace.
    timeline:
        A pre-expanded timeline to replay instead of drawing one — used
        to hold faults identical across a parameter grid (common random
        numbers).
    """

    def __init__(
        self,
        simulation: Simulation,
        campaign: FaultCampaign,
        rng: RandomSource,
        telemetry: Optional[Telemetry] = None,
        timeline: Optional[List[FaultEvent]] = None,
    ) -> None:
        self.simulation = simulation
        self.campaign = campaign
        self.telemetry = telemetry
        self.timeline: List[FaultEvent] = (
            list(timeline) if timeline is not None
            else campaign.timeline(rng)
        )
        self._handlers: Dict[FaultKind, List[FaultHandler]] = {
            kind: [] for kind in FaultKind
        }
        self.injected = 0
        self.repaired = 0
        self._installed = False
        #: (counter name, kind) -> series, resolved at first use.
        self._series: Dict[Tuple[str, FaultKind], CounterSeries] = {}

    def _count(self, name: str, description: str, kind: FaultKind) -> None:
        """Add one to the ``kind`` series of counter ``name``."""
        series = self._series.get((name, kind))
        if series is None:
            series = self._series[name, kind] = self.telemetry.counter(
                name, description
            ).series(kind=kind.value)
        series.inc()

    def on(self, kind: FaultKind, handler: FaultHandler) -> None:
        """Subscribe ``handler`` to faults (and repairs) of ``kind``."""
        self._handlers[kind].append(handler)

    def install(self) -> int:
        """Schedule every timeline event; returns how many were scheduled.

        Call once, after all handlers are bound and before
        ``simulation.run()``. Events before the current clock are skipped
        (installing mid-run replays only the future).
        """
        if self._installed:
            return 0
        self._installed = True
        scheduled = 0
        now = self.simulation.now
        for event in self.timeline:
            if event.time < now:
                continue
            self.simulation.schedule_at(
                event.time, self._make_firer(event), daemon=True
            )
            scheduled += 1
        return scheduled

    def _make_firer(self, event: FaultEvent) -> Callable[[], None]:
        def fire() -> None:
            self._fire(event)

        return fire

    def _fire(self, event: FaultEvent) -> None:
        self.injected += 1
        if self.telemetry is not None:
            self._count(
                "resilience.faults.injected", "faults applied by the injector",
                event.kind,
            )
            self.telemetry.tracer.instant(
                f"fault:{event.kind.value}", CATEGORY_FAULT,
                self.simulation.now, target=event.target,
                duration=event.duration,
            )
        took = [handler(event, False) for handler in self._handlers[event.kind]]
        dropped = any(result is False for result in took)
        # Repair is real pending work (queued jobs may be waiting on it),
        # so it is a non-daemon event and keeps the simulation alive.
        self.simulation.schedule(
            event.duration, lambda: self._repair(event, dropped)
        )

    def _repair(self, event: FaultEvent, dropped: bool) -> None:
        if dropped:
            return
        self.repaired += 1
        if self.telemetry is not None:
            self._count(
                "resilience.faults.repaired", "faults repaired", event.kind
            )
            self.telemetry.tracer.instant(
                f"repair:{event.kind.value}", CATEGORY_FAULT,
                self.simulation.now, target=event.target,
            )
        for handler in self._handlers[event.kind]:
            handler(event, True)
