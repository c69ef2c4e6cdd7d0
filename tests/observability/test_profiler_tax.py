"""The wall-clock profiler's cost gate: under 5% of a kernel-heavy run.

The tax is attributed, not raced (see ``tests/_timing.py``): the
per-event cost of :class:`ProfilingKernelProbe` over the plain
:class:`KernelProbe`, times the events a scaled C16 run fires, divided by
that run's CPU time.  ``profiler=None`` is the only off switch and
costs nothing by construction: ``Telemetry`` then builds the plain
probe (``test_profiler.py::test_no_profiler_selects_the_plain_probe``)
and ``timed`` hands every instrumented function back untouched.

The profiler may not change what the model computes: a profiled run
fires the same events and reports the same summary as a run without
one.
"""

import time

from repro import profiles
from repro.core.events import Event
from repro.observability import (
    KernelProbe,
    PhaseProfiler,
    ProfilingKernelProbe,
    Telemetry,
)
from tests._timing import seconds_per_call

#: Bound on the enabled profiler's share of a run's CPU time.
MAX_OVERHEAD_PCT = 5.0

#: C16 scaled up: the default profile finishes in ~20 ms, too short for
#: the per-event cost to dominate the CPU-time measurement.
OVERHEAD_POINT = {
    "max_jobs": 2_000,
    "duration": 300_000.0,
    "horizon": 900_000.0,
    "arrival_rate": 0.4,
}


def _run_c16(profiler=None):
    telemetry = Telemetry(profiler=profiler)
    begin = time.process_time()
    result = profiles.run("C16", telemetry, **OVERHEAD_POINT)
    cpu = time.process_time() - begin
    events = telemetry.metrics.get("sim.events.fired").total()
    return cpu, events, dict(result.summary)


def _probe_seconds_per_event(probe) -> float:
    event = Event(time=0.0, sequence=0, callback=lambda: None)
    return sum(
        seconds_per_call(hook, None, event)
        for hook in (probe.on_fire_start, probe.on_fire)
    )


def test_enabled_profiler_costs_under_five_percent_of_c16():
    runs = [_run_c16() for _ in range(2)]
    cpu = min(run[0] for run in runs)
    _, events, summary = runs[0]
    profiled_cpu, profiled_events, profiled_summary = _run_c16(PhaseProfiler())

    # The profiler observes; it must never change what the model computes.
    assert profiled_events == events
    assert profiled_summary == summary

    tax = max(
        0.0,
        _probe_seconds_per_event(
            ProfilingKernelProbe(Telemetry(profiler=PhaseProfiler()))
        )
        - _probe_seconds_per_event(KernelProbe(Telemetry())),
    )
    overhead_pct = 100.0 * tax * events / cpu
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"profiler tax {tax * 1e9:.0f} ns/event x {events:.0f} events "
        f"= {overhead_pct:.2f}% of {cpu:.3f} s CPU "
        f"(profiled run took {profiled_cpu:.3f} s)"
    )
