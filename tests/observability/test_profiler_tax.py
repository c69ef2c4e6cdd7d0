"""The wall-clock profiler's cost gate: under 5% of a kernel-heavy run.

The tax is attributed, not raced (see ``tests/_timing.py``): the whole
per-call cost of each :class:`ProfilingKernelProbe` hook, times the
schedules, fires and cancels a scaled C16 run makes, divided by that
run's CPU time.  ``profiler=None``
is the only off switch and costs nothing by construction: ``Telemetry``
then attaches no kernel hook
(``test_profiler.py::test_no_profiler_times_nothing_and_still_counts``)
and ``timed`` hands every instrumented function back untouched.

The profiler may not change what the model computes: a profiled run
fires the same events and reports the same summary as a run without
one.
"""

import time

from repro import profiles
from repro.core.events import Event
from repro.observability import (
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


#: Probe hook -> the ``sim.events.*`` counter of how often a run calls it.
CALLS = {
    "on_schedule": "sim.events.scheduled",
    "on_fire_start": "sim.events.fired",
    "on_fire": "sim.events.fired",
    "on_cancel": "sim.events.cancelled",
}


def _run_c16(profiler=None):
    telemetry = Telemetry(profiler=profiler)
    begin = time.process_time()
    result = profiles.run("C16", telemetry, **OVERHEAD_POINT)
    cpu = time.process_time() - begin
    metrics = telemetry.metrics
    calls = {
        counter: metrics.get(counter).total() if counter in metrics else 0.0
        for counter in set(CALLS.values())
    }
    return cpu, calls, dict(result.summary)


def _probe_seconds_per_call(probe) -> dict:
    """Fastest-chunk seconds for one call of each probe hook."""
    event = Event(time=0.0, sequence=0, callback=lambda: None)
    return {
        name: seconds_per_call(getattr(probe, name), None, event)
        for name in CALLS
    }


def test_enabled_profiler_costs_under_five_percent_of_c16():
    # A plain run calls no kernel hook, so every call the kernel makes
    # into the probe (schedule, fire start, fire, cancel) is tax.  The
    # probe is timed in two windows, before and after the runs, and the
    # faster kept: interference only adds time, and a slow stretch of a
    # shared host can outlast one window's chunks.
    probe = ProfilingKernelProbe(Telemetry(profiler=PhaseProfiler()))
    first = _probe_seconds_per_call(probe)
    runs = [_run_c16() for _ in range(2)]
    cpu = min(run[0] for run in runs)
    _, calls, summary = runs[0]
    profiled_cpu, profiled_calls, profiled_summary = _run_c16(PhaseProfiler())

    # The profiler observes; it must never change what the model computes.
    assert profiled_calls == calls
    assert profiled_summary == summary

    second = _probe_seconds_per_call(probe)
    tax = sum(
        min(first[name], second[name]) * calls[counter]
        for name, counter in CALLS.items()
    )
    overhead_pct = 100.0 * tax / cpu
    fired = calls["sim.events.fired"]
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"profiler tax {tax / fired * 1e9:.0f} ns/event x {fired:.0f} "
        f"events = {overhead_pct:.2f}% of {cpu:.3f} s CPU "
        f"(profiled run took {profiled_cpu:.3f} s)"
    )
