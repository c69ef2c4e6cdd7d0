"""The invariant checker's cost gate: under 5% of an event-heavy profile.

The cost is attributed, not raced (see ``tests/_timing.py``).  It is the
whole per-callback cost of :class:`KernelInvariantHooks` (a plain
telemetry run calls no kernel hook), times the schedules, fires and
cancels a validated run makes, plus the end-of-run
``check_kernel``/``check_telemetry``.  It is divided by the CPU time of
the same profile run without the checker.
"""

import pytest

from repro import profiles
from repro.core.events import Event, Simulation
from repro.observability import Telemetry
from repro.validate import InvariantChecker, KernelInvariantHooks, run_validated
from tests._timing import min_cpu_seconds, seconds_per_call

#: Bound on the checker's share of a run's CPU time.
MAX_OVERHEAD_PCT = 5.0

#: Hook callback -> the ``sim.events.*`` counter of how often a run calls it.
CALLS = {
    "on_schedule": "sim.events.scheduled",
    "on_fire_start": "sim.events.fired",
    "on_fire": "sim.events.fired",
    "on_cancel": "sim.events.cancelled",
}


def _hook_tax_seconds(metrics) -> float:
    simulation = Simulation()
    event = Event(time=0.0, sequence=0, callback=lambda: None)
    hooks = KernelInvariantHooks(InvariantChecker(), "simulation")
    tax = 0.0
    for name, counter in CALLS.items():
        per_call = seconds_per_call(getattr(hooks, name), simulation, event)
        calls = metrics.get(counter).total() if counter in metrics else 0.0
        tax += per_call * calls
    return tax


@pytest.mark.parametrize("profile_id", ["C16", "F3"])
def test_invariant_checks_cost_under_five_percent(profile_id):
    profiles.run(profile_id, Telemetry())  # warm-up: first-run costs
    bare_cpu = min_cpu_seconds(lambda: profiles.run(profile_id, Telemetry()))

    result, checker = run_validated(profile_id)
    assert checker.ok, checker.summary()
    metrics = result.telemetry.metrics

    def end_of_run_checks():
        checker.check_kernel()
        checker.check_telemetry(result.telemetry)

    checks = min_cpu_seconds(end_of_run_checks)
    hooks = _hook_tax_seconds(metrics)
    overhead_pct = 100.0 * (hooks + checks) / bare_cpu
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"{profile_id}: hooks {hooks * 1e3:.3f} ms + checks "
        f"{checks * 1e3:.3f} ms = {overhead_pct:.2f}% of "
        f"{bare_cpu * 1e3:.1f} ms CPU"
    )
