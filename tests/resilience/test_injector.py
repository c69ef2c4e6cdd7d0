"""Tests for the fault injector's scheduling discipline."""

from repro.core.events import Simulation
from repro.core.rng import RandomSource
from repro.observability import Telemetry
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultEvent,
    FaultKind,
    FaultInjector,
    NodeFaultSpec,
)


def _campaign(horizon=1_000.0, mtbf=100.0):
    return FaultCampaign(
        horizon=horizon,
        node_faults=(NodeFaultSpec("a", FailureProcess(mtbf=mtbf)),),
    )


class TestInstall:
    def test_schedules_every_future_event(self):
        simulation = Simulation()
        injector = FaultInjector(simulation, _campaign(), RandomSource(seed=1))
        scheduled = injector.install()
        assert scheduled == len(injector.timeline) > 0

    def test_install_is_once_only(self):
        simulation = Simulation()
        injector = FaultInjector(simulation, _campaign(), RandomSource(seed=1))
        injector.install()
        assert injector.install() == 0

    def test_explicit_timeline_replayed_verbatim(self):
        timeline = [FaultEvent(5.0, FaultKind.NODE, "a", 1.0)]
        injector = FaultInjector(
            Simulation(), _campaign(), RandomSource(seed=1), timeline=timeline
        )
        assert injector.timeline == timeline


class TestDaemonDiscipline:
    def test_faults_alone_never_keep_the_simulation_alive(self):
        """An empty workload drains immediately: arrivals are daemons."""
        simulation = Simulation()
        injector = FaultInjector(simulation, _campaign(), RandomSource(seed=2))
        injector.install()
        simulation.run()
        assert injector.injected == 0
        assert simulation.now == 0.0

    def test_repair_of_an_applied_fault_completes(self):
        """Once a fault fires, its repair is real work and runs to time."""
        simulation = Simulation()
        injector = FaultInjector(
            simulation, _campaign(), RandomSource(seed=2),
            timeline=[FaultEvent(10.0, FaultKind.NODE, "a", 30.0)],
        )
        injector.install()
        # A non-daemon event at t=15 keeps the sim alive past the fault.
        simulation.schedule_at(15.0, lambda: None)
        simulation.run()
        assert injector.injected == 1
        assert injector.repaired == 1
        assert simulation.now == 40.0  # fault at 10 + repair after 30


class TestHandlersAndTelemetry:
    def test_handlers_see_fault_then_repair(self):
        simulation = Simulation()
        calls = []
        injector = FaultInjector(
            simulation, _campaign(), RandomSource(seed=3),
            timeline=[FaultEvent(1.0, FaultKind.NODE, "a", 2.0)],
        )
        injector.on(FaultKind.NODE, lambda e, repaired: calls.append(repaired))
        injector.on(FaultKind.MEMORY, lambda e, repaired: calls.append("wrong"))
        injector.install()
        simulation.schedule_at(1.0, lambda: None)
        simulation.run()
        assert calls == [False, True]

    def test_counters_labelled_by_kind(self):
        telemetry = Telemetry()
        simulation = Simulation()
        telemetry.bind_simulation(simulation)
        injector = FaultInjector(
            simulation, _campaign(), RandomSource(seed=4),
            telemetry=telemetry,
            timeline=[
                FaultEvent(1.0, FaultKind.NODE, "a", 1.0),
                FaultEvent(2.0, FaultKind.NODE, "a", 1.0),
            ],
        )
        injector.install()
        simulation.schedule_at(2.0, lambda: None)
        simulation.run()
        assert telemetry.counter("resilience.faults.injected").total() == 2
        assert telemetry.counter("resilience.faults.repaired").total() == 2

    def test_past_events_skipped_when_installed_mid_run(self):
        simulation = Simulation()
        simulation.schedule_at(50.0, lambda: None)
        simulation.run()
        injector = FaultInjector(
            simulation, _campaign(), RandomSource(seed=5),
            timeline=[
                FaultEvent(10.0, FaultKind.NODE, "a", 1.0),  # in the past
                FaultEvent(90.0, FaultKind.NODE, "a", 1.0),
            ],
        )
        assert injector.install() == 1
