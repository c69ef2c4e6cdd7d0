"""Tests for the runtime invariant checker and its chaining kernel hooks."""

from types import SimpleNamespace

import pytest

from repro.core.events import Simulation, SimulationHooks
from repro.interconnect.fabric import FlowStats
from repro.observability import (
    PHASE_DISPATCH,
    PhaseProfiler,
    ProfilingKernelProbe,
    Telemetry,
)
from repro.profiles import PROFILES
from repro.validate import (
    InvariantChecker,
    InvariantViolation,
    KernelInvariantHooks,
    Violation,
    run_validated,
)

from tests.resilience.conftest import make_cluster, make_job


def _flow(**overrides):
    base = dict(
        flow_id=0, tag="t", size=1e6, start_time=0.0, finish_time=1.0,
        path_hops=2, propagation_delay=1e-6, extra_queueing=0.0,
    )
    base.update(overrides)
    return FlowStats(**base)


class _RecordingHooks(SimulationHooks):
    """An inner observer that logs every callback the kernel hands it."""

    def __init__(self):
        self.calls = []

    def on_schedule(self, simulation, event):
        self.calls.append(("schedule", event.sequence))

    def on_fire_start(self, simulation, event):
        self.calls.append(("fire_start", event.sequence))

    def on_fire(self, simulation, event):
        self.calls.append(("fire", event.sequence))

    def on_cancel(self, simulation, event):
        self.calls.append(("cancel", event.sequence))


class TestKernelHookChaining:
    def test_attach_wraps_and_delegates_to_kernel_probe(self):
        """After attach, a profiled run's ProfilingKernelProbe still times
        every fired event and telemetry still counts every schedule/fire/
        cancel once — chaining must not eat callbacks, and the invariant
        hooks count nothing of their own."""
        simulation = Simulation()
        profiler = PhaseProfiler()
        telemetry = Telemetry(profiler=profiler)
        telemetry.bind_simulation(simulation)
        probe = simulation.hooks
        assert isinstance(probe, ProfilingKernelProbe)
        checker = InvariantChecker("chain")
        hooks = checker.attach(simulation)
        assert isinstance(simulation.hooks, KernelInvariantHooks)
        assert hooks.inner is probe

        events = [
            simulation.schedule(float(i), lambda: None) for i in range(5)
        ]
        simulation.cancel(events[4])
        simulation.run()

        assert simulation.event_counts == (5, 4, 1)
        assert profiler.calls(PHASE_DISPATCH) == 4
        registry = telemetry.metrics
        assert registry.get("sim.events.scheduled").total() == 5
        assert registry.get("sim.events.fired").total() == 4
        assert registry.get("sim.events.cancelled").total() == 1

        checker.check_kernel()
        assert checker.ok

    def test_attach_delegates_every_callback_in_order(self):
        simulation = Simulation()
        recorder = _RecordingHooks()
        simulation.set_hooks(recorder)
        checker = InvariantChecker("chain")
        assert checker.attach(simulation).inner is recorder

        events = [
            simulation.schedule(float(i), lambda: None) for i in range(3)
        ]
        simulation.cancel(events[2])
        simulation.run()

        assert recorder.calls == [
            ("schedule", 0), ("schedule", 1), ("schedule", 2),
            ("cancel", 2),
            ("fire_start", 0), ("fire", 0),
            ("fire_start", 1), ("fire", 1),
        ]
        checker.check_kernel()
        assert checker.ok

    def test_attach_works_without_prior_hooks(self):
        simulation = Simulation()
        checker = InvariantChecker("bare")
        hooks = checker.attach(simulation)
        assert hooks.inner is None
        simulation.schedule(1.0, lambda: None)
        simulation.run()
        checker.check_kernel()
        assert checker.ok


class TestKernelViolationDetection:
    def test_backwards_schedule_is_flagged(self):
        checker = InvariantChecker()
        hooks = KernelInvariantHooks(checker, "stub")
        stub = SimpleNamespace(now=10.0, pending=1)
        hooks.on_schedule(stub, SimpleNamespace(time=3.0))
        assert not checker.ok
        assert checker.violations[0].check == "kernel.causality"

    def test_time_running_backwards_is_flagged(self):
        checker = InvariantChecker()
        hooks = KernelInvariantHooks(checker, "stub")
        hooks.on_fire(SimpleNamespace(now=5.0, pending=0), SimpleNamespace())
        hooks.on_fire(SimpleNamespace(now=2.0, pending=0), SimpleNamespace())
        assert [v.check for v in checker.violations] == [
            "kernel.monotone-time"
        ]

    def test_negative_clock_and_pending_are_flagged(self):
        checker = InvariantChecker()
        hooks = KernelInvariantHooks(checker, "stub")
        hooks.on_fire(SimpleNamespace(now=-1.0, pending=-2), SimpleNamespace())
        checks = {v.check for v in checker.violations}
        assert checks == {"kernel.clock", "kernel.ledger"}

    def test_event_ledger_imbalance_is_flagged_at_run_end(self):
        simulation = Simulation()
        checker = InvariantChecker()
        checker.attach(simulation)
        simulation._processed = 3  # forged: more fires than schedules
        checker.check_kernel()
        assert any(v.check == "kernel.ledger" for v in checker.violations)


class TestClusterChecks:
    def test_clean_run_passes(self):
        cluster = make_cluster(nodes=2)
        for index in range(3):
            cluster.submit(make_job(50.0, name=f"job-{index}"))
        cluster.run()
        checker = InvariantChecker()
        checker.check_cluster(cluster)
        assert checker.ok, checker.summary()

    def test_corrupted_ledger_is_flagged(self):
        """A duck-typed cluster whose tally does not balance trips the
        conservation law without raising."""
        stub = SimpleNamespace(
            site=SimpleNamespace(name="stub-site"),
            records=[SimpleNamespace(finish_time=1.0)],
            dead_jobs=[object()],  # dead job with no matching record
            queue_depth=0,
            _running={},
            pending_requeues=0,
            utilization=lambda: 0.5,
            makespan=lambda: 0.0,
            useful_device_seconds=1.0,
            wasted_device_seconds=0.0,
            nominal_capacity=4,
        )
        checker = InvariantChecker()
        checker.check_cluster(stub)
        assert any(
            v.check == "cluster.conservation" for v in checker.violations
        )

    def test_negative_accounting_is_flagged(self):
        stub = SimpleNamespace(
            site=SimpleNamespace(name="stub-site"),
            records=[], dead_jobs=[],
            queue_depth=0, _running={}, pending_requeues=0,
            utilization=lambda: 0.0, makespan=lambda: 0.0,
            useful_device_seconds=-5.0,
            wasted_device_seconds=float("nan"),
            nominal_capacity=4,
        )
        checker = InvariantChecker()
        checker.check_cluster(stub)
        accounting = [
            v for v in checker.violations if v.check == "cluster.accounting"
        ]
        assert len(accounting) == 2


class TestFabricChecks:
    def test_clean_stats_pass(self):
        checker = InvariantChecker()
        checker.check_fabric([_flow(), _flow(flow_id=1, dropped=True,
                                           delivered=4e5)])
        assert checker.ok

    def test_over_delivery_is_flagged(self):
        checker = InvariantChecker()
        checker.check_fabric([_flow(dropped=True, delivered=2e6)])
        assert any(v.check == "fabric.bytes" for v in checker.violations)

    def test_finish_before_start_is_flagged(self):
        checker = InvariantChecker()
        checker.check_fabric([_flow(start_time=5.0, finish_time=1.0)])
        assert any(v.check == "fabric.time" for v in checker.violations)

    def test_short_delivery_on_completed_flow_is_flagged(self):
        checker = InvariantChecker()
        checker.check_fabric([_flow(dropped=False, delivered=1e3)])
        assert any(v.check == "fabric.bytes" for v in checker.violations)


class TestTelemetryChecks:
    def test_byte_conservation_tamper_is_flagged(self):
        telemetry = Telemetry()
        telemetry.counter("fabric.flow_bytes_offered", "").inc(100.0)
        telemetry.counter("fabric.flow_bytes", "").inc(60.0)
        telemetry.counter("fabric.flow_bytes_lost", "").inc(10.0)
        checker = InvariantChecker()
        checker.check_telemetry(telemetry)
        assert any(
            v.check == "fabric.conservation" for v in checker.violations
        )

    def test_event_counter_imbalance_is_flagged(self):
        telemetry = Telemetry()
        telemetry.counter("sim.events.scheduled", "").inc(2.0)
        telemetry.counter("sim.events.fired", "").inc(3.0)
        checker = InvariantChecker()
        checker.check_telemetry(telemetry)
        assert any(v.check == "kernel.ledger" for v in checker.violations)

    def test_job_ledger_respects_drained_flag(self):
        telemetry = Telemetry()
        telemetry.counter("cluster.jobs.submitted", "").inc(3.0)
        telemetry.counter("cluster.jobs.finished", "").inc(2.0)
        undrained = InvariantChecker()
        undrained.check_telemetry(telemetry, drained=False)
        assert undrained.ok
        drained = InvariantChecker()
        drained.check_telemetry(telemetry, drained=True)
        assert any(
            v.check == "cluster.conservation" for v in drained.violations
        )


class TestReportingSurface:
    def test_violation_renders_check_subject_message(self):
        violation = Violation("law", "subject", "broke")
        assert str(violation) == "[law] subject: broke"

    def test_assert_clean_raises_with_every_violation(self):
        checker = InvariantChecker("doomed")
        checker.fail("a", "s1", "m1")
        checker.fail("b", "s2", "m2")
        with pytest.raises(InvariantViolation) as excinfo:
            checker.assert_clean()
        assert len(excinfo.value.violations) == 2
        assert "[a] s1: m1" in str(excinfo.value)

    def test_summary_is_clean_or_itemised(self):
        checker = InvariantChecker("r")
        assert "all invariants held" in checker.summary()
        checker.fail("law", "s", "m")
        assert "1 violation(s)" in checker.summary()


class TestAllProfilesHoldInvariants:
    @pytest.mark.parametrize("profile_id", sorted(PROFILES))
    def test_profile_runs_clean(self, profile_id):
        """Acceptance: every run profile completes with zero invariant
        violations under the chained kernel + telemetry checks."""
        _result, checker = run_validated(profile_id)
        assert checker.ok, checker.summary()
