"""Tests for the Telemetry facade, kernel event counts and attach helpers."""

import pytest

from repro import profiles
from repro.core.events import Simulation
from repro.core.rng import RandomSource
from repro.observability.metrics import MetricsRegistry
from repro.observability.probes import Telemetry
from repro.observability.profiler import PhaseProfiler
from repro.observability.tracer import Tracer
from repro.validate import InvariantChecker, run_validated

EVENT_COUNTERS = (
    "sim.events.scheduled", "sim.events.fired", "sim.events.cancelled",
)


def _event_totals(telemetry):
    metrics = telemetry.metrics
    return tuple(
        metrics.get(name).total() if name in metrics else 0.0
        for name in EVENT_COUNTERS
    )


class TestTelemetry:
    def test_binds_tracer_clock_to_simulation(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert telemetry.tracer.clock() == 3.0

    def test_constructor_counts_kernel_events_without_hooks(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        assert sim.hooks is None  # a plain run pays no per-event hook
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert _event_totals(telemetry) == (1.0, 1.0, 0.0)

    def test_bind_simulation_is_first_wins(self):
        first = Simulation()
        second = Simulation()
        telemetry = Telemetry()
        telemetry.bind_simulation(first)
        telemetry.bind_simulation(second)
        assert telemetry.simulation is first
        assert second.hooks is None

    def test_shares_prebuilt_components(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        telemetry = Telemetry(tracer=tracer, metrics=metrics)
        assert telemetry.tracer is tracer
        assert telemetry.metrics is metrics


class TestKernelCounts:
    def test_counts_schedule_fire_cancel(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        sim.run()
        metrics = telemetry.metrics
        assert metrics.get("sim.events.scheduled").total() == 2
        assert metrics.get("sim.events.fired").total() == 1
        assert metrics.get("sim.events.cancelled").total() == 1
        assert keep.fired

    def test_counts_are_published_after_a_bare_step(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        sim.schedule(1.0, lambda: None)
        sim.cancel(sim.schedule(2.0, lambda: None))
        sim.schedule(3.0, lambda: None)
        assert "sim.events.scheduled" in telemetry.metrics
        assert telemetry.metrics.get("sim.events.scheduled").label_sets() == []
        assert sim.step()
        assert _event_totals(telemetry) == (3.0, 1.0, 1.0)
        assert sim.step()
        assert not sim.step()
        assert _event_totals(telemetry) == (3.0, 2.0, 1.0)

    def test_counting_starts_at_the_binding(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        telemetry = Telemetry()
        telemetry.bind_simulation(sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.event_counts == (2, 2, 0)
        assert _event_totals(telemetry) == (1.0, 1.0, 0.0)

    def test_counts_are_published_when_a_callback_raises(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert _event_totals(telemetry) == (2.0, 2.0, 0.0)

    @pytest.mark.parametrize("batch", [500, 1])
    def test_schedule_many_counts_on_both_paths(self, batch):
        # 500 events onto 8 take the heapify branch, 1 onto 8 the pushes.
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        fired = []
        for index in range(8):
            sim.schedule_at(1.0, lambda i=index: fired.append(("old", i)))
        events = sim.schedule_many(
            [(1.0, lambda i=index: fired.append(("new", i)))
             for index in range(batch)]
        )
        sim.cancel(events[0])
        sim.run()
        # Equal timestamps fire FIFO whichever path queued them.
        assert fired == (
            [("old", i) for i in range(8)]
            + [("new", i) for i in range(1, batch)]
        )
        assert _event_totals(telemetry) == (8.0 + batch, 7.0 + batch, 1.0)


class TestZeroOverheadContract:
    """With no hooks, the kernel must behave bit-identically to the seed."""

    def _workload(self, sim: Simulation, order: list) -> None:
        # A self-extending cascade: deterministic but non-trivial ordering.
        rng = RandomSource(seed=42, name="overhead")

        def make(tag):
            def fire():
                order.append((tag, sim.now))
                if len(order) < 2_000:
                    sim.schedule(rng.uniform(0.0, 3.0), make(len(order)))
                    if len(order) % 3 == 0:
                        victim = sim.schedule(50_000.0, lambda: None)
                        sim.cancel(victim)

            return fire

        for index in range(100):
            sim.schedule_at(float(index % 7), make(-index))

    def test_hooked_run_matches_unhooked_run_exactly(self):
        plain_order, hooked_order = [], []

        plain = Simulation()
        self._workload(plain, plain_order)
        plain.run()

        hooked = Simulation()
        telemetry = Telemetry(simulation=hooked)
        self._workload(hooked, hooked_order)
        hooked.run()

        assert hooked_order == plain_order
        assert hooked.now == plain.now
        assert hooked.processed == plain.processed
        fired = telemetry.metrics.get("sim.events.fired").total()
        assert fired == hooked.processed

    def test_cancel_heavy_cascade_counts_once_on_every_path(self):
        """Plain, profiled and invariant-checked runs count the same
        events, and what the workload itself counted."""
        totals = []
        for observe in ("plain", "profiled", "checked"):
            order = []
            sim = Simulation()
            profiler = PhaseProfiler() if observe == "profiled" else None
            telemetry = Telemetry(simulation=sim, profiler=profiler)
            if observe == "checked":
                InvariantChecker().attach(sim)
            self._workload(sim, order)
            sim.run()
            totals.append(_event_totals(telemetry))
        # The 100 seeds, plus a follow-up from each of the first 1,999
        # fires; every third of those fires also schedules and cancels.
        fired, cancels = 100 + 1_999, 1_999 // 3
        assert totals[0] == totals[1] == totals[2]
        assert totals[0] == (fired + cancels, fired, cancels)

    @pytest.mark.parametrize("profile_id", ["C16", "C17"])
    def test_profile_counts_match_with_profiler_and_validation(
        self, profile_id
    ):
        plain = Telemetry()
        profiles.run(profile_id, plain)
        profiled = Telemetry(profiler=PhaseProfiler())
        profiles.run(profile_id, profiled)
        result, checker = run_validated(profile_id)
        assert checker.ok, checker.summary()
        assert _event_totals(plain) == _event_totals(profiled)
        assert _event_totals(plain) == _event_totals(result.telemetry)
        if profile_id == "C17":
            assert _event_totals(plain) == (937.0, 915.0, 21.0)

    def test_disabled_tracer_adds_no_events(self):
        sim = Simulation()
        telemetry = Telemetry(simulation=sim)
        telemetry.tracer.enabled = False
        before = sim.pending
        with telemetry.tracer.span("nothing", "kernel"):
            telemetry.tracer.instant("nope", "kernel", 0.0)
        assert len(telemetry.tracer) == 0
        assert sim.pending == before
