"""PhaseProfiler, StackSampler, exports and the profiling kernel probe."""

import functools
import json
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.core.events import Event, Simulation
from repro.observability import (
    PHASE_DISPATCH,
    PHASE_RUN,
    PHASE_TELEMETRY,
    PhaseProfiler,
    ProfilingKernelProbe,
    StackSampler,
    Telemetry,
    callback_label,
    collapsed_stack_lines,
    parse_collapsed,
    profile_report,
    timed,
    write_chrome_trace,
    write_collapsed,
)
from repro.observability import profiler as profiler_module
from repro.observability.profiler import LATENCY_BUCKETS, REPORT_SCHEMA


def _dispatch(profiler, label, seconds):
    """Fire one event labelled ``label`` through the profiling kernel
    probe, with a stub clock that makes its callback take ``seconds``."""
    probe = ProfilingKernelProbe(Telemetry(profiler=profiler))
    ticks = iter((0.0, seconds))
    probe._clock = lambda: next(ticks)

    def callback():
        pass

    callback.__qualname__ = label
    event = Event(time=0.0, sequence=0, callback=callback)
    probe.on_fire_start(None, event)
    probe.on_fire(None, event)


class TestTimed:
    def test_no_profiler_returns_the_function_itself(self):
        def work():
            pass

        assert timed(None, PHASE_RUN, work) is work

    def test_charges_each_call_and_passes_arguments_through(self):
        profiler = PhaseProfiler()
        sleep = timed(profiler, PHASE_RUN, lambda seconds, scale=1: (
            time.sleep(seconds * scale) or "done"
        ))
        assert sleep(0.001, 2) == "done"
        assert sleep(0.0) == "done"
        assert profiler.seconds(PHASE_RUN) >= 0.002
        assert profiler.calls(PHASE_RUN) == 2

    def test_charges_even_when_the_call_raises(self):
        profiler = PhaseProfiler()

        def risky():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            timed(profiler, "risky", risky)()
        assert profiler.calls("risky") == 1


class TestPhaseProfiler:
    def test_add_accumulates_seconds_and_calls(self):
        profiler = PhaseProfiler()
        profiler.add("solve", 0.5)
        profiler.add("solve", 0.25, calls=3)
        assert profiler.seconds("solve") == pytest.approx(0.75)
        assert profiler.calls("solve") == 4
        assert profiler.seconds("never") == 0.0
        assert profiler.calls("never") == 0

    def test_dispatched_events_feed_the_derived_dispatch_phase(self):
        profiler = PhaseProfiler()
        _dispatch(profiler, "A.tick", 0.1)
        _dispatch(profiler, "A.tick", 0.2)
        _dispatch(profiler, "B.fire", 0.4)
        assert profiler.seconds(PHASE_DISPATCH) == pytest.approx(0.7)
        assert profiler.calls(PHASE_DISPATCH) == 3
        assert profiler.phases[PHASE_DISPATCH] == (pytest.approx(0.7), 3)
        # Directly-charged dispatch time adds on top of the derived total.
        profiler.add(PHASE_DISPATCH, 0.3)
        assert profiler.seconds(PHASE_DISPATCH) == pytest.approx(1.0)
        assert profiler.calls(PHASE_DISPATCH) == 4

    def test_event_table_ranks_hottest_first(self):
        profiler = PhaseProfiler()
        _dispatch(profiler, "cold", 0.1)
        _dispatch(profiler, "hot", 0.4)
        _dispatch(profiler, "hot", 0.4)
        table = profiler.event_table()
        assert [row[0] for row in table] == ["hot", "cold"]
        name, seconds, calls, mean = table[0]
        assert seconds == pytest.approx(0.8)
        assert calls == 2
        assert mean == pytest.approx(0.4)

    def test_phase_table_breaks_ties_by_name(self):
        profiler = PhaseProfiler()
        profiler.add("b", 0.0, calls=1)
        profiler.add("a", 0.0, calls=1)
        assert [row[0] for row in profiler.phase_table()] == ["a", "b"]

    def test_event_latency_histogram_buckets_by_bound(self):
        profiler = PhaseProfiler()
        # One event per bucket: half of each bound, then past the last.
        for seconds in [b / 2 for b in LATENCY_BUCKETS] + [2.0]:
            _dispatch(profiler, "x", seconds)
        assert profiler.event_latency("x") == [1] * (len(LATENCY_BUCKETS) + 1)
        assert profiler.event_latency("missing") == (
            [0] * (len(LATENCY_BUCKETS) + 1)
        )

    def test_event_slot_is_the_live_accumulator(self):
        profiler = PhaseProfiler()
        slot = profiler.event_slot("x")
        slot[0] += 0.25
        slot[1] += 1
        slot[2] += 1
        assert profiler.seconds(PHASE_DISPATCH) == pytest.approx(0.25)
        assert profiler.event_latency("x")[0] == 1
        assert profiler.event_slot("x") is slot

    def test_clear_resets_and_bumps_the_generation(self):
        profiler = PhaseProfiler(detail=True)
        profiler.add("solve", 0.5)
        _dispatch(profiler, "x", 0.1)
        generation = profiler.generation
        profiler.clear()
        assert profiler.generation == generation + 1
        assert profiler.phases == {}
        assert profiler.event_table() == []
        assert profiler.tracer.spans == []

    def test_detail_records_are_capped(self, monkeypatch):
        monkeypatch.setattr(profiler_module, "MAX_DETAIL_RECORDS", 2)
        profiler = PhaseProfiler(detail=True)
        for _ in range(5):
            profiler.add("solve", 0.001)
        assert len(profiler.tracer.spans) == 2
        assert profiler.records_dropped == 3
        profiler.clear()
        assert profiler.records_dropped == 0

    def test_without_detail_nothing_is_recorded(self):
        profiler = PhaseProfiler()
        profiler.add("solve", 0.001)
        _dispatch(profiler, "x", 0.001)
        assert profiler.tracer.spans == []


class TestCallbackLabel:
    def test_function_and_method_use_qualname(self):
        def tick():
            pass

        assert callback_label(tick).endswith("tick")
        profiler = PhaseProfiler()
        assert callback_label(profiler.clear) == "PhaseProfiler.clear"

    def test_partial_unwraps_to_its_target(self):
        def fire(x):
            pass

        assert callback_label(functools.partial(fire, 1)).endswith("fire")

    def test_fallback_is_the_type_name(self):
        assert callback_label(object()) == "object"


class TestProfilingKernelProbe:
    def _run(self, profiler):
        simulation = Simulation()
        telemetry = Telemetry(simulation=simulation, profiler=profiler)
        fired = []
        for delay in (1.0, 2.0, 3.0):
            simulation.schedule(delay, lambda: fired.append(1))
        simulation.schedule(4.0, functools.partial(fired.append, 2))
        simulation.run()
        return telemetry, fired

    def test_enabled_profiler_selects_the_profiling_probe(self):
        simulation = Simulation()
        telemetry = Telemetry(simulation=simulation, profiler=PhaseProfiler())
        assert isinstance(simulation._hooks, ProfilingKernelProbe)

    def test_no_profiler_times_nothing_and_still_counts(self):
        telemetry, fired = self._run(None)
        assert fired == [1, 1, 1, 2]
        assert telemetry.simulation.hooks is None  # no per-event hook
        assert telemetry.metrics.get("sim.events.fired").total() == 4.0
        assert telemetry.metrics.get("sim.events.scheduled").total() == 4.0

    def test_events_are_timed_and_counted(self):
        profiler = PhaseProfiler()
        telemetry, fired = self._run(profiler)
        assert fired == [1, 1, 1, 2]
        assert telemetry.metrics.get("sim.events.fired").total() == 4.0
        assert profiler.calls(PHASE_DISPATCH) == 4
        labels = [row[0] for row in profiler.event_table()]
        assert any("<lambda>" in label for label in labels)
        assert any("append" in label for label in labels)
        total = sum(sum(profiler.event_latency(label)) for label in labels)
        assert total == 4

    def test_probe_requires_a_profiler(self):
        with pytest.raises(ValueError, match="requires telemetry.profiler"):
            ProfilingKernelProbe(Telemetry())

    def test_clear_mid_run_invalidates_cached_slots(self):
        profiler = PhaseProfiler()
        simulation = Simulation()
        Telemetry(simulation=simulation, profiler=profiler)
        simulation.schedule(1.0, lambda: None)
        simulation.schedule(2.0, profiler.clear)
        simulation.schedule(3.0, lambda: None)
        simulation.run()
        # The clear lands mid-callback, so the clear event's own dispatch
        # and the post-clear event remain attributed; the pre-clear one
        # (and the probe's stale slot references) are gone.
        assert profiler.calls(PHASE_DISPATCH) == 2

    def test_sampler_cost_lands_on_the_telemetry_phase(self):
        profiler = PhaseProfiler()
        simulation = Simulation()
        telemetry = Telemetry(simulation=simulation, profiler=profiler)
        seen = []
        telemetry.sample_every(simulation, 1.0, seen.append)
        simulation.schedule(3.5, lambda: None)
        simulation.run()
        assert len(seen) >= 3
        assert profiler.calls(PHASE_TELEMETRY) == len(seen)

    def test_sampler_without_a_profiler_runs_the_function_itself(self):
        simulation = Simulation()
        telemetry = Telemetry(simulation=simulation)
        seen = []
        sampler = telemetry.sample_every(simulation, 1.0, seen.append)
        assert sampler.fn == seen.append


def _busy_wait(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestStackSampler:
    def test_samples_the_calling_thread(self):
        with StackSampler(interval=0.001) as sampler:
            _busy_wait(0.1)
        assert sampler.samples > 0
        frames = [frame for frame, _ in sampler.top_frames(50)]
        assert any("_busy_wait" in frame for frame in frames)

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            StackSampler(interval=0.0)

    def test_double_start_is_rejected(self):
        sampler = StackSampler(interval=0.01).start()
        try:
            with pytest.raises(ConfigurationError, match="already started"):
                sampler.start()
        finally:
            sampler.stop()
        sampler.stop()  # idempotent


class TestCollapsedStacks:
    COUNTS = {("main", "solve"): 3, ("main", "route", "lookup"): 1}

    def test_lines_round_trip(self):
        lines = collapsed_stack_lines(self.COUNTS)
        assert lines == ["main;route;lookup 1", "main;solve 3"]
        assert parse_collapsed(lines) == self.COUNTS

    def test_write_collapsed(self, tmp_path):
        path = write_collapsed(self.COUNTS, tmp_path / "stacks.folded")
        assert parse_collapsed(path.read_text().splitlines()) == self.COUNTS

    def test_parse_rejects_missing_or_bad_counts(self):
        with pytest.raises(ValueError, match="no sample count"):
            parse_collapsed(["lonely"])
        with pytest.raises(ValueError, match="non-integer count"):
            parse_collapsed(["main;solve x"])

    def test_parse_skips_blank_lines_and_merges_duplicates(self):
        counts = parse_collapsed(["", "a;b 1", "a;b 2"])
        assert counts == {("a", "b"): 3}


class TestChromeTrace:
    def test_detail_records_become_per_phase_complete_events(self, tmp_path):
        profiler = PhaseProfiler(detail=True)
        timed(profiler, "fabric.congestion_solve", time.sleep)(0.001)
        _dispatch(profiler, "A.tick", 0.002)
        path = write_chrome_trace(profiler.tracer, tmp_path / "wall.json")
        trace = json.loads(path.read_text())["traceEvents"]
        events = [e for e in trace if e["ph"] == "X"]
        assert [e["cat"] for e in events] == [
            "fabric.congestion_solve", PHASE_DISPATCH,
        ]
        assert events[0]["dur"] >= 1000  # microseconds
        assert events[1]["dur"] == pytest.approx(2000)
        assert len({e["tid"] for e in events}) == 2
        tracks = {e["args"]["name"] for e in trace if e["ph"] == "M"}
        assert tracks == {"fabric.congestion_solve", PHASE_DISPATCH}


class TestProfileReport:
    def test_report_names_phases_events_and_latency(self):
        profiler = PhaseProfiler()
        profiler.add(PHASE_RUN, 1.0)
        _dispatch(profiler, "A.tick", 0.05)
        sampler = StackSampler(interval=0.001)
        with sampler:
            _busy_wait(0.02)
        report = profile_report(profiler, sampler, name="C16", top=5)
        assert report["schema"] == REPORT_SCHEMA
        assert report["name"] == "C16"
        # Dispatch runs inside profile.run: counted once, in the root.
        assert report["wall_seconds_attributed"] == pytest.approx(1.0)
        assert [p["phase"] for p in report["phases"]] == [
            PHASE_RUN, PHASE_DISPATCH,
        ]
        assert report["event_types"][0]["name"] == "A.tick"
        assert report["event_latency_buckets"] == LATENCY_BUCKETS
        assert report["event_latency"]["A.tick"] == [0, 0, 0, 0, 0, 1, 0, 0]
        assert report["sample_interval_seconds"] == 0.001
        assert report["stack_samples"] == sampler.samples
        json.dumps(report)

    def test_report_without_a_sampler_omits_stack_fields(self):
        report = profile_report(PhaseProfiler())
        assert "top_frames" not in report
        assert report["phases"] == []
