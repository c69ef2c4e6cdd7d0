"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.events import Simulation


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulation().now == 0.0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulation()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulation().schedule(-1.0, lambda: None)

    def test_schedule_into_past_raises(self):
        sim = Simulation()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_times_raise_naming_the_value(self):
        sim = Simulation()
        nan = float("nan")
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_many([(1.0, lambda: None), (nan, lambda: None)])
        # Nothing was queued or counted; the clock stays a number.
        assert sim.pending == 0
        assert sim.event_counts == (0, 0, 0)
        sim.schedule(1.0, lambda: None)
        assert sim.run() == 1.0
        assert sim.processed == 1

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(2.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_equal_times_fire_fifo(self):
        sim = Simulation()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_nested_scheduling(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(event)  # must not raise

    def test_pending_excludes_cancelled(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.schedule(100.0, lambda: None)
        final = sim.run(until=10.0)
        assert final == 10.0
        assert sim.pending == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulation()
        assert sim.run(until=42.0) == 42.0

    def test_max_events_limits_firing(self):
        sim = Simulation()
        fired = []
        for index in range(5):
            sim.schedule(float(index + 1), lambda i=index: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulation().step() is False

    def test_processed_counts_events(self):
        sim = Simulation()
        for index in range(3):
            sim.schedule(float(index), lambda: None)
        sim.run()
        assert sim.processed == 3


class TestPropertyBased:
    @given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_fires_in_nondecreasing_time_order(self, delays):
        sim = Simulation()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_clock_ends_at_latest_event(self, delays):
        sim = Simulation()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        final = sim.run()
        assert final == pytest.approx(max(delays))


class TestPendingCounter:
    """`pending` is an O(1) live-event counter, not a heap scan."""

    def test_schedule_and_fire_update_pending(self):
        sim = Simulation()
        events = [sim.schedule(float(i), lambda: None) for i in range(3)]
        assert sim.pending == 3
        sim.step()
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0
        assert all(e.fired for e in events)

    def test_cancel_decrements_once(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)  # double cancel is a no-op
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(event)
        assert sim.pending == 0
        assert not event.cancelled


class TestDaemonEvents:
    def test_daemon_events_do_not_count_as_pending(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None, daemon=True)
        assert sim.pending == 0

    def test_unbounded_run_stops_when_only_daemons_remain(self):
        sim = Simulation()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert ticks == [1.0, 2.0]
        assert sim.now == 2.5

    def test_bounded_run_fires_daemons_to_the_horizon(self):
        sim = Simulation()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.now == 3.5


class TestHooks:
    def test_hooks_observe_schedule_fire_cancel(self):
        from repro.core.events import SimulationHooks

        seen = []

        class Recorder(SimulationHooks):
            def on_schedule(self, simulation, event):
                seen.append(("schedule", event.time))

            def on_fire(self, simulation, event):
                seen.append(("fire", event.time))

            def on_cancel(self, simulation, event):
                seen.append(("cancel", event.time))

        sim = Simulation()
        sim.set_hooks(Recorder())
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        sim.run()
        assert seen == [
            ("schedule", 1.0), ("schedule", 2.0), ("cancel", 2.0), ("fire", 1.0),
        ]
        assert sim.hooks is not None
        sim.set_hooks(None)
        assert sim.hooks is None
        assert keep.fired

    def test_on_cancel_not_called_for_noop_cancels(self):
        from repro.core.events import SimulationHooks

        cancels = []

        class Recorder(SimulationHooks):
            def on_cancel(self, simulation, event):
                cancels.append(event)

        sim = Simulation()
        sim.set_hooks(Recorder())
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()
        sim.cancel(event)
        assert len(cancels) == 1


class TestEventFastPath:
    """The __slots__ Event must keep dataclass(order=True) semantics."""

    def test_slots_no_instance_dict(self):
        from repro.core.events import Event

        event = Event(time=1.0, sequence=0, callback=lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_ordering_by_time_then_sequence(self):
        from repro.core.events import Event

        callback = lambda: None  # noqa: E731
        early = Event(time=1.0, sequence=5, callback=callback)
        late = Event(time=2.0, sequence=0, callback=callback)
        tied = Event(time=1.0, sequence=6, callback=callback)
        assert early < late and late > early
        assert early < tied and early <= tied and tied >= early
        assert early == Event(time=1.0, sequence=5, callback=lambda: None)
        assert early != tied
        assert early.__eq__(object()) is NotImplemented

    def test_unhashable_like_ordered_dataclass(self):
        from repro.core.events import Event

        event = Event(time=1.0, sequence=0, callback=lambda: None)
        with pytest.raises(TypeError):
            hash(event)

    def test_repr_round_trips_fields(self):
        from repro.core.events import Event

        event = Event(time=1.5, sequence=3, callback=None, daemon=True)
        assert "time=1.5" in repr(event) and "daemon=True" in repr(event)


class TestScheduleMany:
    def test_fifo_matches_schedule_at(self):
        entries = [(0.5, "b"), (0.25, "a"), (0.5, "c"), (0.0, "z")]

        def run(batched):
            sim = Simulation()
            fired = []
            pairs = [
                (time, (lambda t=tag: fired.append(t)))
                for time, tag in entries
            ]
            if batched:
                sim.schedule_many(pairs)
            else:
                for time, callback in pairs:
                    sim.schedule_at(time, callback)
            sim.run()
            return fired

        assert run(batched=True) == run(batched=False) == ["z", "a", "b", "c"]

    def test_large_batch_heapifies_in_order(self):
        # Large enough relative to the queue to take the heapify branch.
        sim = Simulation()
        fired = []
        count = 500
        sim.schedule_many(
            ((count - i) * 1e-3, (lambda i=i: fired.append(i)))
            for i in range(count)
        )
        sim.run()
        assert fired == list(range(count - 1, -1, -1))
        assert sim.processed == count

    def test_small_batch_onto_big_queue_pushes(self):
        # A tiny batch over a deep queue takes the push branch; ordering and
        # FIFO tie-breaks against pre-existing events must hold either way.
        sim = Simulation()
        fired = []
        for i in range(256):
            sim.schedule_at(1.0, lambda i=i: fired.append(("old", i)))
        sim.schedule_many([(1.0, lambda: fired.append(("new", 0)))])
        sim.run()
        assert fired[-1] == ("new", 0)
        assert fired[:3] == [("old", 0), ("old", 1), ("old", 2)]

    def test_validation_is_all_or_nothing(self):
        sim = Simulation()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.schedule_many([(2.0, lambda: None), (0.5, lambda: None)])
        assert sim.pending == 0  # nothing from the bad batch was queued

    def test_empty_batch(self):
        sim = Simulation()
        assert sim.schedule_many([]) == []
        assert sim.pending == 0

    def test_daemon_batches_do_not_keep_the_run_alive(self):
        sim = Simulation()
        fired = []
        sim.schedule_many(
            [(t, lambda t=t: fired.append(t)) for t in (1.0, 2.0)], daemon=True
        )
        sim.schedule_at(1.5, lambda: fired.append("work"))
        assert sim.pending == 1
        sim.run()
        assert fired == [1.0, "work"]  # stops once only daemons remain

    def test_hooks_observe_each_batched_event(self):
        from repro.core.events import SimulationHooks

        seen = []

        class Recorder(SimulationHooks):
            def on_schedule(self, simulation, event):
                seen.append(event.time)

        sim = Simulation()
        sim.set_hooks(Recorder())
        sim.schedule_many([(1.0, lambda: None), (2.0, lambda: None)])
        assert seen == [1.0, 2.0]

    def test_returned_events_are_cancellable(self):
        sim = Simulation()
        fired = []
        events = sim.schedule_many(
            [(1.0, lambda: fired.append(1)), (2.0, lambda: fired.append(2))]
        )
        sim.cancel(events[1])
        sim.run()
        assert fired == [1]

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=0, max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_batched_equals_sequential(self, times):
        def run(batched):
            sim = Simulation()
            order = []
            pairs = [
                (time, (lambda k=k: order.append(k)))
                for k, time in enumerate(times)
            ]
            if batched:
                sim.schedule_many(pairs)
            else:
                for time, callback in pairs:
                    sim.schedule_at(time, callback)
            sim.run()
            return order

        assert run(batched=True) == run(batched=False)


class TestPublisher:
    """The one call made whenever a run or a step returns."""

    def test_run_publishes_once_at_its_end(self):
        sim = Simulation()
        seen = []
        sim.set_publisher(lambda s: seen.append((s.now, s.processed)))
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert seen == [(3.0, 3)]

    def test_each_step_publishes_even_on_an_empty_queue(self):
        sim = Simulation()
        seen = []
        sim.set_publisher(lambda s: seen.append(s.processed))
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False
        assert seen == [1, 1]

    def test_publishes_when_a_callback_raises(self):
        sim = Simulation()
        seen = []
        sim.set_publisher(lambda s: seen.append(s.now))

        def boom():
            raise RuntimeError("boom")

        sim.schedule(2.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == [2.0]

    def test_setting_replaces_and_none_clears(self):
        sim = Simulation()
        first, second = [], []
        sim.set_publisher(first.append)
        sim.set_publisher(second.append)
        sim.run()
        sim.set_publisher(None)
        sim.run()
        assert first == [] and second == [sim]
