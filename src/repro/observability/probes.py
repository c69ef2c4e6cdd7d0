"""Probes: the `Telemetry` facade and ready-made instrumentation hooks.

:class:`Telemetry` bundles one :class:`~repro.observability.tracer.Tracer`
and one :class:`~repro.observability.metrics.MetricsRegistry` — the single
object instrumented subsystems accept (``telemetry: Optional[Telemetry]``)
and test before every recording call. The overhead contract: a subsystem
holding ``telemetry=None`` pays exactly one ``is not None`` test per
instrumented operation; the simulation kernel with no hooks attached
behaves bit-identically to the unhooked seed kernel.

The kernel counts its own scheduled, fired and cancelled events;
:class:`Telemetry` publishes them as ``sim.events.*`` counters each time
the bound simulation's ``run()``/``step()`` returns, so a plain run pays
no per-event hook.  :class:`ProfilingKernelProbe` implements the
kernel's :class:`~repro.core.events.SimulationHooks` protocol to time
every callback; attach helpers wire periodic samplers for the three
instrumented layers (cluster queues, fabric links, federation WAN).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Optional

from repro.core.events import Event, Simulation, SimulationHooks
from repro.observability.metrics import MetricsRegistry, PeriodicSampler
from repro.observability.profiler import (
    LATENCY_BUCKETS,
    PHASE_DISPATCH,
    PHASE_TELEMETRY,
    PhaseProfiler,
    callback_label,
    timed,
)
from repro.observability.tracer import Tracer

#: Span categories used by the built-in instrumentation.
CATEGORY_KERNEL = "kernel"
CATEGORY_QUEUE = "queue"
CATEGORY_JOB = "job"
CATEGORY_FLOW = "flow"
CATEGORY_WAN = "wan"
CATEGORY_CONGESTION = "congestion"
CATEGORY_FAULT = "fault"


class Telemetry:
    """One tracer plus one metrics registry, shared by an instrumented run.

    Parameters
    ----------
    simulation:
        When given, the tracer's clock reads ``simulation.now`` and the
        kernel's event counts are published as ``sim.events.scheduled``,
        ``.fired`` and ``.cancelled`` each time its ``run()`` or
        ``step()`` returns (counting from the binding on).
    tracer / metrics:
        Pre-built components to share; fresh ones are created by default.
    profiler:
        An optional :class:`~repro.observability.profiler.PhaseProfiler`;
        None (the default) is the only way to switch profiling off.
        When given, a :class:`ProfilingKernelProbe` is attached to the
        kernel's hooks: it brackets every event callback
        with ``time.perf_counter`` and charges the wall latency to the
        profiler's dispatch phase, keyed by the callback's qualified
        name; periodic samplers started through :meth:`sample_every`
        charge their own cost to the ``telemetry`` phase.
    """

    def __init__(
        self,
        simulation: Optional[Simulation] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        clock = (lambda: simulation.now) if simulation is not None else None
        # `or` would discard an empty tracer/registry (both define __len__).
        self.tracer = tracer if tracer is not None else Tracer(clock=clock)
        if tracer is not None and tracer.clock is None and clock is not None:
            tracer.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self.simulation = simulation
        self._samplers: list[PeriodicSampler] = []
        if simulation is not None:
            self._observe(simulation)

    def _observe(self, simulation: Simulation) -> None:
        simulation.set_publisher(_KernelCounts(self.metrics, simulation))
        if self.profiler is not None:
            simulation.set_hooks(ProfilingKernelProbe(self))

    def bind_simulation(self, simulation: Simulation) -> None:
        """Late-bind a simulation: sets the tracer clock and kernel counts.

        No-op if a simulation is already bound — the first binding wins,
        so a telemetry object shared across components observes one clock.
        """
        if self.simulation is not None:
            return
        self.simulation = simulation
        if self.tracer.clock is None:
            self.tracer.clock = lambda: simulation.now
        self._observe(simulation)

    # --- convenience pass-throughs ---------------------------------------------

    def counter(self, name: str, description: str = ""):
        """Shorthand for ``telemetry.metrics.counter``."""
        return self.metrics.counter(name, description)

    def gauge(self, name: str, description: str = ""):
        """Shorthand for ``telemetry.metrics.gauge``."""
        return self.metrics.gauge(name, description)

    def histogram(self, name: str, buckets, description: str = ""):
        """Shorthand for ``telemetry.metrics.histogram``."""
        return self.metrics.histogram(name, buckets, description)

    def sample_every(
        self,
        simulation: Simulation,
        period: float,
        fn: Callable[[float], None],
        keepalive: bool = False,
        delay: Optional[float] = None,
    ) -> PeriodicSampler:
        """Start (and track) a :class:`PeriodicSampler` on ``simulation``.

        When a profiler is attached, the sampler's own wall cost is
        charged to the ``telemetry`` phase so self-observation shows up
        in the profile instead of polluting the dispatch numbers.
        """
        fn = timed(self.profiler, PHASE_TELEMETRY, fn)
        sampler = PeriodicSampler(simulation, period, fn, keepalive=keepalive)
        sampler.start(delay=delay)
        self._samplers.append(sampler)
        return sampler

    def stop_samplers(self) -> None:
        """Stop every sampler started through :meth:`sample_every`."""
        for sampler in self._samplers:
            sampler.stop()


class _KernelCounts:
    """Publishes a kernel's own event counts as ``sim.events.*`` counters.

    The bound simulation calls it whenever ``run()``/``step()`` returns;
    it adds what the kernel counted since the last call.  The counters
    are created at binding, as the per-event probe this replaces did, and
    a series first appears with its first non-zero count.
    """

    __slots__ = ("counters", "published")

    def __init__(self, metrics: MetricsRegistry, simulation: Simulation) -> None:
        self.counters = (
            metrics.counter(
                "sim.events.scheduled", "events pushed onto the kernel queue"
            ),
            metrics.counter("sim.events.fired", "events whose callback ran"),
            metrics.counter(
                "sim.events.cancelled", "live events cancelled before firing"
            ),
        )
        self.published = simulation.event_counts

    def __call__(self, simulation: Simulation) -> None:
        counts = simulation.event_counts
        for counter, count, published in zip(
            self.counters, counts, self.published
        ):
            if count != published:
                counter.inc(count - published)
        self.published = counts


class ProfilingKernelProbe(SimulationHooks):
    """Kernel hooks that time every event callback.

    :meth:`on_fire_start` captures ``time.perf_counter`` just before the
    kernel runs the callback; :meth:`on_fire` measures the elapsed wall
    time *first* (so label computation never inflates the interval), then
    charges it to the profiler's dispatch phase under the callback's
    qualified name.  It counts nothing: the kernel counts its own events.

    Accumulator slots are cached by the callback's code object — the
    thousand distinct lambdas a run schedules share one code object per
    source lambda, so :func:`~repro.observability.profiler.callback_label`
    and the profiler's dict lookups (the expensive parts of the probe) run
    once per call *site*; the per-event path is two ``perf_counter`` calls,
    two list updates and a bisect.
    ``tests/observability/test_profiler_tax.py`` gates the result.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        if telemetry.profiler is None:
            raise ValueError("ProfilingKernelProbe requires telemetry.profiler")
        self._profiler = telemetry.profiler
        self._start = 0.0
        self._clock = time.perf_counter
        self._slots: dict = {}
        self._generation = self._profiler.generation

    def on_fire_start(self, simulation: Simulation, event: Event) -> None:
        self._start = self._clock()

    def on_fire(self, simulation: Simulation, event: Event) -> None:
        elapsed = self._clock() - self._start
        profiler = self._profiler
        if profiler.generation != self._generation:
            # The profiler was cleared; drop the stale slot references.
            self._slots.clear()
            self._generation = profiler.generation
        callback = event.callback
        try:
            key = callback.__code__
        except AttributeError:
            inner = getattr(callback, "func", None)  # functools.partial
            key = (
                getattr(inner, "__code__", None) if inner is not None else None
            ) or type(callback)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = profiler.event_slot(
                callback_label(callback)
            )
        slot[0] += elapsed
        slot[1] += 1
        slot[2 + bisect_left(LATENCY_BUCKETS, elapsed)] += 1
        if profiler.detail:
            profiler._record(PHASE_DISPATCH, elapsed)


def attach_cluster_sampler(
    telemetry: Telemetry,
    cluster,
    period: float,
    keepalive: bool = False,
) -> PeriodicSampler:
    """Sample a cluster's queue depth and free devices every ``period`` s.

    Writes gauges ``cluster.queue_depth`` / ``cluster.free_devices``
    (labelled by site and device) and mirrors the queue depth into the
    tracer as a counter track, so the trace viewer shows backlog over the
    same timeline as the job spans.
    """
    depth = telemetry.gauge("cluster.queue_depth", "jobs waiting in the queue")
    free = telemetry.gauge("cluster.free_devices", "idle devices in the pool")
    site = cluster.site.name
    device = cluster.device.name

    def take(now: float) -> None:
        depth.set(cluster.queue_depth, site=site, device=device)
        free.set(cluster.free_devices, site=site, device=device)
        telemetry.tracer.sample(
            f"queue_depth:{site}/{device}", now, depth=cluster.queue_depth
        )

    return telemetry.sample_every(
        cluster.simulation, period, take, keepalive=keepalive
    )
