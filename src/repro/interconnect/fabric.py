"""Flow-level network fabric simulator.

Packet-level simulation of a system-scale fabric is intractable in pure
Python, and unnecessary: the paper's congestion and topology claims concern
*flow-completion times* (and their tails) under sustained load. Links are
**full duplex** — capacity is tracked per traversal direction, so opposing
flows never contend. This module simulates at flow granularity with
**progressive filling**:

1. compute max-min fair rates for all active flows over the topology's
   link capacities (water-filling),
2. let the installed congestion-management policy adjust aggressor and
   victim rates,
3. advance simulated time to the next flow arrival or completion,
4. repeat until all flows finish.

Outputs are per-flow :class:`FlowStats` with completion times, from which
benchmark harnesses compute mean/p99 FCT, goodput and slowdown.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RandomSource
from repro.interconnect.congestion import CongestionManager, NoCongestionControl
from repro.interconnect.ratesolver import (
    CONGESTION_BACKLOG_THRESHOLD,
    MIN_CONTENDERS_FOR_CONGESTION,
    RateSolver,
    resolve_solver,
)
from repro.interconnect.routecache import (
    RouteCache,
    invalidate_route_cache,
    route_cache_for,
)
from repro.interconnect.routing import Path, minimal_route, valiant_route
from repro.interconnect.topology import Topology
from repro.observability.metrics import exponential_buckets
from repro.observability.probes import (
    CATEGORY_CONGESTION,
    CATEGORY_FAULT,
    CATEGORY_FLOW,
    Telemetry,
)
from repro.observability.profiler import (
    PHASE_CONGESTION,
    PHASE_ROUTING,
    PHASE_TELEMETRY,
)

#: Bucket bounds (seconds) for the flow-completion-time histogram:
#: 1 us .. 100 s in decades, covering mice on a rack and elephants on a WAN.
FCT_BUCKETS = exponential_buckets(1e-6, 10.0, 9)

_flow_ids = itertools.count()

# MIN_CONTENDERS_FOR_CONGESTION and CONGESTION_BACKLOG_THRESHOLD moved to
# :mod:`repro.interconnect.ratesolver` with the water-filling algorithm; the
# imports above re-export them here for backwards compatibility.


@dataclass
class Flow:
    """One network flow: ``size`` bytes from ``source`` to ``destination``.

    ``start_time`` is the arrival time into the network; ``tag`` is free-form
    (benchmarks use ``'victim'``/``'aggressor'``).
    """

    source: str
    destination: str
    size: float
    start_time: float = 0.0
    tag: str = ""
    flow_id: int = field(default_factory=lambda: next(_flow_ids))

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"flow size must be positive: {self.size}")
        if self.start_time < 0:
            raise ConfigurationError("start_time must be non-negative")


@dataclass(frozen=True)
class FlowStats:
    """Result of one simulated flow.

    ``dropped`` marks flows killed by a link failure that left no path to
    the destination; for those, ``delivered`` holds the bytes that made it
    before the cut (``-1`` is the not-dropped sentinel meaning all of
    ``size`` arrived — see :attr:`delivered_bytes`).
    """

    flow_id: int
    tag: str
    size: float
    start_time: float
    finish_time: float
    path_hops: int
    propagation_delay: float
    extra_queueing: float
    dropped: bool = False
    delivered: float = -1.0

    @property
    def delivered_bytes(self) -> float:
        """Bytes that reached the destination (== ``size`` unless dropped)."""
        return self.size if self.delivered < 0 else self.delivered

    @property
    def completion_time(self) -> float:
        """Flow completion time (FCT), seconds."""
        return self.finish_time - self.start_time

    def slowdown(self, baseline_bandwidth: float) -> float:
        """FCT normalised to the ideal time on an empty network."""
        ideal = self.size / baseline_bandwidth + self.propagation_delay
        return self.completion_time / ideal


@dataclass(frozen=True)
class LinkEvent:
    """A scheduled link state change for :meth:`FabricSimulator.run`.

    The undirected ``link`` (an ``(u, v)`` edge of the topology) goes down
    (``up=False``) or comes back (``up=True``) at ``time``. Build these by
    hand or from a fault campaign via
    :func:`repro.resilience.recovery.link_events_from_timeline`.
    """

    time: float
    link: Tuple[str, str]
    up: bool = False


#: Sentinel distinguishing "not passed" from any real argument value in the
#: positional-compatibility shim.
_UNSET = object()

#: Legacy positional parameter order of ``FabricSimulator.__init__`` (before
#: configuration became keyword-only).
_POSITIONAL_CONFIG = ("congestion", "routing", "reroute_adaptively", "rng", "telemetry")


class FabricSimulator:
    """Progressive-filling flow simulator over a :class:`Topology`.

    All configuration is keyword-only; passing it positionally still works
    but emits a :class:`DeprecationWarning`.

    Parameters
    ----------
    topology:
        The network to simulate.
    congestion:
        Congestion-management policy; defaults to none (the worst case).
    routing:
        ``'minimal'`` or ``'valiant'`` (adaptive per-interval rerouting is
        approximated by ``reroute_adaptively=True``).
    reroute_adaptively:
        When True, flows crossing a saturated link are re-routed via a
        Valiant detour at the next rate computation — a coarse model of
        per-packet adaptive routing.
    telemetry:
        Optional :class:`~repro.observability.probes.Telemetry`; when set,
        the simulator records per-flow spans and an FCT histogram,
        per-link byte counters, and congestion-onset events. The fabric
        keeps its own clock, so all trace timestamps are explicit.
    cache_routes:
        Use the topology's shared :class:`~repro.interconnect.routecache.RouteCache`
        for minimal routes, link decompositions, propagation delays and the
        link-capacity map. Caching is behaviour-preserving (results are
        bit-identical); disable it only to measure its effect.
    solver:
        The max-min rate solver: a registry name (``"indexed"``,
        ``"reference"``, ``"numpy"``), a
        :class:`~repro.interconnect.ratesolver.RateSolver` instance, or
        ``None`` for the process default, ``"indexed"`` unless changed by
        :func:`~repro.interconnect.ratesolver.set_default_solver`.  All
        registered solvers are bit-identical; ``"reference"`` is the
        oracle, and the opt-in ``"numpy"`` is slower than ``"indexed"``
        at every measured concurrency (see ``docs/performance.md``).
        Overriding ``_max_min_rates``/``_adjusted_rates_impl`` in a
        subclass still works but is deprecated in favour of registering a
        solver.
    """

    def __init__(
        self,
        topology: Topology,
        *args: object,
        congestion: object = _UNSET,
        routing: object = _UNSET,
        reroute_adaptively: object = _UNSET,
        rng: object = _UNSET,
        telemetry: object = _UNSET,
        cache_routes: bool = True,
        solver: object = None,
    ) -> None:
        config = {
            "congestion": congestion,
            "routing": routing,
            "reroute_adaptively": reroute_adaptively,
            "rng": rng,
            "telemetry": telemetry,
        }
        if args:
            warnings.warn(
                "positional FabricSimulator configuration is deprecated; "
                "pass congestion=..., routing=..., etc. as keywords",
                DeprecationWarning,
                stacklevel=2,
            )
            if len(args) > len(_POSITIONAL_CONFIG):
                raise TypeError(
                    f"FabricSimulator takes at most {1 + len(_POSITIONAL_CONFIG)} "
                    f"positional arguments ({1 + len(args)} given)"
                )
            for name, value in zip(_POSITIONAL_CONFIG, args):
                if config[name] is not _UNSET:
                    raise TypeError(
                        f"FabricSimulator got multiple values for argument {name!r}"
                    )
                config[name] = value
        defaults = {
            "congestion": None,
            "routing": "minimal",
            "reroute_adaptively": False,
            "rng": None,
            "telemetry": None,
        }
        for name, default in defaults.items():
            if config[name] is _UNSET:
                config[name] = default

        if config["routing"] not in ("minimal", "valiant"):
            raise ConfigurationError(f"unknown routing: {config['routing']!r}")
        self.topology = topology
        self.congestion = config["congestion"] or NoCongestionControl()
        self.routing = config["routing"]
        self.reroute_adaptively = config["reroute_adaptively"]
        self.rng = config["rng"] or RandomSource(seed=11, name="fabric")
        self.telemetry = config["telemetry"]
        # Wall-clock phase attribution: None unless the run's telemetry
        # carries an *enabled* PhaseProfiler, so the hot paths pay one
        # `is not None` test when profiling is off.
        profiler = getattr(self.telemetry, "profiler", None)
        self._profiler = (
            profiler if profiler is not None and profiler.enabled else None
        )
        self.cache_routes = cache_routes
        self._route_cache: Optional[RouteCache] = (
            route_cache_for(topology) if cache_routes else None
        )
        if self._route_cache is not None:
            self._capacities = self._route_cache.link_capacities()
        else:
            self._capacities = self._link_capacities()
        self.solver: RateSolver = resolve_solver(solver)
        self.solver.bind(self._capacities)
        self._pending_link_bytes: Dict[Tuple[str, str], float] = {}
        # Legacy private-method override path: subclasses that replaced the
        # water-filling loop (or the adjustment around it) keep working —
        # the internal epoch path routes through their override — but the
        # hook is deprecated in favour of registering a RateSolver.
        self._legacy_maxmin = (
            type(self)._max_min_rates is not FabricSimulator._max_min_rates
        )
        self._legacy_adjusted = (
            type(self)._adjusted_rates_impl
            is not FabricSimulator._adjusted_rates_impl
        )
        if self._legacy_maxmin or self._legacy_adjusted:
            warnings.warn(
                "overriding FabricSimulator._max_min_rates/_adjusted_rates_impl "
                "is deprecated; register a RateSolver instead (see "
                "repro.interconnect.ratesolver.register_solver)",
                DeprecationWarning,
                stacklevel=2,
            )

    # --- static helpers -------------------------------------------------------

    def _link_capacities(self) -> Dict[Tuple[str, str], float]:
        """Per-direction capacities: links are full duplex, so traffic
        traversing u->v never contends with traffic traversing v->u."""
        capacities = {}
        for u, v, data in self.topology.graph.edges(data=True):
            bandwidth = float(data["bandwidth"])
            capacities[(u, v)] = bandwidth
            capacities[(v, u)] = bandwidth
        return capacities

    def _route(self, flow: Flow) -> Path:
        if self._profiler is None:
            return self._route_impl(flow)
        start = time.perf_counter()
        try:
            return self._route_impl(flow)
        finally:
            self._profiler.add(PHASE_ROUTING, time.perf_counter() - start)

    def _route_impl(self, flow: Flow) -> Path:
        if self.routing == "minimal":
            if self._route_cache is not None:
                return self._route_cache.minimal_route(flow.source, flow.destination)
            return minimal_route(self.topology, flow.source, flow.destination)
        return valiant_route(
            self.topology, flow.source, flow.destination, rng=self.rng,
            cache=self._route_cache,
        )

    @staticmethod
    def _links_of(path: Path) -> List[Tuple[str, str]]:
        """Directed links as traversed (full-duplex capacity model)."""
        return list(zip(path, path[1:]))

    def _decompose(self, path: Path) -> List[Tuple[str, str]]:
        if self._route_cache is not None:
            return self._route_cache.links_of(path)
        return self._links_of(path)

    def _propagation_delay(self, path: Path) -> float:
        if self._route_cache is not None:
            return self._route_cache.propagation_delay(path)
        delay = 0.0
        for u, v in zip(path, path[1:]):
            delay += float(self.topology.graph.edges[u, v]["latency"])
        return delay

    # --- rate computation -------------------------------------------------------

    def _max_min_rates(
        self,
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Tuple[str, str]]]:
        """Deprecated: delegate to :attr:`solver` (``self.solver.solve``).

        The water-filling loop lives in
        :class:`~repro.interconnect.ratesolver.ReferenceSolver` now; this
        thin shim keeps external callers and ``super()`` chains working.
        """
        warnings.warn(
            "FabricSimulator._max_min_rates is deprecated; call "
            "simulator.solver.solve(...) (repro.interconnect.ratesolver)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.solver.solve(flow_links, remaining_bytes)

    def _solve_rates(
        self,
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Tuple[str, str]]]:
        """Internal epoch dispatch: the bound solver, or a legacy override."""
        if self._legacy_maxmin:
            return self._max_min_rates(flow_links, remaining_bytes)
        return self.solver.solve(flow_links, remaining_bytes)

    def _hot_switches(self, saturated: Set[Tuple[str, str]]) -> Set[str]:
        """Switches adjacent to a saturated link (where buffers fill)."""
        hot: Set[str] = set()
        for u, v in saturated:
            if self.topology.graph.nodes[u].get("role") == "switch":
                hot.add(u)
            if self.topology.graph.nodes[v].get("role") == "switch":
                hot.add(v)
        return hot

    def _adjusted_rates(
        self,
        paths: Dict[int, Path],
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Dict[int, int], Set[Tuple[str, str]]]:
        inner = (
            self._adjusted_rates_impl
            if self._legacy_adjusted
            else self._policy_adjusted_rates
        )
        if self._profiler is None:
            return inner(paths, flow_links, remaining_bytes)
        start = time.perf_counter()
        try:
            return inner(paths, flow_links, remaining_bytes)
        finally:
            self._profiler.add(PHASE_CONGESTION, time.perf_counter() - start)

    def _adjusted_rates_impl(
        self,
        paths: Dict[int, Path],
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Dict[int, int], Set[Tuple[str, str]]]:
        """Deprecated alias for the policy-adjustment step (see below)."""
        warnings.warn(
            "FabricSimulator._adjusted_rates_impl is deprecated; override "
            "via a registered RateSolver, or use _policy_adjusted_rates",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._policy_adjusted_rates(paths, flow_links, remaining_bytes)

    def _policy_adjusted_rates(
        self,
        paths: Dict[int, Path],
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Dict[int, int], Set[Tuple[str, str]]]:
        """Max-min rates with congestion-policy adjustments.

        Returns rates, the per-victim count of hot switches on their path
        (used for extra queueing accounting), and the congested link set
        (used by telemetry to mark congestion onsets).
        """
        rates, saturated = self._solve_rates(flow_links, remaining_bytes)
        hot_switches = self._hot_switches(saturated)
        hot_exposure: Dict[int, int] = {}
        if not saturated and not hot_switches:
            # Nothing saturated: no aggressor clamps, no victim exposure.
            return rates, hot_exposure, saturated
        contains_hot = hot_switches.__contains__
        for flow_id, path in paths.items():
            crosses_saturated = saturated and not saturated.isdisjoint(
                flow_links[flow_id]
            )
            if crosses_saturated:
                rates[flow_id] *= self.congestion.aggressor_rate_factor()
            elif hot_switches:
                # sum-of-bools keeps per-node multiplicity, unlike a set
                # intersection (Valiant detours may revisit a switch).
                exposure = sum(map(contains_hot, path))
                if exposure:
                    rates[flow_id] *= self.congestion.victim_rate_factor(exposure)
                    hot_exposure[flow_id] = exposure
        return rates, hot_exposure, saturated

    # --- simulation loop ----------------------------------------------------------

    def run(
        self,
        flows: Sequence[Flow],
        max_iterations: int = 1_000_000,
        link_events: Optional[Sequence[LinkEvent]] = None,
    ) -> List[FlowStats]:
        """Simulate all flows to completion and return their statistics.

        ``link_events`` replays mid-run link failures and repairs: when a
        link goes down its capacity disappears, the shared route cache is
        invalidated (see :func:`~repro.interconnect.routecache.invalidate_route_cache`),
        and every in-flight flow crossing it is re-routed over the
        surviving fabric — or dropped (``FlowStats.dropped``) when no path
        remains, keeping the bytes delivered so far on the record.
        """
        if not flows:
            return []
        self._pending_link_bytes = {}
        pending = sorted(flows, key=lambda f: f.start_time)
        arrivals = list(pending)
        now = arrivals[0].start_time
        active: Dict[int, Flow] = {}
        remaining: Dict[int, float] = {}
        paths: Dict[int, Path] = {}
        flow_links: Dict[int, List[Tuple[str, str]]] = {}
        queueing: Dict[int, float] = {}
        results: List[FlowStats] = []
        arrival_index = 0
        congested_now: Set[Tuple[str, str]] = set()
        events = sorted(link_events, key=lambda e: e.time) if link_events else []
        event_index = 0
        down_links: Dict[Tuple[str, str], Dict[str, object]] = {}

        def drop_flow(flow_id: int) -> None:
            flow = active.pop(flow_id)
            path = paths.pop(flow_id)
            del flow_links[flow_id]
            left = remaining.pop(flow_id)
            stats = FlowStats(
                flow_id=flow.flow_id,
                tag=flow.tag,
                size=flow.size,
                start_time=flow.start_time,
                finish_time=max(now, flow.start_time),
                path_hops=len(path) - 1,
                propagation_delay=0.0,
                extra_queueing=queueing.pop(flow_id, 0.0),
                dropped=True,
                delivered=max(0.0, flow.size - left),
            )
            results.append(stats)
            if self.telemetry is not None:
                self._record_drop(stats)

        def apply_link_event(event: LinkEvent) -> None:
            u, v = event.link
            key = (u, v) if u <= v else (v, u)
            graph = self.topology.graph
            if event.up:
                attrs = down_links.pop(key, None)
                if attrs is None:
                    return  # link was never down
                graph.add_edge(u, v, **attrs)
            else:
                if key in down_links or not graph.has_edge(u, v):
                    return  # already down or never existed
                down_links[key] = dict(graph.edges[u, v])
                graph.remove_edge(u, v)
            self._refresh_link_state()
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "link_up" if event.up else "link_down", CATEGORY_FAULT,
                    now, link=f"{u}-{v}",
                )
            if event.up:
                return
            # Re-route (or drop) every in-flight flow crossing the cut.
            for flow_id in sorted(active):
                links = flow_links[flow_id]
                if (u, v) not in links and (v, u) not in links:
                    continue
                flow = active[flow_id]
                try:
                    new_path = self._route(flow)
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    drop_flow(flow_id)
                    continue
                paths[flow_id] = new_path
                flow_links[flow_id] = self._decompose(new_path)
                if self.telemetry is not None:
                    self.telemetry.counter(
                        "fabric.flows.rerouted",
                        "in-flight flows re-routed around a dead link",
                    ).inc(tag=flow.tag or "flow")

        for _ in range(max_iterations):
            # Apply link state changes due now (before admissions, so a
            # flow arriving at the flap instant sees the degraded fabric).
            while (
                event_index < len(events)
                and events[event_index].time <= now + 1e-15
            ):
                apply_link_event(events[event_index])
                event_index += 1

            # Admit arrivals due now.
            while (
                arrival_index < len(arrivals)
                and arrivals[arrival_index].start_time <= now + 1e-15
            ):
                flow = arrivals[arrival_index]
                arrival_index += 1
                if self.telemetry is not None:
                    # Conservation ledger: every admitted byte must later
                    # land in fabric.flow_bytes or fabric.flow_bytes_lost.
                    self.telemetry.counter(
                        "fabric.flow_bytes_offered",
                        "bytes injected at flow admission",
                    ).inc(flow.size, tag=flow.tag or "flow")
                try:
                    path = self._route(flow)
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    # No path at admission: dead on arrival.
                    stats = FlowStats(
                        flow_id=flow.flow_id, tag=flow.tag, size=flow.size,
                        start_time=flow.start_time,
                        finish_time=max(now, flow.start_time),
                        path_hops=0, propagation_delay=0.0,
                        extra_queueing=0.0, dropped=True, delivered=0.0,
                    )
                    results.append(stats)
                    if self.telemetry is not None:
                        self._record_drop(stats)
                    continue
                active[flow.flow_id] = flow
                remaining[flow.flow_id] = flow.size
                paths[flow.flow_id] = path
                flow_links[flow.flow_id] = self._decompose(path)
                queueing.setdefault(flow.flow_id, 0.0)

            if not active and arrival_index >= len(arrivals):
                break
            if not active:
                # Idle: jump to whichever comes first, the next arrival or
                # the next link event (future arrivals must see it).
                next_time = arrivals[arrival_index].start_time
                if event_index < len(events):
                    next_time = min(next_time, events[event_index].time)
                now = next_time
                continue

            rates, hot_exposure, saturated = self._adjusted_rates(
                paths, flow_links, remaining
            )
            if self.reroute_adaptively:
                # Reuse the epoch's saturated set: the solve above ran on
                # exactly these flow_links/remaining, so re-solving inside
                # the reroute would reproduce it bit-for-bit at double cost.
                rerouted = self._reroute_hot_flows(
                    paths, flow_links, remaining, saturated=saturated
                )
                if rerouted:
                    rates, hot_exposure, saturated = self._adjusted_rates(
                        paths, flow_links, remaining
                    )
            if self.telemetry is not None:
                congested_now = self._record_congestion(
                    now, saturated, congested_now, active
                )

            # Accrue queueing penalties for victims (once per exposure interval).
            for flow_id, exposure in hot_exposure.items():
                queueing[flow_id] = max(
                    queueing[flow_id],
                    self.congestion.victim_extra_latency(exposure),
                )

            # Next event: earliest completion, next arrival or link event.
            next_completion = float("inf")
            for flow_id, rate in rates.items():
                if rate <= 0:
                    continue
                next_completion = min(next_completion, remaining[flow_id] / rate)
            next_arrival = (
                arrivals[arrival_index].start_time - now
                if arrival_index < len(arrivals)
                else float("inf")
            )
            next_link_event = (
                events[event_index].time - now
                if event_index < len(events)
                else float("inf")
            )
            step = min(next_completion, next_arrival, next_link_event)
            if step == float("inf"):
                self._flush_link_bytes()
                raise SimulationError("fabric deadlock: no progress possible")
            step = max(step, 0.0)

            # Advance.
            now += step
            finished: List[int] = []
            for flow_id in list(active):
                rate = rates.get(flow_id, 0.0)
                moved = rate * step
                remaining[flow_id] -= moved
                if self.telemetry is not None and moved > 0:
                    self._account_link_bytes(paths[flow_id], moved)
                if remaining[flow_id] <= 1e-9:
                    finished.append(flow_id)
            for flow_id in finished:
                flow = active.pop(flow_id)
                path = paths.pop(flow_id)
                del flow_links[flow_id]
                propagation = self._propagation_delay(path)
                extra = queueing.pop(flow_id, 0.0)
                stats = FlowStats(
                    flow_id=flow.flow_id,
                    tag=flow.tag,
                    size=flow.size,
                    start_time=flow.start_time,
                    finish_time=now + propagation + extra,
                    path_hops=len(path) - 1,
                    propagation_delay=propagation,
                    extra_queueing=extra,
                )
                results.append(stats)
                if self.telemetry is not None:
                    self._record_flow(stats)
                del remaining[flow_id]
        else:
            self._flush_link_bytes()
            raise SimulationError("fabric simulation exceeded max_iterations")
        self._flush_link_bytes()

        if down_links:
            # The workload drained before every link came back; undo the
            # in-place mutations so the shared topology is left intact.
            for (u, v), attrs in down_links.items():
                self.topology.graph.add_edge(u, v, **attrs)
            down_links.clear()
            self._refresh_link_state()
        return results

    def _refresh_link_state(self) -> None:
        """Rebuild routes and capacities after an in-place graph mutation."""
        invalidate_route_cache(self.topology)
        if self.cache_routes:
            self._route_cache = route_cache_for(self.topology)
            self._capacities = self._route_cache.link_capacities()
        else:
            self._capacities = self._link_capacities()
        # The solver's incremental state indexes the old link set — rebind
        # invalidates it the same way the route cache was just invalidated.
        self.solver.bind(self._capacities)

    # --- telemetry --------------------------------------------------------------

    def _record_drop(self, stats: FlowStats) -> None:
        """Account one dropped flow (no FCT sample — it never completed)."""
        tag = stats.tag or "flow"
        self.telemetry.counter(
            "fabric.flows.dropped", "flows killed by link failures"
        ).inc(tag=tag)
        if stats.delivered_bytes > 0:
            self.telemetry.counter("fabric.flow_bytes").inc(
                stats.delivered_bytes, tag=tag
            )
        lost = stats.size - stats.delivered_bytes
        if lost > 0:
            self.telemetry.counter(
                "fabric.flow_bytes_lost",
                "offered bytes that never reached their destination",
            ).inc(lost, tag=tag)
        self.telemetry.tracer.complete(
            f"flow:{tag}", CATEGORY_FLOW, stats.start_time, stats.finish_time,
            flow_id=stats.flow_id, bytes=stats.delivered_bytes, dropped=True,
        )

    def _record_flow(self, stats: FlowStats) -> None:
        """Account one finished flow: FCT histogram + a trace span."""
        tag = stats.tag or "flow"
        self.telemetry.histogram(
            "fabric.fct_seconds", FCT_BUCKETS, "flow completion time"
        ).observe(stats.completion_time, tag=tag)
        self.telemetry.counter("fabric.flow_bytes").inc(stats.size, tag=tag)
        self.telemetry.tracer.complete(
            f"flow:{tag}", CATEGORY_FLOW, stats.start_time, stats.finish_time,
            flow_id=stats.flow_id, bytes=stats.size, hops=stats.path_hops,
        )

    def _account_link_bytes(self, path: Path, moved: float) -> None:
        """Spread one interval's bytes over every link the flow traverses."""
        if self._profiler is None:
            return self._account_link_bytes_impl(path, moved)
        start = time.perf_counter()
        try:
            return self._account_link_bytes_impl(path, moved)
        finally:
            self._profiler.add(PHASE_TELEMETRY, time.perf_counter() - start)

    def _account_link_bytes_impl(self, path: Path, moved: float) -> None:
        # Accumulate per directed link in a plain dict and flush once per
        # run: per-label totals are added in the same chronological order,
        # and a counter starting at 0.0 satisfies 0.0 + x == x, so the
        # flushed values are bit-identical to per-epoch increments — while
        # skipping the per-increment label formatting on the hot path.
        pending = self._pending_link_bytes
        for pair in zip(path, path[1:]):
            pending[pair] = pending.get(pair, 0.0) + moved

    def _flush_link_bytes(self) -> None:
        """Publish the accumulated per-link byte totals to telemetry."""
        if not self._pending_link_bytes or self.telemetry is None:
            return
        start = time.perf_counter() if self._profiler is not None else 0.0
        link_bytes = self.telemetry.counter(
            "fabric.link_bytes", "bytes carried per directed link"
        )
        for (u, v), total in self._pending_link_bytes.items():
            link_bytes.inc(total, link=f"{u}->{v}")
        self._pending_link_bytes = {}
        if self._profiler is not None:
            self._profiler.add(PHASE_TELEMETRY, time.perf_counter() - start)

    def _record_congestion(
        self,
        now: float,
        saturated: Set[Tuple[str, str]],
        congested_before: Set[Tuple[str, str]],
        active: Dict[int, Flow],
    ) -> Set[Tuple[str, str]]:
        if self._profiler is None:
            return self._record_congestion_impl(
                now, saturated, congested_before, active
            )
        start = time.perf_counter()
        try:
            return self._record_congestion_impl(
                now, saturated, congested_before, active
            )
        finally:
            self._profiler.add(PHASE_TELEMETRY, time.perf_counter() - start)

    def _record_congestion_impl(
        self,
        now: float,
        saturated: Set[Tuple[str, str]],
        congested_before: Set[Tuple[str, str]],
        active: Dict[int, Flow],
    ) -> Set[Tuple[str, str]]:
        """Mark congestion onsets (newly-saturated links) in the trace."""
        onsets = saturated - congested_before
        if onsets:
            events = self.telemetry.counter(
                "fabric.congestion_events", "congestion onsets per link"
            )
            for u, v in sorted(onsets):
                events.inc(link=f"{u}->{v}")
                self.telemetry.tracer.instant(
                    "congestion_onset", CATEGORY_CONGESTION, now,
                    link=f"{u}->{v}", active_flows=len(active),
                )
        self.telemetry.tracer.sample(
            "fabric.active_flows", now, flows=len(active),
            congested_links=len(saturated),
        )
        return set(saturated)

    def _reroute_hot_flows(
        self,
        paths: Dict[int, Path],
        flow_links: Dict[int, List[Tuple[str, str]]],
        remaining_bytes: Optional[Dict[int, float]],
        saturated: Optional[Set[Tuple[str, str]]] = None,
    ) -> bool:
        """Detour the slowest congested flows via Valiant paths (in place).

        ``saturated`` is the congested-link set from the epoch's rate solve;
        when omitted it is recomputed (same inputs — identical result).
        """
        if saturated is None:
            _, saturated = self._solve_rates(flow_links, remaining_bytes)
        if not saturated:
            return False
        rerouted = False
        for flow_id, path in list(paths.items()):
            if not saturated.isdisjoint(flow_links[flow_id]):
                source, destination = path[0], path[-1]
                detour = valiant_route(
                    self.topology, source, destination, rng=self.rng,
                    cache=self._route_cache,
                )
                if detour != path:
                    paths[flow_id] = detour
                    flow_links[flow_id] = self._links_of(detour)
                    rerouted = True
        return rerouted
