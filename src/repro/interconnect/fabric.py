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
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RandomSource
from repro.interconnect.congestion import CongestionManager, NoCongestionControl
from repro.interconnect.graph import NetworkXNoPath, NodeNotFound
from repro.interconnect.ratesolver import IndexedSolver, RateSolver
from repro.interconnect.routecache import RouteCache, route_cache_for
from repro.interconnect.routing import Path, valiant_route
from repro.interconnect.topology import Topology
from repro.observability.metrics import Histogram, bucket_index, exponential_buckets
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
    timed,
)
from repro.observability.tracer import CounterRecord, span_record

#: Bucket bounds (seconds) for the flow-completion-time histogram:
#: 1 us .. 100 s in decades, covering mice on a rack and elephants on a WAN.
FCT_BUCKETS = exponential_buckets(1e-6, 10.0, 9)

_flow_ids = itertools.count()


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
        if not math.isfinite(self.size) or self.size <= 0:
            raise ConfigurationError(
                f"flow size must be positive and finite: {self.size}"
            )
        if not math.isfinite(self.start_time) or self.start_time < 0:
            raise ConfigurationError(
                f"start_time must be non-negative and finite: {self.start_time}"
            )
        if self.source == self.destination:
            # A loopback flow never enters the fabric, so no epoch would
            # ever retire it: the run would end in a deadlock error.
            raise ConfigurationError(
                f"flow source and destination must differ: {self.source!r}"
            )


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


def _flow_stats(
    flow: Flow,
    finish_time: float,
    path_hops: int,
    propagation_delay: float,
    extra_queueing: float,
    dropped: bool = False,
    delivered: float = -1.0,
) -> FlowStats:
    """``FlowStats`` of ``flow``, equal to the constructor's.

    Fills the instance ``__dict__`` in field order instead of paying the
    frozen ``__init__``'s ten ``object.__setattr__`` calls; the run loop
    builds one per flow.  Keep it in step with the fields above.
    """
    stats = object.__new__(FlowStats)
    fields = stats.__dict__
    fields["flow_id"] = flow.flow_id
    fields["tag"] = flow.tag
    fields["size"] = flow.size
    fields["start_time"] = flow.start_time
    fields["finish_time"] = finish_time
    fields["path_hops"] = path_hops
    fields["propagation_delay"] = propagation_delay
    fields["extra_queueing"] = extra_queueing
    fields["dropped"] = dropped
    fields["delivered"] = delivered
    return stats


@dataclass(frozen=True)
class LinkEvent:
    """A scheduled link state change for :meth:`FabricSimulator.run`.

    The undirected ``link`` (an ``(u, v)`` edge of the topology) goes down
    (``up=False``) or comes back (``up=True``) at ``time``.
    """

    time: float
    link: Tuple[str, str]
    up: bool = False


def _restore_link(
    graph, u: str, v: str, attrs: Dict[str, object],
    neighbour_order: Dict[str, List[str]],
) -> None:
    """Re-add a failed link where it sat in both endpoints' adjacency.

    ``add_edge`` appends the neighbour, and shortest paths break ties by
    adjacency order, so without the reorder a repaired fabric routes
    differently from a fresh build of the same topology.
    """
    graph.add_edge(u, v, **attrs)
    for node in (u, v):
        rank = {n: i for i, n in enumerate(neighbour_order[node])}
        adjacency = graph._adj[node]
        ordered = sorted(adjacency.items(), key=lambda item: rank[item[0]])
        adjacency.clear()
        adjacency.update(ordered)


class FabricSimulator:
    """Progressive-filling flow simulator over a :class:`Topology`.

    All configuration is keyword-only.

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
    solver:
        The max-min rate solver, a
        :class:`~repro.interconnect.ratesolver.RateSolver` instance;
        ``None`` means a fresh
        :class:`~repro.interconnect.ratesolver.IndexedSolver`.  Checks and
        tests pass a :class:`~repro.interconnect.ratesolver.ReferenceSolver`
        here to compare against the oracle.

    Minimal routes, link decompositions, propagation delays and the
    link-capacity map come from the topology's shared
    :class:`~repro.interconnect.routecache.RouteCache`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        congestion: Optional[CongestionManager] = None,
        routing: str = "minimal",
        reroute_adaptively: bool = False,
        rng: Optional[RandomSource] = None,
        telemetry: Optional[Telemetry] = None,
        solver: Optional[RateSolver] = None,
    ) -> None:
        if routing not in ("minimal", "valiant"):
            raise ConfigurationError(f"unknown routing: {routing!r}")
        if solver is None:
            solver = IndexedSolver()
        elif not isinstance(solver, RateSolver):
            raise ConfigurationError(
                "solver must be a RateSolver instance or None, got "
                f"{type(solver).__name__}"
            )
        self.topology = topology
        self.congestion = congestion or NoCongestionControl()
        self.routing = routing
        self.reroute_adaptively = reroute_adaptively
        self.rng = rng or RandomSource(seed=11, name="fabric")
        self.telemetry = telemetry
        self._route_cache: RouteCache = route_cache_for(topology)
        self._capacities = self._route_cache.link_capacities()
        self.solver: RateSolver = solver
        self.solver.bind(self._capacities)

    # --- routing ----------------------------------------------------------------

    def _route(self, flow: Flow) -> Path:
        if self.routing == "minimal":
            return self._route_cache.minimal_route(flow.source, flow.destination)
        return valiant_route(
            self.topology, flow.source, flow.destination, rng=self.rng
        )

    @staticmethod
    def _links_of(path: Path) -> List[Tuple[str, str]]:
        """Directed links as traversed (full-duplex capacity model)."""
        return list(zip(path, path[1:]))

    # --- rate computation -------------------------------------------------------

    def _hot_switches(self, saturated: Set[Tuple[str, str]]) -> Set[str]:
        """Switches adjacent to a saturated link (where buffers fill)."""
        hot: Set[str] = set()
        for u, v in saturated:
            if self.topology.graph.nodes[u].get("role") == "switch":
                hot.add(u)
            if self.topology.graph.nodes[v].get("role") == "switch":
                hot.add(v)
        return hot

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
        rates, saturated = self.solver.solve(flow_links, remaining_bytes)
        hot_exposure: Dict[int, int] = {}
        if not saturated:
            # Nothing saturated: no hot switches, no aggressor clamps and
            # no victim exposure.
            return rates, hot_exposure, saturated
        hot_switches = self._hot_switches(saturated)
        contains_hot = hot_switches.__contains__
        for flow_id, path in paths.items():
            if not saturated.isdisjoint(flow_links[flow_id]):
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
        link goes down its capacity disappears, the shared route cache
        drops its routes (it sees the graph's ``mutations`` count move),
        and every in-flight flow crossing it is re-routed over the
        surviving fabric — or dropped (``FlowStats.dropped``) when no path
        remains, keeping the bytes delivered so far on the record.

        Flow ids must be unique within one run: results are keyed by them.
        """
        if not flows:
            return []
        seen: Set[int] = set()
        for flow in flows:
            if flow.flow_id in seen:
                raise ConfigurationError(
                    f"flow_id {flow.flow_id} is given to more than one flow "
                    "in the same run"
                )
            seen.add(flow.flow_id)
        if self._capacities is not self._route_cache.link_capacities():
            # Another simulator's link events on this shared topology
            # rebuilt the capacity map since this one was bound.
            self._refresh_link_state()
        arrivals = sorted(flows, key=lambda f: f.start_time)
        arrival_count = len(arrivals)
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
        event_count = len(events)
        event_index = 0
        down_links: Dict[Tuple[str, str], Dict[str, object]] = {}
        # Each failed link's endpoints' neighbour order before any failure.
        neighbour_order: Dict[str, List[str]] = {}
        # Hot attributes as locals.
        infinity = float("inf")
        # Wall-clock phase attribution: with no profiler, `timed` hands
        # each hot call back untouched.
        profiler = getattr(self.telemetry, "profiler", None)
        ledger = link_bytes = None
        route = timed(profiler, PHASE_ROUTING, self._route)
        congestion = self.congestion
        reroute_adaptively = self.reroute_adaptively

        adjusted_rates = timed(
            profiler, PHASE_CONGESTION, self._policy_adjusted_rates
        )
        if self.telemetry is not None:
            ledger = _RunTelemetry(self.telemetry)
            link_bytes = ledger.link_bytes
            offer = timed(profiler, PHASE_TELEMETRY, ledger.offer)
            record_drop = timed(profiler, PHASE_TELEMETRY, ledger.drop)
            record_congestion = timed(
                profiler, PHASE_TELEMETRY, ledger.congestion
            )
            finish = timed(profiler, PHASE_TELEMETRY, ledger.finish)
            publish = timed(profiler, PHASE_TELEMETRY, ledger.publish)

        def drop_flow(flow_id: int) -> None:
            flow = active.pop(flow_id)
            path = paths.pop(flow_id)
            del flow_links[flow_id]
            left = remaining.pop(flow_id)
            stats = _flow_stats(
                flow, max(now, flow.start_time), len(path) - 1, 0.0,
                queueing.pop(flow_id, 0.0), True, max(0.0, flow.size - left),
            )
            results.append(stats)
            if ledger is not None:
                record_drop(stats)

        def apply_link_event(event: LinkEvent) -> None:
            u, v = event.link
            key = (u, v) if u <= v else (v, u)
            graph = self.topology.graph
            if event.up:
                attrs = down_links.pop(key, None)
                if attrs is None:
                    return  # link was never down
                _restore_link(graph, u, v, attrs, neighbour_order)
            else:
                if key in down_links or not graph.has_edge(u, v):
                    return  # already down or never existed
                for node in (u, v):
                    neighbour_order.setdefault(node, list(graph.adj[node]))
                down_links[key] = dict(graph.edges[u, v])
                graph.remove_edge(u, v)
            self._refresh_link_state()
            if ledger is not None:
                ledger.tracer.instant(
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
                    new_path = route(flow)
                except (NetworkXNoPath, NodeNotFound):
                    drop_flow(flow_id)
                    continue
                paths[flow_id] = new_path
                flow_links[flow_id] = self._route_cache.links_of(new_path)
                if ledger is not None:
                    ledger.rerouted(flow.tag)

        for _ in range(max_iterations):
            # Apply link state changes due now (before admissions, so a
            # flow arriving at the flap instant sees the degraded fabric).
            while (
                event_index < event_count
                and events[event_index].time <= now + 1e-15
            ):
                apply_link_event(events[event_index])
                event_index += 1

            # Admit arrivals due now.  Admission order is the arrival
            # order, so the offered-bytes ledger can take the epoch's
            # arrivals in one call ahead of routing them.
            due = arrival_index
            while (
                due < arrival_count
                and arrivals[due].start_time <= now + 1e-15
            ):
                due += 1
            if due > arrival_index:
                admitted = arrivals[arrival_index:due]
                arrival_index = due
                if ledger is not None:
                    # Conservation ledger: every admitted byte must later
                    # land in fabric.flow_bytes or fabric.flow_bytes_lost.
                    offer(admitted)
                for flow in admitted:
                    try:
                        path = route(flow)
                    except (NetworkXNoPath, NodeNotFound):
                        # No path at admission: dead on arrival.
                        stats = _flow_stats(
                            flow, max(now, flow.start_time), 0, 0.0, 0.0,
                            True, 0.0,
                        )
                        results.append(stats)
                        if ledger is not None:
                            record_drop(stats)
                        continue
                    flow_id = flow.flow_id
                    active[flow_id] = flow
                    remaining[flow_id] = flow.size
                    paths[flow_id] = path
                    flow_links[flow_id] = self._route_cache.links_of(path)
                    queueing.setdefault(flow_id, 0.0)

            if not active:
                if arrival_index >= arrival_count:
                    break
                # Idle: jump to whichever comes first, the next arrival or
                # the next link event (future arrivals must see it).
                next_time = arrivals[arrival_index].start_time
                if event_index < event_count:
                    next_time = min(next_time, events[event_index].time)
                now = next_time
                continue

            rates, hot_exposure, saturated = adjusted_rates(
                paths, flow_links, remaining
            )
            if reroute_adaptively:
                # Reuse the epoch's saturated set: the solve above ran on
                # exactly these flow_links/remaining, so re-solving inside
                # the reroute would reproduce it bit-for-bit at double cost.
                rerouted = self._reroute_hot_flows(paths, flow_links, saturated)
                if rerouted:
                    rates, hot_exposure, saturated = adjusted_rates(
                        paths, flow_links, remaining
                    )
            if ledger is not None:
                congested_now = record_congestion(
                    now, saturated, congested_now, len(active)
                )

            # Accrue queueing penalties for victims (once per exposure interval).
            for flow_id, exposure in hot_exposure.items():
                queueing[flow_id] = max(
                    queueing[flow_id],
                    congestion.victim_extra_latency(exposure),
                )

            # Next event: earliest completion, next arrival or link event.
            next_completion = infinity
            for flow_id, rate in rates.items():
                if rate <= 0:
                    continue
                until = remaining[flow_id] / rate
                if until < next_completion:
                    next_completion = until
            next_arrival = (
                arrivals[arrival_index].start_time - now
                if arrival_index < arrival_count
                else infinity
            )
            next_link_event = (
                events[event_index].time - now
                if event_index < event_count
                else infinity
            )
            step = min(next_completion, next_arrival, next_link_event)
            if step == infinity:
                if ledger is not None:
                    publish()
                raise SimulationError("fabric deadlock: no progress possible")
            step = max(step, 0.0)

            # Advance.  ``remaining`` holds exactly the active flows, in
            # admission order; the same pass adds up the link bytes.
            now += step
            rate_of = rates.get
            finished: List[int] = []
            for flow_id, left in remaining.items():
                moved = rate_of(flow_id, 0.0) * step
                remaining[flow_id] = left = left - moved
                if left <= 1e-9:
                    finished.append(flow_id)
                if link_bytes is not None and moved > 0:
                    for link in flow_links[flow_id]:
                        link_bytes[link] += moved
            if not finished:
                continue
            done: List[FlowStats] = []
            for flow_id in finished:
                flow = active.pop(flow_id)
                path = paths.pop(flow_id)
                del flow_links[flow_id]
                del remaining[flow_id]
                propagation = self._route_cache.propagation_delay(path)
                extra = queueing.pop(flow_id, 0.0)
                done.append(_flow_stats(
                    flow, now + propagation + extra, len(path) - 1,
                    propagation, extra,
                ))
            results.extend(done)
            if ledger is not None:
                finish(done)
        else:
            if ledger is not None:
                publish()
            raise SimulationError("fabric simulation exceeded max_iterations")
        if ledger is not None:
            publish()

        if down_links:
            # The workload drained before every link came back; undo the
            # in-place mutations so the shared topology is left intact.
            for (u, v), attrs in down_links.items():
                _restore_link(self.topology.graph, u, v, attrs, neighbour_order)
            down_links.clear()
            self._refresh_link_state()
        return results

    def _refresh_link_state(self) -> None:
        """Rebind the solver to the capacities of the mutated graph."""
        self._capacities = self._route_cache.link_capacities()
        self.solver.bind(self._capacities)

    def _reroute_hot_flows(
        self,
        paths: Dict[int, Path],
        flow_links: Dict[int, List[Tuple[str, str]]],
        saturated: Set[Tuple[str, str]],
    ) -> bool:
        """Detour the slowest congested flows via Valiant paths (in place).

        ``saturated`` is the congested-link set from the epoch's rate solve.
        """
        if not saturated:
            return False
        rerouted = False
        for flow_id, path in list(paths.items()):
            if not saturated.isdisjoint(flow_links[flow_id]):
                source, destination = path[0], path[-1]
                detour = valiant_route(
                    self.topology, source, destination, rng=self.rng
                )
                if detour != path:
                    paths[flow_id] = detour
                    flow_links[flow_id] = self._links_of(detour)
                    rerouted = True
        return rerouted


class _RunTelemetry:
    """One :meth:`FabricSimulator.run`'s telemetry recording.

    Offered and delivered bytes and FCTs per tag, and bytes per directed
    link, add up in plain dicts that :meth:`publish` writes once per run.
    That is bit-identical to per-event ``inc``/``observe`` calls.  A
    metric is fetched (so created) at its first use.  A tag's total
    starts from the series' value at that point and takes the same
    additions in the same order: nothing else writes these series
    mid-run, and a shared ``Telemetry`` keeps its earlier totals.  The
    dicts keep first-use order, which is the order new label sets reach
    the registry.  Link bytes are a per-run total per link, added to the
    counter once; the epoch loop adds them up in its advance pass.
    """

    __slots__ = ("telemetry", "tracer", "offered", "delivered", "fcts",
                 "link_bytes", "_fct")

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self.tracer = telemetry.tracer
        self.offered: Dict[str, float] = {}
        self.delivered: Dict[str, float] = {}
        self.fcts: Dict[str, list] = {}  # tag -> [bucket counts, sum]
        self.link_bytes: Dict[Tuple[str, str], float] = defaultdict(float)
        self._fct: Optional[Histogram] = None

    def _add(self, totals: Dict[str, float], tag: str, amount: float,
             *counter: str) -> None:
        """Add to a tag's run total, started from the counter's value."""
        if tag not in totals:
            totals[tag] = self.telemetry.counter(*counter).value(tag=tag)
        totals[tag] += amount

    def offer(self, flows: Sequence[Flow]) -> None:
        """Account the bytes of newly admitted flows (the offered ledger)."""
        for flow in flows:
            self._add(self.offered, flow.tag or "flow", flow.size,
                      "fabric.flow_bytes_offered",
                      "bytes injected at flow admission")

    def finish(self, done: Sequence[FlowStats]) -> None:
        """Account finished flows: FCT histogram, bytes and a trace span."""
        if self._fct is None:
            self._fct = self.telemetry.histogram(
                "fabric.fct_seconds", FCT_BUCKETS, "flow completion time"
            )
        fct, fcts = self._fct, self.fcts
        spans = self.tracer.spans if self.tracer.enabled else None
        for stats in done:
            tag = stats.tag or "flow"
            seconds = stats.completion_time
            series = fcts.get(tag)
            if series is None:
                series = fcts[tag] = [fct.counts(tag=tag), fct.sum(tag=tag)]
            series[0][bucket_index(FCT_BUCKETS, seconds)] += 1
            series[1] += seconds
            self._add(self.delivered, tag, stats.size, "fabric.flow_bytes")
            if spans is not None:
                spans.append(span_record(
                    f"flow:{tag}", CATEGORY_FLOW, stats.start_time,
                    stats.finish_time, {"flow_id": stats.flow_id,
                                        "bytes": stats.size,
                                        "hops": stats.path_hops},
                ))

    def drop(self, stats: FlowStats) -> None:
        """Account one dropped flow (no FCT sample — it never completed)."""
        tag = stats.tag or "flow"
        self.telemetry.counter(
            "fabric.flows.dropped", "flows killed by link failures"
        ).inc(tag=tag)
        if stats.delivered_bytes > 0:
            self._add(self.delivered, tag, stats.delivered_bytes, "fabric.flow_bytes")
        lost = stats.size - stats.delivered_bytes
        if lost > 0:
            self.telemetry.counter(
                "fabric.flow_bytes_lost",
                "offered bytes that never reached their destination",
            ).inc(lost, tag=tag)
        self.tracer.complete(
            f"flow:{tag}", CATEGORY_FLOW, stats.start_time, stats.finish_time,
            flow_id=stats.flow_id, bytes=stats.delivered_bytes, dropped=True,
        )

    def rerouted(self, tag: str) -> None:
        """Count one in-flight flow re-routed around a dead link."""
        self.telemetry.counter(
            "fabric.flows.rerouted",
            "in-flight flows re-routed around a dead link",
        ).inc(tag=tag or "flow")

    def publish(self) -> None:
        """Write the run's totals into the registry (metrics exist by now)."""
        counter = self.telemetry.counter
        if self.offered:
            counter("fabric.flow_bytes_offered").publish("tag", self.offered)
        if self.fcts:
            self._fct.publish("tag", self.fcts)
        if self.delivered:
            counter("fabric.flow_bytes").publish("tag", self.delivered)
        if self.link_bytes:
            links = counter("fabric.link_bytes", "bytes carried per directed link")
            totals = {}
            for (u, v), carried in self.link_bytes.items():
                link = f"{u}->{v}"
                totals[link] = links.value(link=link) + carried
            links.publish("link", totals)

    def congestion(
        self,
        now: float,
        saturated: Set[Tuple[str, str]],
        congested_before: Set[Tuple[str, str]],
        active_flows: int,
    ) -> Set[Tuple[str, str]]:
        """Mark congestion onsets (newly-saturated links) in the trace and
        return the solver's fresh ``saturated`` set, uncopied."""
        onsets = (saturated - congested_before
                  if saturated and congested_before else saturated)
        if onsets:
            events = self.telemetry.counter(
                "fabric.congestion_events", "congestion onsets per link"
            )
            for u, v in sorted(onsets):
                events.inc(link=f"{u}->{v}")
                self.tracer.instant(
                    "congestion_onset", CATEGORY_CONGESTION, now,
                    link=f"{u}->{v}", active_flows=active_flows,
                )
        if self.tracer.enabled:
            self.tracer.counters.append(CounterRecord(
                "fabric.active_flows", now,
                {"flows": active_flows, "congested_links": len(saturated)},
            ))
        return saturated
