"""Flow-level network fabric simulator.

Packet-level simulation of a system-scale fabric is intractable in pure
Python, and unnecessary: the paper's congestion and topology claims concern
*flow-completion times* (and their tails) under sustained load. Links are
**full duplex** — capacity is tracked per traversal direction, so opposing
flows never contend. This module simulates at flow granularity with
**progressive filling**.  :meth:`FabricSimulator.run` repeats one epoch,
a sequence of named steps of its per-run state, until all flows finish:

1. *admission* — route the flows arriving now;
2. *rates* — compute max-min fair rates for all active flows over the
   topology's link capacities (water-filling), and let the installed
   congestion-management policy adjust aggressor and victim rates;
3. *penalties* — charge victims the policy's queueing delay;
4. *next event* — find the next flow arrival or completion;
5. *advance* — move simulated time and every flow's bytes to it;
6. *finish* — retire the flows that completed.

The run counts each link's users as flows come and go, and keeps each
flow's *bottleneck*, the smallest capacity on its path.  An epoch in
which no link has two users takes the bottlenecks as its rates (each
flow is alone on every link it crosses, so that is the max-min
allocation) and calls no solver; only contended epochs are solved.

Outputs are per-flow :class:`FlowStats` with completion times, from which
benchmark harnesses compute mean/p99 FCT, goodput and slowdown.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RandomSource
from repro.interconnect.congestion import CongestionManager, NoCongestionControl
from repro.interconnect.graph import NetworkXNoPath, NodeNotFound
from repro.interconnect.ratesolver import IndexedSolver, Link, RateSolver
from repro.interconnect.routecache import (
    Route,
    RouteCache,
    RouteLinks,
    route_cache_for,
)
from repro.interconnect.routing import valiant_route
from repro.interconnect.topology import Topology
from repro.observability.metrics import Histogram, bucket_index, exponential_buckets
from repro.observability.probes import (
    CATEGORY_CONGESTION,
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

#: The congested links of an epoch that has none.
_NO_LINKS: AbstractSet[Link] = frozenset()


def _finite(value: object) -> bool:
    """Whether ``value`` is a finite number (a non-number is not)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


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
        for name in ("source", "destination"):
            node = getattr(self, name)
            if not isinstance(node, str) or not node:
                raise ConfigurationError(
                    f"flow {name} must be a non-empty node name, got {node!r}"
                )
        if not _finite(self.size) or self.size <= 0:
            raise ConfigurationError(
                f"flow size must be positive and finite: {self.size!r}"
            )
        if not _finite(self.start_time) or self.start_time < 0:
            raise ConfigurationError(
                f"start_time must be non-negative and finite: "
                f"{self.start_time!r}"
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

    ``dropped`` marks flows that found no path to the destination at
    admission (dead on arrival); for those, ``delivered`` is 0 (``-1`` is
    the not-dropped sentinel meaning all of ``size`` arrived — see
    :attr:`delivered_bytes`).
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
        here to compare against the oracle.  The solver sees only
        contended epochs: an epoch in which no link has two users takes
        each flow's path bottleneck and calls no solver.

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
        if not isinstance(topology, Topology):
            raise ConfigurationError(
                f"topology must be a Topology, got {type(topology).__name__}"
            )
        if routing not in ("minimal", "valiant"):
            raise ConfigurationError(f"unknown routing: {routing!r}")
        if congestion is not None and not isinstance(
            congestion, CongestionManager
        ):
            raise ConfigurationError(
                "congestion must be a CongestionManager or None, got "
                f"{type(congestion).__name__}"
            )
        if rng is not None and not isinstance(rng, RandomSource):
            raise ConfigurationError(
                f"rng must be a RandomSource or None, got {type(rng).__name__}"
            )
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

    def _route(self, flow: Flow) -> Tuple[Route, RouteLinks]:
        """A flow's path and its directed links, from one route-cache
        lookup under minimal routing."""
        if self.routing == "minimal":
            return self._route_cache.minimal_route_links(
                flow.source, flow.destination
            )
        path = tuple(valiant_route(
            self.topology, flow.source, flow.destination, rng=self.rng
        ))
        return path, self._links_of(path)

    @staticmethod
    def _links_of(path: Route) -> RouteLinks:
        """Directed links as traversed (full-duplex capacity model)."""
        return tuple(zip(path, path[1:]))

    # --- rate computation -------------------------------------------------------

    def _hot_switches(self, saturated: Set[Link]) -> Set[str]:
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
        paths: Dict[int, Route],
        flow_links: Dict[int, RouteLinks],
        remaining_bytes: Dict[int, float],
    ) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, int], Set[Link]]:
        """A contended epoch's max-min rates with congestion-policy
        adjustments.

        Returns the solver's rates, the adjusted rates (the same dict when
        nothing is saturated), the per-victim count of hot switches on
        their path (used for extra queueing accounting), and the congested
        link set (used by telemetry to mark congestion onsets).
        """
        fair, saturated = self.solver.solve(flow_links, remaining_bytes)
        hot_exposure: Dict[int, int] = {}
        if not saturated:
            # Nothing saturated: no hot switches, no aggressor clamps and
            # no victim exposure.
            return fair, fair, hot_exposure, saturated
        rates = dict(fair)
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
        return fair, rates, hot_exposure, saturated

    # --- simulation loop ----------------------------------------------------------

    def run(
        self,
        flows: Sequence[Flow],
        max_iterations: int = 1_000_000,
    ) -> List[FlowStats]:
        """Simulate all flows to completion and return their statistics.

        A flow with no path to its destination at admission is dropped
        (``FlowStats.dropped``) with no bytes delivered.

        Flow ids must be unique within one run: results are keyed by them.
        """
        if (isinstance(max_iterations, bool)
                or not isinstance(max_iterations, int) or max_iterations < 1):
            raise ConfigurationError(
                f"max_iterations must be a positive integer, got "
                f"{max_iterations!r}"
            )
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
            # An edit of this shared topology rebuilt the capacity map
            # since this simulator was bound.
            self._refresh_link_state()
        epoch = _Epoch(self, flows)
        admit = epoch.admit
        set_rates = epoch.set_rates
        accrue_penalties = epoch.accrue_penalties
        next_event = epoch.next_event
        advance = epoch.advance
        finish = epoch.finish
        for _ in range(max_iterations):
            admit()
            if not epoch.active:
                if epoch.arrival_index >= epoch.arrival_count:
                    break
                epoch.idle()
                continue
            set_rates()
            accrue_penalties()
            advance(next_event())
            finish()
        else:
            epoch.publish()
            raise SimulationError("fabric simulation exceeded max_iterations")
        return epoch.close()

    def _refresh_link_state(self) -> None:
        """Rebind the solver to the capacities of the mutated graph."""
        self._capacities = self._route_cache.link_capacities()
        self.solver.bind(self._capacities)


class _Epoch:
    """One :meth:`FabricSimulator.run`: its flows and the epoch loop's steps.

    The loop calls the steps in order, once per epoch:
    :meth:`admit`, then, while any flow is active, :meth:`set_rates`,
    :meth:`accrue_penalties`, :meth:`next_event`, :meth:`advance` and
    :meth:`finish`; with none active it jumps ahead (:meth:`idle`).
    Each step runs its own loop over the flows it touches, so no step is
    called per flow.

    Link users are counted per traversal by active flows (a detour that
    crosses a link twice counts twice): ``in_use`` holds the links with
    one or more, and ``extra_users`` maps each link with two or more to
    its count less one.  ``bottleneck`` maps each active flow to the
    smallest capacity on its path.  All three follow every admission,
    finish and reroute.  While ``extra_users`` is empty every link has one
    user, so each round of water-filling fixes one flow at a bare
    capacity and touches no other flow's links: max-min fairness gives
    each flow its bottleneck (Bertsekas & Gallager, *Data Networks*,
    §6.5), and no link has the contenders to count as congested.  Such an
    epoch calls no solver, builds no congested set and runs no policy
    adjustment or adaptive reroute.  ``fair_rates`` holds each epoch's
    max-min rates, before the congestion policy's adjustments.
    """

    __slots__ = (
        "sim", "now", "arrivals", "arrival_count", "arrival_index",
        "active", "remaining", "paths", "flow_links",
        "queueing", "results", "in_use", "extra_users", "bottleneck",
        "capacities", "rates", "fair_rates", "hot_exposure", "saturated",
        "congested", "finished", "route", "solve", "ledger", "link_bytes",
        "offer", "record_drop", "record_congestion", "record_finish",
        "publish_totals",
    )

    def __init__(
        self,
        simulator: FabricSimulator,
        flows: Sequence[Flow],
    ) -> None:
        self.sim = simulator
        self.arrivals = sorted(flows, key=lambda f: f.start_time)
        self.arrival_count = len(self.arrivals)
        self.arrival_index = 0
        self.now = self.arrivals[0].start_time
        self.active: Dict[int, Flow] = {}
        self.remaining: Dict[int, float] = {}
        self.paths: Dict[int, Route] = {}
        self.flow_links: Dict[int, RouteLinks] = {}
        self.queueing: Dict[int, float] = {}
        self.results: List[FlowStats] = []
        self.in_use: Set[Link] = set()
        self.extra_users: Dict[Link, int] = {}
        self.bottleneck: Dict[int, float] = {}
        self.capacities = simulator._capacities
        self.rates: Dict[int, float] = {}
        self.fair_rates: Dict[int, float] = {}
        self.hot_exposure: Dict[int, int] = {}
        self.saturated: AbstractSet[Link] = _NO_LINKS
        self.congested: AbstractSet[Link] = _NO_LINKS
        self.finished: List[int] = []
        # Wall-clock phase attribution: with no profiler, `timed` hands
        # each hot call back untouched.
        profiler = getattr(simulator.telemetry, "profiler", None)
        self.route = timed(profiler, PHASE_ROUTING, simulator._route)
        self.solve = timed(
            profiler, PHASE_CONGESTION, simulator._policy_adjusted_rates
        )
        self.ledger = self.link_bytes = None
        if simulator.telemetry is not None:
            ledger = self.ledger = _RunTelemetry(simulator.telemetry)
            self.link_bytes = ledger.link_bytes
            self.offer = timed(profiler, PHASE_TELEMETRY, ledger.offer)
            self.record_drop = timed(profiler, PHASE_TELEMETRY, ledger.drop)
            self.record_congestion = timed(
                profiler, PHASE_TELEMETRY, ledger.congestion
            )
            self.record_finish = timed(profiler, PHASE_TELEMETRY, ledger.finish)
            self.publish_totals = timed(
                profiler, PHASE_TELEMETRY, ledger.publish
            )

    # --- link users ---------------------------------------------------------

    def _count(self, links: RouteLinks) -> None:
        """Add one traversal of each of ``links``.

        :meth:`admit` counts a path whose links are all free, and
        traversed once each, with one set update; this is the general
        case, one traversal at a time.
        """
        in_use = self.in_use
        extra_users = self.extra_users
        for link in links:
            if link in in_use:
                extra_users[link] = extra_users.get(link, 0) + 1
            else:
                in_use.add(link)

    def _uncount(self, links: RouteLinks) -> None:
        """Take one traversal of each of ``links`` away."""
        extra_users = self.extra_users
        if not extra_users:  # the flow was these links' one user
            self.in_use.difference_update(links)
            return
        in_use = self.in_use
        for link in links:
            extra = extra_users.get(link)
            if extra is None:
                in_use.remove(link)
            elif extra == 1:
                del extra_users[link]
            else:
                extra_users[link] = extra - 1

    def _move(self, flow_id: int, path: Route, links: RouteLinks) -> None:
        """Put an active flow on a new path (its bottleneck is the
        caller's to set)."""
        self._uncount(self.flow_links[flow_id])
        self.paths[flow_id] = path
        self.flow_links[flow_id] = links
        self._count(links)

    # --- the steps ----------------------------------------------------------

    def admit(self) -> None:
        """Admit the arrivals due now: route them and count their links.

        Admission order is the arrival order, so the offered-bytes ledger
        takes the epoch's arrivals in one call ahead of routing them.
        """
        first = due = self.arrival_index
        arrivals = self.arrivals
        count = self.arrival_count
        now = self.now
        while due < count and arrivals[due].start_time <= now + 1e-15:
            due += 1
        if due == first:
            return
        admitted = arrivals[first:due]
        self.arrival_index = due
        ledger = self.ledger
        if ledger is not None:
            # Conservation ledger: every admitted byte must later land in
            # fabric.flow_bytes or fabric.flow_bytes_lost.
            self.offer(admitted)
        route = self.route
        capacity = self.capacities.__getitem__
        active = self.active
        remaining = self.remaining
        paths = self.paths
        flow_links = self.flow_links
        bottleneck = self.bottleneck
        queueing = self.queueing
        in_use = self.in_use
        for flow in admitted:
            try:
                path, links = route(flow)
            except (NetworkXNoPath, NodeNotFound):
                # No path at admission: dead on arrival.
                stats = _flow_stats(
                    flow, max(now, flow.start_time), 0, 0.0, 0.0, True, 0.0,
                )
                self.results.append(stats)
                if ledger is not None:
                    self.record_drop(stats)
                continue
            flow_id = flow.flow_id
            active[flow_id] = flow
            remaining[flow_id] = flow.size
            paths[flow_id] = path
            flow_links[flow_id] = links
            bottleneck[flow_id] = min(map(capacity, links))
            queueing.setdefault(flow_id, 0.0)
            if in_use.isdisjoint(links):
                free = len(in_use)
                in_use.update(links)
                if len(in_use) - free == len(links):
                    continue
                in_use.difference_update(links)  # it crosses a link twice
            self._count(links)

    def idle(self) -> None:
        """No flow is active: jump to the next arrival."""
        self.now = self.arrivals[self.arrival_index].start_time

    def set_rates(self) -> None:
        """Each active flow's rate, the victims' hot-switch exposure and
        the congested links, which the ledger records."""
        if self.extra_users:
            self.fair_rates, self.rates, self.hot_exposure, self.saturated = (
                self.solve(self.paths, self.flow_links, self.remaining)
            )
            if (
                self.sim.reroute_adaptively
                and self.saturated
                and self._reroute_hot_flows()
            ):
                (self.fair_rates, self.rates, self.hot_exposure,
                 self.saturated) = self.solve(
                    self.paths, self.flow_links, self.remaining
                )
        else:
            # No link has two users: each flow's rate is its bottleneck.
            self.fair_rates = self.rates = self.bottleneck
            self.hot_exposure = {}
            self.saturated = _NO_LINKS
        ledger = self.ledger
        if ledger is not None and (
            self.saturated or self.congested or ledger.tracer.enabled
        ):
            self.congested = self.record_congestion(
                self.now, self.saturated, self.congested, len(self.active)
            )

    def _reroute_hot_flows(self) -> bool:
        """Detour the flows crossing a congested link via Valiant paths.

        ``saturated`` is the congested-link set of the epoch's solve on
        the current paths, so re-solving here would reproduce it
        bit-for-bit at double cost.
        """
        sim = self.sim
        saturated = self.saturated
        flow_links = self.flow_links
        capacity = self.capacities.__getitem__
        rerouted = False
        for flow_id, path in list(self.paths.items()):
            if not saturated.isdisjoint(flow_links[flow_id]):
                source, destination = path[0], path[-1]
                detour = tuple(valiant_route(
                    sim.topology, source, destination, rng=sim.rng
                ))
                if detour != path:
                    links = sim._links_of(detour)
                    self._move(flow_id, detour, links)
                    self.bottleneck[flow_id] = min(map(capacity, links))
                    rerouted = True
        return rerouted

    def accrue_penalties(self) -> None:
        """Accrue queueing penalties for victims (once per exposure
        interval)."""
        hot_exposure = self.hot_exposure
        if not hot_exposure:
            return
        queueing = self.queueing
        extra_latency = self.sim.congestion.victim_extra_latency
        for flow_id, exposure in hot_exposure.items():
            queueing[flow_id] = max(queueing[flow_id], extra_latency(exposure))

    def next_event(self) -> float:
        """Time to the next event: the earliest completion at this
        epoch's rates or the next arrival."""
        infinity = math.inf
        remaining = self.remaining
        next_completion = infinity
        for flow_id, rate in self.rates.items():
            if rate <= 0:
                continue
            until = remaining[flow_id] / rate
            if until < next_completion:
                next_completion = until
        now = self.now
        next_arrival = (
            self.arrivals[self.arrival_index].start_time - now
            if self.arrival_index < self.arrival_count
            else infinity
        )
        step = min(next_completion, next_arrival)
        if step == infinity:
            self.publish()
            raise SimulationError("fabric deadlock: no progress possible")
        return max(step, 0.0)

    def advance(self, step: float) -> None:
        """Advance the clock by ``step`` and every flow at its rate.

        ``remaining`` holds exactly the active flows, in admission order;
        the same pass adds up the link bytes and notes finished flows.
        """
        self.now += step
        rate_of = self.rates.get
        remaining = self.remaining
        link_bytes = self.link_bytes
        flow_links = self.flow_links
        finished = self.finished = []
        for flow_id, left in remaining.items():
            moved = rate_of(flow_id, 0.0) * step
            remaining[flow_id] = left = left - moved
            if left <= 1e-9:
                finished.append(flow_id)
            if link_bytes is not None and moved > 0:
                for link in flow_links[flow_id]:
                    link_bytes[link] += moved

    def finish(self) -> None:
        """Retire the flows the advance finished and release their links."""
        finished = self.finished
        if not finished:
            return
        active = self.active
        paths = self.paths
        flow_links = self.flow_links
        remaining = self.remaining
        bottleneck = self.bottleneck
        queueing = self.queueing
        in_use = self.in_use
        extra_users = self.extra_users
        propagation_delay = self.sim._route_cache.propagation_delay
        now = self.now
        done: List[FlowStats] = []
        for flow_id in finished:
            flow = active.pop(flow_id)
            path = paths.pop(flow_id)
            if extra_users:
                self._uncount(flow_links.pop(flow_id))
            else:  # the flow was its links' one user
                in_use.difference_update(flow_links.pop(flow_id))
            del remaining[flow_id]
            del bottleneck[flow_id]
            propagation = propagation_delay(path)
            extra = queueing.pop(flow_id, 0.0)
            done.append(_flow_stats(
                flow, now + propagation + extra, len(path) - 1,
                propagation, extra,
            ))
        self.results.extend(done)
        if self.ledger is not None:
            self.record_finish(done)

    # --- the end of the run -------------------------------------------------

    def publish(self) -> None:
        """Write the run's telemetry totals, if it records any."""
        if self.ledger is not None:
            self.publish_totals()

    def close(self) -> List[FlowStats]:
        """Publish the run's totals and return every flow's statistics."""
        self.publish()
        return self.results


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

    def offer(self, flows: Sequence[Flow]) -> None:
        """Account the bytes of newly admitted flows (the offered ledger)."""
        offered = self.offered
        for flow in flows:
            tag = flow.tag or "flow"
            total = offered.get(tag)
            if total is None:
                total = self.telemetry.counter(
                    "fabric.flow_bytes_offered",
                    "bytes injected at flow admission",
                ).value(tag=tag)
            offered[tag] = total + flow.size

    def finish(self, done: Sequence[FlowStats]) -> None:
        """Account finished flows: FCT histogram, bytes and a trace span."""
        if self._fct is None:
            self._fct = self.telemetry.histogram(
                "fabric.fct_seconds", FCT_BUCKETS, "flow completion time"
            )
        fct, fcts, delivered = self._fct, self.fcts, self.delivered
        spans = self.tracer.spans if self.tracer.enabled else None
        for stats in done:
            tag = stats.tag or "flow"
            seconds = stats.completion_time
            series = fcts.get(tag)
            if series is None:
                series = fcts[tag] = [fct.counts(tag=tag), fct.sum(tag=tag)]
            series[0][bucket_index(FCT_BUCKETS, seconds)] += 1
            series[1] += seconds
            total = delivered.get(tag)
            if total is None:
                total = self.telemetry.counter("fabric.flow_bytes").value(tag=tag)
            delivered[tag] = total + stats.size
            if spans is not None:
                spans.append(span_record(
                    f"flow:{tag}", CATEGORY_FLOW, stats.start_time,
                    stats.finish_time, {"flow_id": stats.flow_id,
                                        "bytes": stats.size,
                                        "hops": stats.path_hops},
                ))

    def drop(self, stats: FlowStats) -> None:
        """Account one flow dropped at admission: all of its bytes are
        lost, and it leaves no FCT sample."""
        tag = stats.tag or "flow"
        self.telemetry.counter(
            "fabric.flows.dropped", "flows with no path to their destination"
        ).inc(tag=tag)
        self.telemetry.counter(
            "fabric.flow_bytes_lost",
            "offered bytes that never reached their destination",
        ).inc(stats.size, tag=tag)
        self.tracer.complete(
            f"flow:{tag}", CATEGORY_FLOW, stats.start_time, stats.finish_time,
            flow_id=stats.flow_id, bytes=stats.delivered_bytes, dropped=True,
        )

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
