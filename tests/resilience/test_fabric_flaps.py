"""Tests for mid-run link flaps in the fabric simulator."""

import pytest

from repro.interconnect.fabric import FabricSimulator, Flow, LinkEvent
from repro.interconnect.graph import Graph
from repro.interconnect.routing import minimal_route
from repro.interconnect.topology import Topology, build_topology
from repro.observability import Telemetry

BANDWIDTH = 25e9
LATENCY = 1e-6


def diamond_topology():
    """Two disjoint switch paths between the terminals, one strictly
    shorter: ta-a-b-d-td (4 hops) versus ta-a-c-e-d-td (5 hops).

    The unique shortest path makes reroute behaviour deterministic:
    cutting (b, d) forces the long way round; cutting (c, e) as well
    disconnects the terminals entirely.
    """
    graph = Graph()
    for switch in "abced":
        graph.add_node(switch, role="switch")
    for terminal, switch in (("ta", "a"), ("td", "d")):
        graph.add_node(terminal, role="terminal", attached_to=switch)
        graph.add_edge(
            terminal, switch, bandwidth=BANDWIDTH, latency=LATENCY, optical=False
        )
    for u, v in (("a", "b"), ("b", "d"), ("a", "c"), ("c", "e"), ("e", "d")):
        graph.add_edge(u, v, bandwidth=BANDWIDTH, latency=LATENCY, optical=False)
    return Topology(name="diamond", graph=graph)


def run_flaps(events, size=1e9, start_time=0.0, telemetry=None, topology=None):
    sim = FabricSimulator(topology or diamond_topology(), telemetry=telemetry)
    [stats] = sim.run(
        [Flow(source="ta", destination="td", size=size, start_time=start_time)],
        link_events=events,
    )
    return stats


class TestReroute:
    def test_in_flight_flow_survives_a_cut(self):
        telemetry = Telemetry()
        stats = run_flaps(
            [LinkEvent(0.02, ("b", "d"))], telemetry=telemetry
        )
        assert not stats.dropped
        assert stats.delivered_bytes == stats.size
        assert stats.path_hops == 5  # finished on the long way round
        assert telemetry.counter("fabric.flows.rerouted").total() == 1
        assert telemetry.counter("fabric.flows.dropped").total() == 0

    def test_reroute_costs_time(self):
        clean = run_flaps([])
        rerouted = run_flaps([LinkEvent(0.02, ("b", "d"))])
        assert rerouted.completion_time > clean.completion_time

    def test_unrelated_cut_leaves_flow_alone(self):
        telemetry = Telemetry()
        stats = run_flaps(
            [LinkEvent(0.02, ("c", "e"))], telemetry=telemetry
        )
        assert not stats.dropped
        assert stats.path_hops == 4
        assert telemetry.counter("fabric.flows.rerouted").total() == 0


class TestDrop:
    def test_no_surviving_path_drops_with_partial_bytes(self):
        telemetry = Telemetry()
        stats = run_flaps(
            [LinkEvent(0.02, ("b", "d")), LinkEvent(0.02, ("c", "e"))],
            telemetry=telemetry,
        )
        assert stats.dropped
        # ~0.02 s at line rate made it across before the cut.
        assert stats.delivered_bytes == pytest.approx(0.02 * BANDWIDTH, rel=0.05)
        assert stats.delivered_bytes < stats.size
        assert telemetry.counter("fabric.flows.dropped").total() == 1

    def test_dead_on_arrival_delivers_nothing(self):
        stats = run_flaps(
            [LinkEvent(0.0, ("b", "d")), LinkEvent(0.0, ("c", "e"))],
            start_time=0.01,
        )
        assert stats.dropped
        assert stats.delivered_bytes == 0.0

    def test_delivered_never_exceeds_size(self):
        for cut_at in (0.001, 0.01, 0.03):
            stats = run_flaps(
                [LinkEvent(cut_at, ("b", "d")), LinkEvent(cut_at, ("c", "e"))]
            )
            assert 0.0 <= stats.delivered_bytes <= stats.size


class TestRepair:
    def test_flow_after_repair_takes_the_short_path(self):
        stats = run_flaps(
            [LinkEvent(0.0, ("b", "d")), LinkEvent(0.05, ("b", "d"), up=True)],
            start_time=0.1,
        )
        assert not stats.dropped
        assert stats.path_hops == 4

    def test_flow_during_outage_takes_the_long_path(self):
        stats = run_flaps(
            [LinkEvent(0.0, ("b", "d")), LinkEvent(10.0, ("b", "d"), up=True)],
            start_time=0.01,
        )
        assert not stats.dropped
        assert stats.path_hops == 5

    def test_repair_of_healthy_link_is_a_noop(self):
        stats = run_flaps([LinkEvent(0.01, ("b", "d"), up=True)])
        assert not stats.dropped
        assert stats.path_hops == 4


class TestTopologyIntegrity:
    def test_graph_restored_after_run_with_unrepaired_cut(self):
        """The shared Topology must come back intact even when the run
        ends with links still down."""
        topology = diamond_topology()
        edges_before = set(map(frozenset, topology.graph.edges))
        run_flaps([LinkEvent(0.02, ("b", "d"))], topology=topology)
        assert set(map(frozenset, topology.graph.edges)) == edges_before
        # And a fresh run on the same topology uses the short path again.
        follow_up = run_flaps([], topology=topology)
        assert follow_up.path_hops == 4

    @pytest.mark.parametrize("kind, spec", [
        ("dragonfly", {"groups": 6, "routers_per_group": 4, "terminals": 4}),
        ("fat-tree", {"k": 6}),
    ])
    def test_flapped_fabric_routes_like_a_fresh_build(self, kind, spec):
        """A repaired link returns to its place in each endpoint's
        neighbour order, so shortest paths break ties exactly as on a
        fresh build: mid-run repairs and the end-of-run restore alike."""
        topology = build_topology(kind, **spec)
        switches = set(topology.switches)
        hub = topology.switches[0]
        spokes = [n for n in topology.graph.adj[hub] if n in switches][:3]
        spread = [
            (u, v) for u, v in topology.graph.edges
            if u in switches and v in switches and hub not in (u, v)
        ][::7][:3]
        events = [
            # Three overlapping outages on one switch, repaired out of
            # order; the last is still down when the workload drains.
            LinkEvent(0.010, (hub, spokes[0])),
            LinkEvent(0.020, (hub, spokes[1])),
            LinkEvent(0.030, (hub, spokes[2])),
            LinkEvent(0.050, (hub, spokes[1]), up=True),
            LinkEvent(0.060, (hub, spokes[0]), up=True),
        ]
        for index, link in enumerate(spread):
            events.append(LinkEvent(0.012 + 0.01 * index, link))
            events.append(LinkEvent(0.045 + 0.01 * index, link, up=True))
        terminals = topology.terminals
        FabricSimulator(topology).run(
            [Flow(source=terminals[0], destination=terminals[-1], size=5e9)],
            link_events=events,
        )

        fresh = build_topology(kind, **spec)
        for node in fresh.graph:
            assert list(topology.graph.adj[node]) == list(fresh.graph.adj[node])
        for source in terminals:
            for destination in terminals:
                if source != destination:
                    assert minimal_route(topology, source, destination) == (
                        minimal_route(fresh, source, destination)
                    )
