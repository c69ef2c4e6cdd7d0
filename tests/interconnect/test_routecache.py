"""Tests for the topology-keyed route cache and its fabric integration."""

import gc

import networkx as nx
import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.fabric import FabricSimulator, Flow, LinkEvent
from repro.interconnect.failures import fail_links, fail_switches
from repro.interconnect.graph import DiGraph, Graph, NetworkXNoPath, NodeNotFound
from repro.interconnect.routecache import (
    RouteCache,
    cached_topology_count,
    route_cache_for,
)
from repro.interconnect.topology import (
    Topology,
    build_topology,
)
from repro.sweep.targets import _FABRIC_TOPOLOGIES
from repro.validate.differential import networkx_twin


def _uniform_flows(topology, count, seed=11, size=1e6):
    rng = RandomSource(seed=seed, name="routecache-test")
    terminals = list(topology.terminals)
    flows = []
    for index in range(count):
        source, destination = rng.sample(terminals, 2)
        flows.append(
            Flow(
                source=source, destination=destination, size=size,
                start_time=index * 1e-4,
            )
        )
    return flows


def _stats_key(stats):
    return [
        (s.tag, s.size, s.start_time, s.finish_time, s.path_hops,
         s.propagation_delay, s.extra_queueing)
        for s in stats
    ]


class TestRouteCache:
    def test_minimal_route_memoised(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        terminals = topology.terminals
        first = cache.minimal_route(terminals[0], terminals[-1])
        second = cache.minimal_route(terminals[0], terminals[-1])
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_links_of_memoised_for_canonical_paths(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        terminals = topology.terminals
        path = cache.minimal_route(terminals[0], terminals[-1])
        assert cache.links_of(path) is cache.links_of(path)
        # A non-canonical path (fresh list) decomposes correctly too.
        detour = list(path)
        assert cache.links_of(detour) == cache.links_of(path)

    def test_link_capacities_shared_map(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        assert cache.link_capacities() is cache.link_capacities()

    @pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -5e9])
    def test_bad_link_bandwidth_fails_naming_the_link(self, bandwidth):
        # A hand-edited edge bypasses TopologySpec's link_bandwidth check.
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        u, v = next(iter(topology.graph.edges()))
        topology.graph.edges[u, v]["bandwidth"] = bandwidth
        with pytest.raises(ConfigurationError) as raised:
            RouteCache(topology).link_capacities()
        assert f"link ({u!r}, {v!r}) bandwidth" in str(raised.value)
        with pytest.raises(ConfigurationError, match="bandwidth must be"):
            FabricSimulator(topology)

    def test_route_cache_for_is_per_topology(self):
        a = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        b = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        assert route_cache_for(a) is route_cache_for(a)
        assert route_cache_for(a) is not route_cache_for(b)

    def test_cache_entry_dies_with_topology(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        route_cache_for(topology)
        before = cached_topology_count()
        del topology
        gc.collect()
        assert cached_topology_count() < before

    def test_stats_rendering(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = route_cache_for(topology)
        stats = cache.stats()
        assert set(stats) >= {"routes", "hits", "misses"}


@pytest.mark.parametrize(
    "topology_factory",
    [
        lambda: build_topology("dragonfly", groups=4, routers_per_group=3, terminals=2),
        lambda: build_topology("fat-tree", k=4),
        lambda: build_topology("hyperx", dims=(3, 3), terminals=2),
    ],
    ids=["dragonfly", "fat-tree", "hyperx"],
)
class TestCachedRunsMatchUncached:
    def test_identical_flow_stats(self, topology_factory):
        # Every flow's hops and propagation delay are those of the
        # uncached networkx route, its latencies summed left to right.
        topology = topology_factory()
        graph = networkx_twin(topology.graph)
        flows = {f.flow_id: f for f in _uniform_flows(topology, 40)}
        stats = FabricSimulator(topology).run(list(flows.values()))
        assert sorted(s.flow_id for s in stats) == sorted(flows)
        for s in stats:
            flow = flows[s.flow_id]
            path = nx.shortest_path(graph, flow.source, flow.destination)
            delay = 0.0
            for u, v in zip(path, path[1:]):
                delay += float(graph.edges[u, v]["latency"])
            assert s.path_hops == len(path) - 1
            assert s.propagation_delay == delay

    def test_repeated_runs_identical(self, topology_factory):
        topology = topology_factory()
        simulator = FabricSimulator(topology)
        first = simulator.run(_uniform_flows(topology, 30))
        second = simulator.run(_uniform_flows(topology, 30))
        assert _stats_key(first) == _stats_key(second)
        assert simulator._route_cache.hits > 0


class TestInvalidation:
    def test_degraded_topology_reroutes(self):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        # Warm the healthy topology's cache.
        FabricSimulator(topology).run(_uniform_flows(topology, 20))
        degraded = fail_links(topology, fraction=0.2, rng=RandomSource(seed=5))
        healthy_cache = route_cache_for(topology)
        degraded_cache = route_cache_for(degraded.topology)
        assert degraded_cache is not healthy_cache
        assert degraded_cache.stats()["routes"] == 0
        # Routes on the degraded fabric only use surviving links.
        alive = set(degraded.topology.graph.edges())
        simulator = FabricSimulator(degraded.topology)
        stats = simulator.run(_uniform_flows(degraded.topology, 20))
        assert stats
        cache = simulator._route_cache
        for (src, dst), path in cache._paths.items():
            for a, b in zip(path, path[1:]):
                assert (a, b) in alive or (b, a) in alive

    def test_failed_switches_invalidate(self):
        topology = build_topology("fat-tree", k=4)
        FabricSimulator(topology).run(_uniform_flows(topology, 10))
        degraded = fail_switches(topology, count=1, rng=RandomSource(seed=9))
        assert route_cache_for(degraded.topology).stats()["routes"] == 0
        stats = FabricSimulator(degraded.topology).run(
            _uniform_flows(degraded.topology, 10)
        )
        assert stats

    def test_in_place_edge_removal_is_noticed(self):
        """Mutating topology.graph in place moves its mutation count; the
        shared cache drops its routes and reroutes around the removed
        edge on the next lookup."""
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        cache = route_cache_for(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        stale = cache.minimal_route(source, destination)
        # Cut the switch-to-switch edge the cached route crosses.
        u, v = next(
            (a, b) for a, b in zip(stale, stale[1:])
            if a in topology.switches and b in topology.switches
        )
        topology.graph.remove_edge(u, v)
        fresh = cache.minimal_route(source, destination)
        assert fresh is not stale
        hops = list(zip(fresh, fresh[1:]))
        assert (u, v) not in hops and (v, u) not in hops
        assert all(topology.graph.has_edge(a, b) for a, b in hops)
        assert route_cache_for(topology) is cache
        assert cache.misses == 2

    def test_unchanged_graph_keeps_its_routes(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        cache = route_cache_for(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        first = cache.minimal_route(source, destination)
        # Attribute reads and edits are not structural changes.
        topology.graph.nodes[source]["note"] = "read"
        assert cache.minimal_route(source, destination) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_fabric_refresh_rebuilds_after_in_place_mutation(self):
        """FabricSimulator._refresh_link_state rebinds the solver to a
        capacity map rebuilt from the mutated graph."""
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        simulator = FabricSimulator(topology)
        before = dict(simulator._capacities)
        victim = next(
            (u, v) for u, v in topology.graph.edges()
            if topology.graph.nodes[u].get("role") == "switch"
            and topology.graph.nodes[v].get("role") == "switch"
        )
        attrs = dict(topology.graph.edges[victim])
        topology.graph.remove_edge(*victim)
        try:
            simulator._refresh_link_state()
            assert victim not in simulator._capacities
            assert victim[::-1] not in simulator._capacities
            assert len(simulator._capacities) == len(before) - 2
            assert simulator._route_cache is route_cache_for(topology)
            stats = simulator.run(_uniform_flows(topology, 10))
            assert stats
        finally:
            topology.graph.add_edge(*victim, **attrs)


    def test_simulator_bound_before_another_ones_flaps_still_runs(self):
        # Both simulators share the topology's cache; a link event in the
        # first rebuilds the capacity map the second was bound to.
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        early = FabricSimulator(topology)
        flapping = FabricSimulator(topology)
        victim = next(
            (u, v) for u, v in topology.graph.edges()
            if u in topology.switches and v in topology.switches
        )
        flows = _uniform_flows(topology, 10)
        flapping.run(flows, link_events=[LinkEvent(time=0.0, link=victim)])
        fresh = FabricSimulator(topology).run(flows)
        assert _stats_key(early.run(flows)) == _stats_key(fresh)

    def test_attribute_edit_is_seen_after_clear(self):
        # An attribute edited in place does not move ``mutations``;
        # clear() makes the next run read the new bandwidths.
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        simulator = FabricSimulator(topology)
        flows = _uniform_flows(topology, 10)
        before = simulator.run(flows)
        for _, _, attrs in topology.graph.edges(data=True):
            attrs["bandwidth"] /= 10
        route_cache_for(topology).clear()
        after = simulator.run(flows)
        reference = FabricSimulator(
            Topology(topology.name, topology.graph.copy())
        ).run(flows)
        assert _stats_key(after) == _stats_key(reference)
        assert after[0].finish_time > before[0].finish_time


class TestShortestPathPort:
    """The cache's own bidirectional BFS must return exactly the path
    ``nx.shortest_path`` returns, and raise what it raises."""

    @pytest.mark.parametrize("kind", sorted(_FABRIC_TOPOLOGIES))
    def test_all_pairs_match_networkx(self, kind):
        topology = build_topology(kind, **_FABRIC_TOPOLOGIES[kind])
        graph = networkx_twin(topology.graph)
        cache = RouteCache(topology)
        nodes = list(graph.nodes)
        for source in nodes:
            for destination in nodes:
                assert cache.minimal_route(source, destination) == (
                    nx.shortest_path(graph, source, destination)
                ), (source, destination)

    def test_directed_graph_matches_networkx(self):
        random_graph = nx.gnp_random_graph(24, 0.12, seed=5, directed=True)
        digraph = DiGraph()
        digraph.add_nodes_from(random_graph, role="switch")
        digraph.add_edges_from(random_graph.edges)
        graph = networkx_twin(digraph)
        topology = Topology("random-digraph", digraph)
        cache = RouteCache(topology)
        for source in graph:
            for destination in graph:
                try:
                    expected = nx.shortest_path(graph, source, destination)
                except nx.NetworkXNoPath:
                    with pytest.raises(NetworkXNoPath):
                        cache.minimal_route(source, destination)
                    continue
                assert cache.minimal_route(source, destination) == expected

    def test_source_equals_destination(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        node = topology.terminals[0]
        assert RouteCache(topology).minimal_route(node, node) == [node]

    def test_unknown_node_raises_node_not_found(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        cache = RouteCache(topology)
        known = topology.terminals[0]
        for source, destination in (("nowhere", known), (known, "nowhere")):
            with pytest.raises(NodeNotFound) as ours:
                cache.minimal_route(source, destination)
            with pytest.raises(nx.NodeNotFound) as theirs:
                nx.shortest_path(
                    networkx_twin(topology.graph), source, destination
                )
            assert str(ours.value) == str(theirs.value)

    def test_disconnected_pair_raises_no_path(self):
        graph = Graph()
        graph.add_nodes_from("abcd", role="switch")
        graph.add_edge("a", "b", bandwidth=1e9, latency=1e-6)
        graph.add_edge("c", "d", bandwidth=1e9, latency=1e-6)
        cache = RouteCache(Topology("split", graph))
        with pytest.raises(NetworkXNoPath) as ours:
            cache.minimal_route("a", "d")
        with pytest.raises(nx.NetworkXNoPath) as theirs:
            nx.shortest_path(networkx_twin(graph), "a", "d")
        assert str(ours.value) == str(theirs.value)

    def test_propagation_delay_is_the_per_edge_sum(self):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        graph = topology.graph
        cache = RouteCache(topology)
        terminals = topology.terminals
        for destination in terminals[1:]:
            path = cache.minimal_route(terminals[0], destination)
            detour = path + path[-2::-1]  # there and back: not memoised
            for route in (path, detour):
                assert cache.propagation_delay(route) == sum(
                    float(graph.edges[u, v]["latency"])
                    for u, v in zip(route, route[1:])
                )

    def test_propagation_delay_sums_left_to_right(self):
        # Float addition is order dependent: (0.1 + 0.2) + 0.3 differs
        # from 0.3 + 0.2 + 0.1 in the last bit.
        graph = Graph()
        graph.add_nodes_from("abcd", role="switch")
        for (u, v), latency in zip(
            [("a", "b"), ("b", "c"), ("c", "d")], [0.1, 0.2, 0.3]
        ):
            graph.add_edge(u, v, bandwidth=1e9, latency=latency)
        cache = RouteCache(Topology("line", graph))
        path = cache.minimal_route("a", "d")
        assert cache.propagation_delay(path) == 0.1 + 0.2 + 0.3
        assert cache.propagation_delay(path[::-1]) == 0.3 + 0.2 + 0.1
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1

    def test_maps_rebuilt_after_a_link_flap(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        graph = topology.graph
        cache = route_cache_for(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        before = cache.minimal_route(source, destination)
        cache.propagation_delay(before)
        u, v = next(
            (a, b) for a, b in zip(before, before[1:])
            if a in topology.switches and b in topology.switches
        )
        attrs = dict(graph.edges[u, v])
        graph.remove_edge(u, v)
        after = cache.minimal_route(source, destination)
        assert after == nx.shortest_path(
            networkx_twin(graph), source, destination
        )
        assert (u, v) not in zip(after, after[1:])
        assert v not in cache._successors[u]
        assert cache.propagation_delay(after) == sum(
            float(graph.edges[a, b]["latency"])
            for a, b in zip(after, after[1:])
        )
        assert (u, v) not in cache._latencies
        # Repair the link in place: the cache sees it again.
        graph.add_edge(u, v, **attrs)
        assert cache.minimal_route(source, destination) == before
        assert v in cache._successors[u]


class TestFabricKeywordApi:
    def test_too_many_positionals_raise(self):
        # Configuration is keyword-only: the topology is the one positional.
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        with pytest.raises(TypeError):
            FabricSimulator(topology, None)

    def test_keyword_construction_is_silent(self, recwarn):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        FabricSimulator(topology, routing="minimal")
        assert not [w for w in recwarn if w.category is DeprecationWarning]
