"""Tests for the topology-keyed route cache and its fabric integration."""

import gc
import sys
import threading

import networkx as nx
import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect import routecache
from repro.interconnect.graph import (
    DiGraph, Graph, GraphError, NetworkXNoPath, NodeNotFound,
)
from repro.interconnect.routecache import RouteCache, route_cache_for
from repro.interconnect.topology import (
    Topology,
    build_topology,
)
from repro.sweep.targets import _FABRIC_TOPOLOGIES
from repro.validate.differential import networkx_twin
from tests.interconnect._edit import edited


#: The perfbench ``fabric_burst`` dragonfly.
_BURST_DRAGONFLY = {"groups": 8, "routers_per_group": 4, "terminals": 2}


@pytest.fixture(autouse=True)
def cold_spec_maps(monkeypatch):
    """Each test starts from an empty process-wide table of spec maps, so
    its search counts do not depend on the tests before it."""
    monkeypatch.setattr(routecache, "_SPEC_MAPS", {})
    return routecache._SPEC_MAPS


@pytest.fixture
def searches(monkeypatch):
    """Counts the route cache's shortest-path searches, in every cache."""
    counted = []
    search = RouteCache._shortest_path

    def counting_search(cache, source, target):
        counted.append((source, target))
        return search(cache, source, target)

    monkeypatch.setattr(RouteCache, "_shortest_path", counting_search)
    return counted


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
        # Siblings on the same switch pair reuse the search's core, and
        # two terminals of one leaf need none.
        assert cache.minimal_route(terminals[1], terminals[-2]) == (
            terminals[1], *first[1:-1], terminals[-2]
        )
        assert cache.minimal_route(terminals[0], terminals[1]) == (
            terminals[0], first[1], terminals[1],
        )
        assert cache.hits == 3 and cache.misses == 1

    def test_links_of_memoised_for_canonical_paths(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        terminals = topology.terminals
        path = cache.minimal_route(terminals[0], terminals[-1])
        assert cache.links_of(path) is cache.links_of(path)
        # A non-canonical path (fresh list) decomposes correctly too.
        detour = list(path)
        assert cache.links_of(detour) == cache.links_of(path)

    def test_returned_routes_and_links_cannot_be_edited(self):
        # They are shared by every caller (and, through the spec's core
        # table, by other topologies): an in-place edit must raise.
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        path, links = cache.minimal_route_links(source, destination)
        assert path is cache.minimal_route(source, destination)
        assert links is cache.links_of(path)
        for shared in (path, links):
            with pytest.raises(TypeError):
                shared[0] = shared[-1]
            with pytest.raises(AttributeError):
                shared.append(shared[0])
            with pytest.raises(TypeError):
                shared[:] = []
        # Concatenating builds a new route and leaves the memo alone.
        longer = path + path[-2::-1]
        assert len(longer) == 2 * len(path) - 1
        assert cache.minimal_route(source, destination) == path
        assert len(cache.links_of(list(path))) == len(path) - 1

    @pytest.mark.parametrize("kind", sorted(_FABRIC_TOPOLOGIES))
    def test_every_lookup_hands_out_tuples(self, kind):
        # Terminal pairs (from a switch pair's core, from the shared
        # attachment switch) and switch pairs (searched on their own).
        topology = build_topology(kind, **_FABRIC_TOPOLOGIES[kind])
        cache = route_cache_for(topology)
        terminals, switches = topology.terminals, topology.switches
        for source, destination in [
            (terminals[0], terminals[-1]), (terminals[-1], terminals[0]),
            (terminals[0], terminals[1]), (switches[0], switches[-1]),
            (terminals[0], switches[-1]),
        ]:
            path, links = cache.minimal_route_links(source, destination)
            assert type(path) is tuple and type(links) is tuple
            assert links == tuple(zip(path, path[1:]))
            assert cache.links_of(path) is links
            assert type(cache.links_of(list(path))) is tuple

    def test_fabric_paths_are_tuples_under_both_routings(self):
        topology = build_topology("dragonfly", groups=4, routers_per_group=3,
                                  terminals=2)
        for routing in ("minimal", "valiant"):
            simulator = FabricSimulator(topology, routing=routing)
            flow = Flow(topology.terminals[0], topology.terminals[-1], 1e6)
            path, links = simulator._route(flow)
            assert type(path) is tuple and type(links) is tuple
            assert links == tuple(zip(path, path[1:]))

    def test_link_capacities_shared_map(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = RouteCache(topology)
        assert cache.link_capacities() is cache.link_capacities()

    def test_shared_link_maps_cannot_be_edited(self):
        # Capacities, latencies and neighbour tuples are shared by every
        # simulator on the topology and, through the spec's table, by
        # every topology of its spec: an in-place edit must raise.
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        cache = route_cache_for(topology)
        path = cache.minimal_route(topology.terminals[0], topology.terminals[-1])
        cache.propagation_delay(path)
        link = (path[0], path[1])
        for shared in (cache.link_capacities(), cache._latencies):
            with pytest.raises(TypeError):
                shared[link] = 1.0
            with pytest.raises(TypeError):
                del shared[link]
            with pytest.raises(AttributeError):
                shared.update({link: 1.0})
        neighbours = cache._successors
        with pytest.raises(TypeError):
            neighbours[path[0]] = ()
        with pytest.raises(TypeError):
            neighbours[path[0]][0] = path[-1]
        with pytest.raises(AttributeError):
            neighbours[path[0]].append(path[-1])
        assert cache.link_capacities()[link] == 25e9
        assert list(neighbours[path[0]]) == list(topology.graph.adj[path[0]])

    @pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -5e9])
    def test_bad_link_bandwidth_fails_naming_the_link(self, bandwidth):
        # A hand-edited edge bypasses TopologySpec's link_bandwidth check.
        built = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        u, v = next(iter(built.graph.edges()))

        def set_bandwidth(graph):
            graph.edges[u, v]["bandwidth"] = bandwidth

        topology = edited(built, set_bandwidth)
        with pytest.raises(ConfigurationError) as raised:
            RouteCache(topology).link_capacities()
        assert f"link ({u!r}, {v!r}) bandwidth" in str(raised.value)
        with pytest.raises(ConfigurationError, match="bandwidth must be"):
            FabricSimulator(topology)
        # The edited copy's failed build published nothing to its spec.
        sibling = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        assert set(route_cache_for(sibling).link_capacities().values()) == {
            25e9
        }

    def test_route_cache_for_is_per_topology(self):
        a = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        b = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        assert route_cache_for(a) is route_cache_for(a)
        assert route_cache_for(a) is not route_cache_for(b)

    def test_cache_entry_dies_with_topology(self):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        route_cache_for(topology)
        before = len(routecache._CACHES)
        del topology
        gc.collect()
        assert len(routecache._CACHES) < before

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
    """A degraded fabric is a new topology, built on an edited copy of the
    graph: its cache starts cold and never sees its parent's routes."""

    def test_degraded_topology_reroutes(self):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        # Warm the healthy topology's cache.
        FabricSimulator(topology).run(_uniform_flows(topology, 20))
        # Fail every fifth switch-to-switch link (4 of 18) in a copy.
        switches = set(topology.switches)
        graph = topology.graph.copy()
        graph.remove_edges_from([
            (u, v) for u, v in graph.edges() if u in switches and v in switches
        ][::5])
        degraded = Topology("degraded", graph)
        healthy_cache = route_cache_for(topology)
        degraded_cache = route_cache_for(degraded)
        assert degraded_cache is not healthy_cache
        assert degraded_cache.stats()["routes"] == 0
        # Routes on the degraded fabric only use surviving links.
        alive = set(degraded.graph.edges())
        simulator = FabricSimulator(degraded)
        stats = simulator.run(_uniform_flows(degraded, 20))
        assert stats
        cache = simulator._route_cache
        for (src, dst), path in cache._paths.items():
            for a, b in zip(path, path[1:]):
                assert (a, b) in alive or (b, a) in alive

    def test_failed_switches_invalidate(self):
        topology = build_topology("fat-tree", k=4)
        FabricSimulator(topology).run(_uniform_flows(topology, 10))
        # Fail one edge switch, and the terminals attached to it, in a copy.
        victim = topology.switches[-1]
        graph = topology.graph.copy()
        graph.remove_nodes_from(
            [n for n in graph.neighbors(victim) if n in topology.terminals]
            + [victim]
        )
        degraded = Topology("degraded", graph)
        assert route_cache_for(degraded).stats()["routes"] == 0
        stats = FabricSimulator(degraded).run(_uniform_flows(degraded, 10))
        assert stats

    def test_an_edge_removed_in_a_deep_copy_is_routed_around(self):
        """A built topology's graph refuses the edit; a new topology on a
        deep copy without the edge starts cold and routes around it,
        while the original keeps its route."""
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        source, destination = topology.terminals[0], topology.terminals[-1]
        kept = route_cache_for(topology).minimal_route(source, destination)
        # Cut the switch-to-switch edge the cached route crosses.
        u, v = next(
            (a, b) for a, b in zip(kept, kept[1:])
            if a in topology.switches and b in topology.switches
        )
        with pytest.raises(GraphError, match="deepcopy"):
            topology.graph.remove_edge(u, v)
        cut = edited(topology, lambda graph: graph.remove_edge(u, v))
        cache = route_cache_for(cut)
        fresh = cache.minimal_route(source, destination)
        hops = list(zip(fresh, fresh[1:]))
        assert (u, v) not in hops and (v, u) not in hops
        assert all(cut.graph.has_edge(a, b) for a, b in hops)
        assert (cache.hits, cache.misses) == (0, 1)
        # The sibling pair reuses the copy's core, not the original's.
        sibling = cache.minimal_route(topology.terminals[1], topology.terminals[-2])
        assert sibling[1:-1] == fresh[1:-1]
        assert (cache.hits, cache.misses) == (1, 1)
        assert route_cache_for(topology).minimal_route(source, destination) is kept

    def test_a_bandwidth_edit_takes_a_new_topology(self):
        # Bandwidths divided by ten in a deep copy: a simulator on the new
        # topology reads them, and the original's still reads its own.
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        terminals = topology.terminals
        flows = [Flow(source=terminals[0], destination=terminals[-1],
                      size=1e6, flow_id=1)]
        simulator = FabricSimulator(topology)
        [before] = simulator.run(flows)

        def slow_down(graph):
            for _, _, attrs in graph.edges(data=True):
                attrs["bandwidth"] /= 10

        [after] = FabricSimulator(edited(topology, slow_down)).run(flows)
        [again] = simulator.run(flows)
        assert before.finish_time == pytest.approx(4.12e-05, rel=1e-3)
        assert after.finish_time == pytest.approx(4.01e-04, rel=1e-3)
        assert _stats_key([again]) == _stats_key([before])


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
                assert list(cache.minimal_route(source, destination)) == (
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
                assert list(cache.minimal_route(source, destination)) == expected

    def test_source_equals_destination(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        node = topology.terminals[0]
        assert RouteCache(topology).minimal_route(node, node) == (node,)

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

    def test_a_copy_without_a_link_builds_its_own_maps(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        original = route_cache_for(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        before = original.minimal_route(source, destination)
        original.propagation_delay(before)
        u, v = next(
            (a, b) for a, b in zip(before, before[1:])
            if a in topology.switches and b in topology.switches
        )
        cut = edited(topology, lambda graph: graph.remove_edge(u, v))
        graph = cut.graph
        cache = route_cache_for(cut)
        after = cache.minimal_route(source, destination)
        assert list(after) == nx.shortest_path(
            networkx_twin(graph), source, destination
        )
        assert (u, v) not in zip(after, after[1:])
        assert v not in cache._successors[u]
        assert cache.propagation_delay(after) == sum(
            float(graph.edges[a, b]["latency"])
            for a, b in zip(after, after[1:])
        )
        assert (u, v) not in cache._latencies
        # The original keeps the link, its maps and its route.
        assert v in original._successors[u] and (u, v) in original._latencies
        assert original.minimal_route(source, destination) is before


_CORE_SPECS = [
    (kind, _FABRIC_TOPOLOGIES[kind]) for kind in sorted(_FABRIC_TOPOLOGIES)
] + [("dragonfly", _BURST_DRAGONFLY)]


def _routes_and_delays(topology, pairs):
    cache = route_cache_for(topology)
    routes = {}
    for pair in pairs:
        path = cache.minimal_route(*pair)
        routes[pair] = (list(path), cache.propagation_delay(path))
    return routes


class TestSwitchPairCores:
    """Leaf pairs on one switch pair share one search, across every
    topology built from a spec, and still route node for node like
    networkx."""

    @pytest.mark.parametrize(
        "kind, spec", _CORE_SPECS,
        ids=sorted(_FABRIC_TOPOLOGIES) + ["perfbench-dragonfly"],
    )
    def test_every_terminal_pair_matches_networkx_on_a_second_topology(
        self, kind, spec, searches, cold_spec_maps
    ):
        first = build_topology(kind, **spec)
        terminals = first.terminals
        warm = route_cache_for(first)
        for source in terminals:
            for destination in terminals:
                warm.minimal_route(source, destination)
        second = build_topology(kind, **spec)
        graph = networkx_twin(second.graph)
        cache = route_cache_for(second)
        del searches[:]
        for source in terminals:
            for destination in terminals:
                assert list(cache.minimal_route(source, destination)) == (
                    nx.shortest_path(graph, source, destination)
                ), (source, destination)
        # Only the source == destination lookups went to the search, and
        # the counts are those of the first topology, which searched.
        assert searches == [(t, t) for t in terminals]
        assert cache.stats() == warm.stats()
        assert cache.hits + cache.misses == len(terminals) ** 2

    def test_counts_do_not_depend_on_a_warm_spec_table(self, cold_spec_maps):
        # A topology routed after another of its spec warmed the shared
        # table counts what one routed on a cold table counts.
        spec = {"groups": 4, "routers_per_group": 3, "terminals": 2}

        def routed():
            topology = build_topology("dragonfly", **spec)
            FabricSimulator(topology).run(_uniform_flows(topology, 40))
            return route_cache_for(topology).stats()

        cold = routed()
        assert cold["misses"] > 0 and cold["hits"] > 0
        assert routed() == cold
        cold_spec_maps.clear()
        assert routed() == cold

    def test_pairs_off_the_premise_search_on_their_own(self, cold_spec_maps):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        cache = route_cache_for(topology)
        leaf, other_leaf, spine, _ = topology.switches
        t0, t1, t2, t3 = topology.terminals
        assert topology.graph.has_edge(t0, leaf)
        assert topology.graph.has_edge(t2, other_leaf)
        # Terminal <-> switch and switch <-> switch pairs.
        for pair in [(t0, other_leaf), (t1, other_leaf), (other_leaf, t0),
                     (other_leaf, t1), (leaf, other_leaf), (spine, other_leaf)]:
            assert list(cache.minimal_route(*pair)) == nx.shortest_path(
                networkx_twin(topology.graph), *pair
            )
        assert (cache.hits, cache.misses) == (0, 6)
        # A multi-homed terminal: a copy in which t0 gains a link to the
        # other leaf.
        unedited = cache.minimal_route(t1, t3)
        homed = edited(topology, lambda graph: graph.add_edge(
            t0, other_leaf, bandwidth=25e9, latency=300e-9, optical=False
        ))
        cache = route_cache_for(homed)
        graph = networkx_twin(homed.graph)
        for pair in [(t1, t3), (t0, t2), (t2, t0), (t1, t2)]:
            assert list(cache.minimal_route(*pair)) == nx.shortest_path(
                graph, *pair
            )
        assert cache.minimal_route(t0, t2) == (t0, other_leaf, t2)
        # (t1, t2) reuses the copy's (t1, t3) search.
        assert (cache.hits, cache.misses) == (2, 3)
        # The spec's table kept the unedited graph's core.
        key = topology._built_as
        assert cold_spec_maps[key]["cores"] == {(leaf, other_leaf): unedited[1:-1]}
        rebuilt = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        assert list(route_cache_for(rebuilt).minimal_route(t0, t2)) == (
            nx.shortest_path(networkx_twin(rebuilt.graph), t0, t2)
        )

    @pytest.mark.parametrize("edit", ["remove-edge", "bandwidth"])
    def test_an_edited_copy_stays_with_its_topology(self, edit):
        spec = {"groups": 4, "routers_per_group": 3, "terminals": 2}
        original = build_topology("dragonfly", **spec)
        other = build_topology("dragonfly", **spec)
        pristine = networkx_twin(other.graph)
        capacities = dict(route_cache_for(other).link_capacities())
        terminals = original.terminals
        pairs = [(s, t) for s in terminals for t in terminals if s != t]
        _routes_and_delays(original, pairs)
        # An intra-group link on the route from t0 to t2.
        link = tuple(original.switches[:2])
        assert route_cache_for(original).minimal_route(
            terminals[0], terminals[2]
        )[1:3] == link

        def edit_graph(graph):
            if edit == "remove-edge":
                graph.remove_edge(*link)
            else:
                for _, _, attrs in graph.edges(data=True):
                    attrs["bandwidth"] /= 10

        changed = edited(original, edit_graph)
        # ``graph.copy()`` reorders neighbours, as networkx's does, so the
        # reference is a fresh build's deep copy given the same edit.
        fresh = edited(build_topology("dragonfly", **spec), edit_graph)
        routes = _routes_and_delays(changed, pairs)
        assert routes == _routes_and_delays(fresh, pairs)
        graph = networkx_twin(changed.graph)
        for (source, destination), (path, _) in routes.items():
            assert path == nx.shortest_path(graph, source, destination)
        assert route_cache_for(changed).link_capacities() == (
            route_cache_for(fresh).link_capacities()
        )
        # The original, the other topology and one built after the edit
        # stay on the unedited graph's routes, delays and capacities.
        for topology in (original, other, build_topology("dragonfly", **spec)):
            for (source, destination), (path, delay) in _routes_and_delays(
                topology, pairs
            ).items():
                assert path == nx.shortest_path(pristine, source, destination)
                assert delay == sum(
                    float(pristine.edges[u, v]["latency"])
                    for u, v in zip(path, path[1:])
                )
            assert route_cache_for(topology).link_capacities() == capacities
        if edit == "remove-edge":
            assert _routes_and_delays(other, pairs) != routes

    def test_threads_sharing_a_spec_table_route_like_networkx(self):
        spec = {"groups": 4, "routers_per_group": 3, "terminals": 2}
        reference = build_topology("dragonfly", **spec)
        graph = networkx_twin(reference.graph)
        terminals = reference.terminals
        expected = {(s, t): tuple(nx.shortest_path(graph, s, t))
                    for s in terminals for t in terminals}
        # A topology not built from a spec keeps its maps to itself.
        private = route_cache_for(Topology("private", reference.graph))
        expected_delays = {pair: private.propagation_delay(path)
                           for pair, path in expected.items()}
        expected_capacities = private.link_capacities()
        wrong = []
        # Every thread asks for the spec's maps at once.
        start = threading.Barrier(6, timeout=60)

        def route_everything(offset):
            topology = build_topology("dragonfly", **spec)
            cache = route_cache_for(topology)
            start.wait()
            if cache.link_capacities() != expected_capacities:
                wrong.append("capacities")
            pairs = list(expected)
            for pair in pairs[offset:] + pairs[:offset]:
                path = cache.minimal_route(*pair)
                if path != expected[pair]:
                    wrong.append(pair)
                if cache.propagation_delay(path) != expected_delays[pair]:
                    wrong.append(("delay", pair))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=route_everything,
                                        args=(index * 97,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # Every thread's topology published or found the same maps.
        maps = routecache._SPEC_MAPS[reference._built_as]
        assert maps["capacities"] == expected_capacities
        assert maps["neighbours"] == (private._neighbours(), {})
        assert maps["latencies"] == private._latencies

    def test_the_registry_bound_evicts_the_oldest_spec(
        self, cold_spec_maps, searches
    ):
        bound = routecache._MAX_SPECS
        specs = [{"leaves": 2 + index, "spines": 2, "terminals": 2}
                 for index in range(bound + 1)]
        keys = []
        for spec in specs:
            topology = build_topology("two-tier", **spec)
            route_cache_for(topology).minimal_route(
                topology.terminals[0], topology.terminals[-1]
            )
            keys.append(topology._built_as)
        assert list(cold_spec_maps) == keys[1:]
        # A kept spec's next topology reuses the search; the evicted
        # spec's searches again and now evicts the next-oldest.
        for spec, searched in ((specs[-1], 0), (specs[0], 1)):
            del searches[:]
            topology = build_topology("two-tier", **spec)
            cache = route_cache_for(topology)
            cache.minimal_route(topology.terminals[0], topology.terminals[-1])
            assert len(searches) == searched
            assert cache.misses == 1
        assert list(cold_spec_maps) == keys[2:] + keys[:1]


class TestSpecLinkMaps:
    """Capacities, neighbour tuples and latencies are built once per spec
    and shared by every topology built from it."""

    SPEC = {"groups": 4, "routers_per_group": 3, "terminals": 2}

    @staticmethod
    def _warm(topology):
        cache = route_cache_for(topology)
        path = cache.minimal_route(topology.terminals[0], topology.terminals[-1])
        cache.propagation_delay(path)
        cache.link_capacities()
        return cache

    @staticmethod
    def _maps(cache):
        return (cache.link_capacities(), cache._successors, cache._latencies)

    @staticmethod
    def _published(shared):
        return (shared["capacities"], shared["neighbours"][0],
                shared["latencies"])

    def test_a_topology_from_an_edited_copy_takes_private_maps(
        self, cold_spec_maps
    ):
        original = build_topology("dragonfly", **self.SPEC)
        sibling = build_topology("dragonfly", **self.SPEC)
        for topology in (original, sibling):
            self._warm(topology)
        shared = cold_spec_maps[original._built_as]
        published = self._published(shared)
        for topology in (original, sibling):
            for built, map_ in zip(self._maps(route_cache_for(topology)),
                                   published):
                assert built is map_
        pristine = [dict(map_) for map_ in published]
        u, v = original.switches[:2]
        changed = edited(original, lambda graph: graph.remove_edge(u, v))
        assert changed._built_as is None
        private = self._maps(self._warm(changed))
        for built, map_ in zip(private, published):
            assert built is not map_
        assert (u, v) not in private[0] and v not in private[1][u]
        assert (u, v) not in private[2]
        for topology in (original, sibling):
            for built, map_ in zip(self._maps(route_cache_for(topology)),
                                   published):
                assert built is map_
        assert [dict(map_) for map_ in self._published(shared)] == pristine


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
