"""Tests for minimal, Valiant and adaptive routing."""

import pytest

from repro.core.rng import RandomSource
from repro.interconnect import routecache
from repro.interconnect.routecache import route_cache_for
from repro.interconnect.routing import (
    adaptive_route,
    apply_path_load,
    minimal_route,
    path_load,
    route_demands,
    valiant_route,
)
from repro.interconnect.topology import build_topology


@pytest.fixture
def topology():
    return build_topology("dragonfly", groups=4, routers_per_group=3, terminals=2)


def is_valid_path(topology, path, source, destination):
    if path[0] != source or path[-1] != destination:
        return False
    return all(topology.graph.has_edge(u, v) for u, v in zip(path, path[1:]))


class TestMinimal:
    def test_path_valid(self, topology):
        terminals = topology.terminals
        path = minimal_route(topology, terminals[0], terminals[-1])
        assert is_valid_path(topology, path, terminals[0], terminals[-1])

    def test_same_node(self, topology):
        node = topology.terminals[0]
        assert minimal_route(topology, node, node) == [node]

    def test_served_by_the_shared_route_cache(self, topology, monkeypatch):
        # An empty spec table: the pair's switch pair has not been searched.
        monkeypatch.setattr(routecache, "_SPEC_MAPS", {})
        cache = route_cache_for(topology)
        source, destination = topology.terminals[0], topology.terminals[-1]
        first = minimal_route(topology, source, destination)
        second = minimal_route(topology, source, destination)
        assert first == second == cache.minimal_route(source, destination)
        # The sibling terminals on the same two routers need no search.
        sibling = minimal_route(topology, topology.terminals[1],
                                topology.terminals[-2])
        assert sibling[1:-1] == first[1:-1]
        assert (cache.hits, cache.misses) == (3, 1)

    def test_returned_path_is_a_copy(self, topology):
        source, destination = topology.terminals[0], topology.terminals[-1]
        path = minimal_route(topology, source, destination)
        expected = list(path)
        path.reverse()
        path.append("scribble")
        assert minimal_route(topology, source, destination) == expected
        assert route_cache_for(topology).minimal_route(source, destination) == expected


class TestValiant:
    def test_path_valid(self, topology):
        rng = RandomSource(seed=9)
        terminals = topology.terminals
        path = valiant_route(topology, terminals[0], terminals[-1], rng=rng)
        assert is_valid_path(topology, path, terminals[0], terminals[-1])

    def test_usually_longer_than_minimal(self, topology):
        rng = RandomSource(seed=9)
        terminals = topology.terminals
        minimal_length = len(minimal_route(topology, terminals[0], terminals[-1]))
        lengths = [
            len(valiant_route(topology, terminals[0], terminals[-1], rng=rng))
            for _ in range(20)
        ]
        assert sum(lengths) / len(lengths) >= minimal_length

    def test_legs_are_the_cached_minimal_routes(self, topology):
        source, destination = topology.terminals[0], topology.terminals[-1]
        path = valiant_route(topology, source, destination, rng=RandomSource(seed=9))
        intermediate = RandomSource(seed=9).choice(topology.switches)
        cache = route_cache_for(topology)
        assert path == (
            cache.minimal_route(source, intermediate)
            + cache.minimal_route(intermediate, destination)[1:]
        )

    def test_mutating_a_route_leaves_the_cache_intact(self, topology):
        source, destination = topology.terminals[0], topology.terminals[-1]
        cache = route_cache_for(topology)
        rng = RandomSource(seed=3)
        switches = list(topology.switches)
        for _ in range(10):
            path = valiant_route(topology, source, destination, rng=rng)
            path.clear()
        for switch in switches:
            leg = cache.minimal_route(source, switch)
            assert leg[0] == source and leg[-1] == switch
            assert is_valid_path(topology, leg, source, switch)


class TestAdaptive:
    def test_idle_network_prefers_minimal(self, topology):
        terminals = topology.terminals
        minimal = minimal_route(topology, terminals[0], terminals[-1])
        adaptive = adaptive_route(topology, terminals[0], terminals[-1], load={})
        assert len(adaptive) == len(minimal)

    def test_congested_minimal_path_avoided(self, topology):
        terminals = topology.terminals
        source, destination = terminals[0], terminals[-1]
        minimal = minimal_route(topology, source, destination)
        load = {}
        # Saturate the switch-to-switch portion only: the terminal
        # attachment links are on every possible path and cannot be avoided.
        apply_path_load(minimal[1:-1], load, 100.0)
        detour = adaptive_route(
            topology, source, destination, load, congestion_bias=10.0,
            rng=RandomSource(seed=4),
        )
        assert path_load(detour, load) < path_load(minimal, load)


class TestHelpers:
    def test_path_load_empty(self):
        assert path_load(["a"], {}) == 0.0

    def test_apply_path_load_accumulates(self):
        load = {}
        apply_path_load(["a", "b", "c"], load, 1.0)
        apply_path_load(["a", "b"], load, 2.0)
        assert load[("a", "b")] == 3.0
        assert load[("b", "c")] == 1.0


class TestRouteDemands:
    def make_demands(self, topology, count=10):
        terminals = topology.terminals
        return [
            (terminals[i], terminals[-(i + 1)], 0.5)
            for i in range(count)
        ]

    def test_all_algorithms_route_everything(self, topology):
        demands = self.make_demands(topology)
        for algorithm in ("minimal", "valiant", "adaptive"):
            paths, load = route_demands(topology, demands, algorithm=algorithm)
            assert len(paths) == len(demands)
            assert all(load.values())

    def test_unknown_algorithm_rejected(self, topology):
        with pytest.raises(ValueError):
            route_demands(topology, self.make_demands(topology), algorithm="magic")

    def test_valiant_spreads_adversarial_group_traffic(self):
        """Dragonfly's adversarial case: all of group A talks to group B,
        and minimal routing piles everything onto the single A-B global
        link. Valiant detours via random intermediate groups, so its worst
        *global-link* load must be lower (load balancing, §II.B)."""
        topology = build_topology(
            "dragonfly", groups=6, routers_per_group=3, terminals=2
        )
        graph = topology.graph
        group_of = {
            t: graph.nodes[graph.nodes[t]["attached_to"]]["group"]
            for t in topology.terminals
        }
        group_a = [t for t, g in group_of.items() if g == 0]
        group_b = [t for t, g in group_of.items() if g == 1]
        demands = [(a, b, 1.0) for a, b in zip(group_a, group_b)]

        def worst_global_load(load):
            worst = 0.0
            for (u, v), amount in load.items():
                if (
                    graph.nodes[u].get("role") == "switch"
                    and graph.nodes[v].get("role") == "switch"
                    and graph.nodes[u]["group"] != graph.nodes[v]["group"]
                ):
                    worst = max(worst, amount)
            return worst

        _, minimal_load = route_demands(topology, demands, algorithm="minimal")
        _, valiant_load = route_demands(topology, demands, algorithm="valiant")
        assert worst_global_load(valiant_load) < worst_global_load(minimal_load)
