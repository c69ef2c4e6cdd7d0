"""Property-based topology invariants over randomly drawn fabrics.

Structural laws every builder must satisfy regardless of family or size:
diameter and average-path bounds, route symmetry, bisection non-negativity,
and the subgraph property of degraded fabrics. Specs come from the shared
strategy toolkit (:mod:`tests.proptest.strategies`) so failures shrink to a
minimal topology and replay deterministically.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RandomSource
from repro.interconnect.routecache import route_cache_for
from repro.interconnect.topology import Topology
from repro.validate.differential import networkx_twin

from tests.proptest import strategies as props


class TestStructuralBounds:
    @given(topology=props.topologies())
    @settings(max_examples=40, deadline=None)
    def test_diameter_bounds(self, topology):
        """Switch-level diameter sits in [1, switch_count - 1] whenever
        there is more than one switch (and is 0 for a single switch)."""
        diameter = topology.diameter()
        if topology.switch_count > 1:
            assert 1 <= diameter <= topology.switch_count - 1
        else:
            assert diameter == 0

    @given(topology=props.topologies())
    @settings(max_examples=40, deadline=None)
    def test_average_path_never_exceeds_diameter(self, topology):
        assert 0.0 <= topology.average_shortest_path() <= topology.diameter()

    @given(topology=props.topologies())
    @settings(max_examples=40, deadline=None)
    def test_bisection_bandwidth_non_negative(self, topology):
        assert topology.bisection_bandwidth() >= 0.0

    @given(topology=props.topologies())
    @settings(max_examples=40, deadline=None)
    def test_every_builder_yields_connected_fabric(self, topology):
        assert nx.is_connected(networkx_twin(topology.graph))
        assert topology.terminal_count >= 1


class TestRouteSymmetry:
    @given(topology=props.topologies(), seed=props.seeds())
    @settings(max_examples=30, deadline=None)
    def test_route_length_is_symmetric(self, topology, seed):
        """Undirected fabrics: the minimal route A->B has the same hop
        count as B->A (paths themselves may tie-break differently)."""
        terminals = topology.terminals
        if len(terminals) < 2:
            return
        rng = RandomSource(seed=seed, name="proptest/routes")
        cache = route_cache_for(topology)
        for _ in range(5):
            a, b = rng.sample(terminals, 2)
            forward = cache.minimal_route(a, b)
            backward = cache.minimal_route(b, a)
            assert len(forward) == len(backward)
            assert forward[0] == a and forward[-1] == b
            assert backward[0] == b and backward[-1] == a

    @given(topology=props.topologies())
    @settings(max_examples=30, deadline=None)
    def test_self_route_is_trivial(self, topology):
        terminal = topology.terminals[0]
        cache = route_cache_for(topology)
        assert cache.minimal_route(terminal, terminal) == [terminal]
        assert cache.propagation_delay([terminal]) == 0.0


class TestDegradedFabrics:
    """A degraded fabric is a copy of the graph with links or a switch
    removed; the copy must not alias the original."""

    @given(topology=props.topologies(), fraction=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_failed_links_produce_subgraph(self, topology, fraction):
        """Link failures remove edges only: the degraded graph is an
        edge-subgraph of the original with the identical node set."""
        switches = set(topology.switches)
        original_edges = set(topology.graph.edges())
        links = [
            (u, v) for u, v in topology.graph.edges()
            if u in switches and v in switches
        ]
        failed = links[:int(round(fraction * len(links)))]
        graph = topology.graph.copy()
        graph.remove_edges_from(failed)
        degraded = Topology("degraded", graph)
        assert set(degraded.graph.nodes()) == set(topology.graph.nodes())
        assert set(degraded.graph.edges()) <= original_edges
        assert set(topology.graph.edges()) == original_edges
        for u, v in failed:
            assert topology.graph.has_edge(u, v)
            assert not degraded.graph.has_edge(u, v)

    @given(topology=props.topologies())
    @settings(max_examples=30, deadline=None)
    def test_failed_switches_remove_victims_and_their_terminals(
        self, topology
    ):
        victim = topology.switches[0]
        attached = [
            n for n in topology.graph.neighbors(victim)
            if n in topology.terminals
        ]
        graph = topology.graph.copy()
        graph.remove_nodes_from(attached + [victim])
        degraded = Topology("degraded", graph)
        assert victim in topology.graph
        assert victim not in degraded.graph
        # Terminals attached to the victim die with it.
        assert not any(t in degraded.graph for t in attached)
        assert set(degraded.terminals) == set(topology.terminals) - set(attached)
        assert set(degraded.graph.nodes()) <= set(topology.graph.nodes())
        assert set(degraded.graph.edges()) <= set(topology.graph.edges())
