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
from repro.interconnect.failures import (
    connectivity_curve,
    fail_links,
    fail_switches,
    terminal_connectivity,
)
from repro.interconnect.routecache import route_cache_for
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
    @given(
        topology=props.topologies(),
        fraction=st.floats(0.0, 0.5),
        seed=props.seeds(),
    )
    @settings(max_examples=30, deadline=None)
    def test_failed_links_produce_subgraph(self, topology, fraction, seed):
        """Link failures remove edges only: the degraded graph is an
        edge-subgraph of the original with the identical node set."""
        rng = RandomSource(seed=seed, name="proptest/faillinks")
        degraded = fail_links(topology, fraction, rng=rng)
        original_graph = topology.graph
        assert set(degraded.graph.nodes()) == set(original_graph.nodes())
        assert set(degraded.graph.edges()) <= set(original_graph.edges())
        for u, v in degraded.failed_links:
            assert original_graph.has_edge(u, v)
            assert not degraded.graph.has_edge(u, v)

    @given(topology=props.topologies(), seed=props.seeds())
    @settings(max_examples=30, deadline=None)
    def test_failed_switches_remove_victims_and_their_terminals(
        self, topology, seed
    ):
        rng = RandomSource(seed=seed, name="proptest/failswitches")
        count = min(1, topology.switch_count - 1)
        degraded = fail_switches(topology, count, rng=rng)
        assert len(degraded.failed_switches) == count
        for victim in degraded.failed_switches:
            assert victim not in degraded.graph
            # Terminals attached to the victim die with it.
            for neighbor in topology.graph.neighbors(victim):
                if topology.graph.nodes[neighbor].get("role") == "terminal":
                    assert neighbor not in degraded.graph
        assert set(degraded.graph.nodes()) <= set(topology.graph.nodes())
        assert set(degraded.graph.edges()) <= set(topology.graph.edges())

    @given(
        topology=props.topologies(),
        fraction=st.floats(0.0, 1.0),
        seed=props.seeds(),
    )
    @settings(max_examples=25, deadline=None)
    def test_terminal_connectivity_is_a_fraction(self, topology, fraction, seed):
        rng = RandomSource(seed=seed, name="proptest/connectivity")
        degraded = fail_links(topology, fraction, rng=rng.fork("inject"))
        value = terminal_connectivity(degraded, rng=rng.fork("measure"))
        assert 0.0 <= value <= 1.0

    @given(topology=props.topologies(), seed=props.seeds())
    @settings(max_examples=15, deadline=None)
    def test_connectivity_curve_is_monotone_non_increasing(self, topology, seed):
        """Cumulative link removal over a fixed pair sample can only
        disconnect pairs, never reconnect them."""
        rng = RandomSource(seed=seed, name="proptest/curve")
        curve = connectivity_curve(topology, step=0.25, sample=50, rng=rng)
        assert curve.fractions[0] == 0.0
        assert curve.connectivity[0] == 1.0
        for earlier, later in zip(curve.connectivity, curve.connectivity[1:]):
            assert later <= earlier
