"""Tests for topology generators and their structural metrics."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.interconnect.graph import DiGraph, GraphError
from repro.interconnect.topology import (
    Topology,
    build_topology,
)
from repro.validate.differential import networkx_twin

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

ALL_BUILDERS = [
    lambda: build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2),
    lambda: build_topology("hyperx", dims=(3, 3), terminals=2),
    lambda: build_topology("fat-tree", k=4),
    lambda: build_topology("two-tier", leaves=4, spines=2, terminals=4),
    lambda: build_topology("torus", dims=(3, 3), terminals=1),
]


class TestCommonInvariants:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_connected(self, builder):
        topology = builder()
        assert nx.is_connected(networkx_twin(topology.graph))

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_every_terminal_attached_to_one_switch(self, builder):
        topology = builder()
        for terminal in topology.terminals:
            neighbours = list(topology.graph.neighbors(terminal))
            assert len(neighbours) == 1
            assert topology.graph.nodes[neighbours[0]]["role"] == "switch"

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_links_have_attributes(self, builder):
        topology = builder()
        for _, _, data in topology.graph.edges(data=True):
            assert data["bandwidth"] > 0
            assert data["latency"] > 0
            assert isinstance(data["optical"], bool)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_positive_cost(self, builder):
        topology = builder()
        assert topology.cost() > 0
        assert topology.cost_per_terminal() > 0


class TestDragonfly:
    def test_diameter_at_most_three(self):
        """Dragonfly's defining property: <= 3 switch hops (l-g-l)."""
        topology = build_topology("dragonfly", groups=9, routers_per_group=4, terminals=2)
        assert topology.diameter() <= 3

    def test_counts(self):
        topology = build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2)
        assert topology.switch_count == 15
        assert topology.terminal_count == 30

    def test_intra_group_is_full_mesh(self):
        topology = build_topology("dragonfly", groups=3, routers_per_group=4, terminals=1)
        group0 = [s for s in topology.switches if topology.graph.nodes[s]["group"] == 0]
        for u in group0:
            for v in group0:
                if u != v:
                    assert topology.graph.has_edge(u, v)

    def test_global_links_are_optical(self):
        topology = build_topology("dragonfly", groups=4, routers_per_group=2, terminals=1)
        cross_group = [
            data["optical"]
            for u, v, data in topology.graph.edges(data=True)
            if topology.graph.nodes[u].get("role") == "switch"
            and topology.graph.nodes[v].get("role") == "switch"
            and topology.graph.nodes[u]["group"] != topology.graph.nodes[v]["group"]
        ]
        assert cross_group and all(cross_group)

    def test_unreachable_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("dragonfly", groups=20, routers_per_group=2, global_links_per_router=1)

    def test_too_few_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("dragonfly", groups=1)


class TestHyperX:
    def test_diameter_equals_dimensions(self):
        assert build_topology("hyperx", dims=(4, 4)).diameter() == 2
        assert build_topology("hyperx", dims=(3, 3, 3)).diameter() == 3

    def test_switch_count_is_product(self):
        assert build_topology("hyperx", dims=(3, 4)).switch_count == 12

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ConfigurationError):
            build_topology("hyperx", dims=(1, 4))


class TestFatTree:
    def test_terminal_count_k_cubed_over_four(self):
        topology = build_topology("fat-tree", k=4)
        assert topology.terminal_count == 4**3 // 4

    def test_switch_count(self):
        # k^2/4 core + k pods x k switches = 4 + 16 = 20 for k=4.
        assert build_topology("fat-tree", k=4).switch_count == 20

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("fat-tree", k=3)

    def test_diameter_larger_than_dragonfly(self):
        """The paper's low-diameter argument (§II.B)."""
        fat_tree = build_topology("fat-tree", k=4)
        dragonfly = build_topology("dragonfly", groups=5, routers_per_group=2, terminals=2)
        assert fat_tree.diameter() > dragonfly.diameter()


class TestTorus:
    def test_diameter_grows_with_size(self):
        small = build_topology("torus", dims=(3, 3))
        large = build_topology("torus", dims=(6, 6))
        assert large.diameter() > small.diameter()

    def test_degree_is_2n_plus_terminals(self):
        topology = build_topology("torus", dims=(4, 4, 4), terminals=1)
        assert topology.max_switch_degree() == 2 * 3 + 1


def _directed_topology():
    graph = DiGraph()
    graph.add_nodes_from(["a", "b", "c"], role="switch")
    graph.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")],
                         bandwidth=1e9, latency=1e-6)
    return Topology("ring", graph)


def _two_tier():
    return build_topology("two-tier", leaves=2, spines=2, terminals=2)


def _snapshot(graph):
    """Every order and attribute of a graph."""
    return (
        list(graph.nodes(data=True)),
        [(node, list(graph.adj[node].items())) for node in graph],
        [(node, list(graph.pred[node])) for node in graph]
        if graph.is_directed() else None,
        list(graph.edges(data=True)),
    )


#: Every method that adds or removes nodes or edges, with arguments.
MUTATORS = {
    "add_node": lambda g, u, v: g.add_node("new", role="switch"),
    "add_node-existing": lambda g, u, v: g.add_node(u, note=1),
    "add_nodes_from": lambda g, u, v: g.add_nodes_from(["new"]),
    "add_edge": lambda g, u, v: g.add_edge(u, "new", bandwidth=1.0),
    "add_edge-existing": lambda g, u, v: g.add_edge(u, v, bandwidth=1.0),
    "add_edges_from": lambda g, u, v: g.add_edges_from([(u, "new")]),
    "remove_edge": lambda g, u, v: g.remove_edge(u, v),
    "remove_edges_from": lambda g, u, v: g.remove_edges_from([(u, v)]),
    "remove_edges_from-none": lambda g, u, v: g.remove_edges_from([]),
    "remove_node": lambda g, u, v: g.remove_node(u),
    "remove_nodes_from": lambda g, u, v: g.remove_nodes_from([u]),
    "remove_nodes_from-none": lambda g, u, v: g.remove_nodes_from([]),
}

#: Every write method of a dict.
DICT_WRITES = {
    "__setitem__": lambda d, key: d.__setitem__(key, 1),
    "__delitem__": lambda d, key: d.__delitem__(key),
    "__ior__": lambda d, key: d.__ior__({key: 1}),
    "clear": lambda d, key: d.clear(),
    "pop": lambda d, key: d.pop(key),
    "popitem": lambda d, key: d.popitem(),
    "setdefault": lambda d, key: d.setdefault("new", 1),
    "update": lambda d, key: d.update({key: 1}),
}


class TestReadOnlyGraph:
    """A built topology's graph refuses every edit; a deep copy or a pickle
    of it is editable and keeps every order."""

    @pytest.mark.parametrize("build", [_two_tier, _directed_topology],
                             ids=["graph", "digraph"])
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_every_mutator_raises(self, build, mutator):
        graph = build().graph
        u, v = next(iter(graph.edges()))
        before = _snapshot(graph)
        with pytest.raises(GraphError, match=r"copy\.deepcopy"):
            MUTATORS[mutator](graph, u, v)
        assert _snapshot(graph) == before

    @pytest.mark.parametrize("build", [_two_tier, _directed_topology],
                             ids=["graph", "digraph"])
    @pytest.mark.parametrize("target", ["node", "edge", "neighbours",
                                        "predecessors"])
    @pytest.mark.parametrize("write", sorted(DICT_WRITES))
    def test_every_attribute_dict_write_raises(self, build, target, write):
        graph = build().graph
        u, v = next(iter(graph.edges()))
        dict_, key = {
            "node": (graph.nodes[u], "role"),
            "edge": (graph.edges[u, v], "bandwidth"),
            "neighbours": (graph.adj[u], v),
            "predecessors": (graph._pred[v], u),
        }[target]
        before = _snapshot(graph)
        with pytest.raises(GraphError, match=r"copy\.deepcopy"):
            DICT_WRITES[write](dict_, key)
        assert _snapshot(graph) == before

    def test_the_adjacency_maps_are_read_only(self):
        graph = _directed_topology().graph
        for table in (graph.adj, graph.pred):
            with pytest.raises(TypeError):
                table["a"] = {}

    @pytest.mark.parametrize("build", [_two_tier, _directed_topology],
                             ids=["graph", "digraph"])
    @pytest.mark.parametrize("copier", [
        copy.deepcopy, lambda graph: pickle.loads(pickle.dumps(graph)),
    ], ids=["deepcopy", "pickle"])
    def test_a_copy_is_editable_in_the_same_order(self, build, copier):
        graph = build().graph
        twin = copier(graph)
        assert _snapshot(twin) == _snapshot(graph)
        before = _snapshot(graph)
        u, v = next(iter(twin.edges))
        # One attribute dict per edge, in both directions, as built.
        twin.edges[u, v]["bandwidth"] = 1.0
        assert twin.adj[u][v] is twin._pred[v][u]
        twin.nodes[u]["note"] = "edited"
        twin.remove_edge(u, v)
        twin.add_edge(u, v, bandwidth=2.0)
        twin.add_node("new", role="switch")
        assert twin.edges[u, v]["bandwidth"] == 2.0
        assert _snapshot(graph) == before
        Topology("rebuilt", twin)
        with pytest.raises(GraphError):
            twin.remove_node("new")

    @pytest.mark.parametrize("copier", [
        copy.deepcopy, lambda topology: pickle.loads(pickle.dumps(topology)),
    ], ids=["deepcopy", "pickle"])
    def test_a_copied_topology_stays_read_only(self, copier):
        topology = _two_tier()
        twin = copier(topology)
        assert _snapshot(twin.graph) == _snapshot(topology.graph)
        assert twin._built_as == topology._built_as
        with pytest.raises(GraphError):
            twin.graph.add_node("new")

    def test_derived_graphs_are_editable(self):
        topology = _two_tier()
        for derived in (topology.switch_graph(), topology.graph.copy(),
                        topology.graph.subgraph(topology.terminals)):
            derived.add_node("new", role="switch")
            node = next(iter(derived))
            derived.nodes[node]["note"] = "edited"
        assert "note" not in topology.graph.nodes[node]


class TestMetrics:
    def test_bisection_positive(self):
        topology = build_topology("hyperx", dims=(3, 3))
        assert topology.bisection_bandwidth() > 0

    def test_switch_graph_keeps_build_order(self):
        topology = build_topology("dragonfly", groups=5, routers_per_group=3,
                                  terminals=2)
        switch_graph = topology.switch_graph()
        assert list(switch_graph.nodes) == topology.switches
        assert nx.utils.graphs_equal(
            networkx_twin(switch_graph),
            networkx_twin(topology.graph).subgraph(topology.switches),
        )

    def test_bisection_does_not_depend_on_the_hash_seed(self):
        """C2's dragonfly read 0.5 or 0.55 TB/s by ``PYTHONHASHSEED``
        while the switch graph's node order followed a set."""
        script = (
            "from repro.interconnect.topology import build_topology\n"
            "t = build_topology('dragonfly', groups=9, routers_per_group=4,"
            " terminals=4)\n"
            "print(t.bisection_bandwidth())\n"
        )
        readings = set()
        for hash_seed in ("0", "1", "2", "3"):
            process = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": str(REPO_ROOT / "src")},
                capture_output=True, text=True, timeout=120, check=True,
            )
            readings.add(float(process.stdout))
        assert readings == {0.55e12}

    def test_optical_links_raise_cost(self):
        dragonfly = build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2)
        torus = build_topology("torus", dims=(4, 4), terminals=2)
        # Same ballpark of switches; the dragonfly's optical global links
        # must make its per-link cost higher on average.
        dragonfly_link_cost = (
            dragonfly.cost(switch_cost=0.0) / dragonfly.link_count
        )
        torus_link_cost = torus.cost(switch_cost=0.0) / torus.link_count
        assert dragonfly_link_cost > torus_link_cost

    @given(groups=st.integers(3, 8), routers=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_dragonfly_always_low_diameter(self, groups, routers):
        topology = build_topology(
            "dragonfly", groups=groups, routers_per_group=routers, terminals=1
        )
        assert topology.diameter() <= 3
