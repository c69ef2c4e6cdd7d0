"""The in-repo graph type and its algorithm ports against networkx.

Every graph here is built twice by the same calls -- once as a
:class:`repro.interconnect.graph.Graph`/``DiGraph``, once as a networkx
graph -- and each port must give networkx's answer: the same node,
neighbour and edge order, the same paths (ties broken the same way), the
same reachable sets and bisection, and the same exceptions with the same
messages.  Random graphs come from hypothesis; the five canned topology
families come from :func:`build_topology`.  The ports follow networkx 3.6,
the oldest release the ``test`` extra accepts.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import graph as ours
from repro.interconnect.graph import DiGraph, Graph, GraphError
from repro.interconnect.topology import TOPOLOGY_KINDS, build_topology
from repro.sweep.targets import _FABRIC_TOPOLOGIES
from repro.validate.differential import networkx_twin

from tests.proptest import strategies as props

NAMES = "abcdefghijkl"


@st.composite
def operations(draw, max_nodes=len(NAMES)):
    """A sequence of graph edits over a small node alphabet; edge weights
    are small integers so weighted paths tie often."""
    names = NAMES[: draw(st.integers(2, max_nodes))]
    node = st.sampled_from(names)
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("add_edge"), node, node, st.integers(1, 3)),
            st.tuples(st.just("add_edge"), node, node, st.integers(1, 3)),
            st.tuples(st.just("add_node"), node),
            st.tuples(st.just("remove_edge"), node, node),
            st.tuples(st.just("remove_node"), node),
        ),
        min_size=1, max_size=40,
    ))


def outcome(call):
    """``("ok", value)`` or ``("error", message)`` of one call."""
    try:
        return "ok", call()
    except (GraphError, nx.NetworkXException, ValueError) as error:
        return "error", str(error)


def build(ops, directed):
    """The same edits applied to our graph and to networkx's."""
    mine = DiGraph() if directed else Graph()
    theirs = nx.DiGraph() if directed else nx.Graph()
    for op, *args in ops:
        if op == "add_edge":
            u, v, weight = args
            edits = [(g.add_edge, (u, v), {"weight": weight})
                     for g in (mine, theirs)]
        elif op == "add_node":
            edits = [(g.add_node, tuple(args), {"seen": True})
                     for g in (mine, theirs)]
        else:
            edits = [(getattr(g, op), tuple(args), {}) for g in (mine, theirs)]
        results = [outcome(lambda: fn(*a, **kw)) for fn, a, kw in edits]
        assert results[0] == results[1], (op, args)
    return mine, theirs


def assert_same_structure(mine, theirs):
    assert list(mine) == list(theirs)
    assert list(mine.nodes(data=True)) == list(theirs.nodes(data=True))
    assert [(n, list(nbrs.items())) for n, nbrs in mine.adj.items()] == [
        (n, list(nbrs.items())) for n, nbrs in theirs.adj.items()
    ]
    if theirs.is_directed():
        assert [(n, list(nbrs)) for n, nbrs in mine.pred.items()] == [
            (n, list(nbrs)) for n, nbrs in theirs.pred.items()
        ]
    assert list(mine.edges()) == list(theirs.edges())
    assert list(mine.edges(data=True)) == list(theirs.edges(data=True))
    nbunch = list(theirs)[::2]
    assert list(mine.edges(nbunch, data=True)) == list(
        theirs.edges(nbunch, data=True)
    )
    assert mine.number_of_nodes() == theirs.number_of_nodes()
    assert mine.number_of_edges() == theirs.number_of_edges()
    for node in theirs:
        assert mine.degree(node) == theirs.degree(node)
        assert list(mine.neighbors(node)) == list(theirs.neighbors(node))
        if theirs.is_directed():
            assert list(mine.predecessors(node)) == list(
                theirs.predecessors(node)
            )
        for other in theirs:
            assert mine.has_edge(node, other) == theirs.has_edge(node, other)


def by_weight(u, v, attrs):
    return attrs["weight"]


def hidden_threes(u, v, attrs):
    return None if attrs["weight"] == 3 else attrs["weight"]


def assert_same_paths(mine, theirs):
    """Every ordered pair: unweighted and weighted paths, has_path."""
    for source in theirs:
        for target in theirs:
            for weight in (None, by_weight, hidden_threes):
                assert outcome(
                    lambda: ours.shortest_path(mine, source, target, weight)
                ) == outcome(
                    lambda: nx.shortest_path(theirs, source, target, weight)
                ), (source, target, weight)
            assert ours.has_path(mine, source, target) == nx.has_path(
                theirs, source, target
            )


def assert_same_distances(mine, theirs):
    assert outcome(lambda: ours.diameter(mine)) == outcome(
        lambda: nx.diameter(theirs)
    )
    assert outcome(lambda: ours.average_shortest_path_length(mine)) == outcome(
        lambda: nx.average_shortest_path_length(theirs)
    )


class TestUndirected:
    @given(ops=operations())
    @settings(max_examples=80, deadline=None)
    def test_structure_copy_and_twin_match(self, ops):
        mine, theirs = build(ops, directed=False)
        assert_same_structure(mine, theirs)
        assert_same_structure(mine.copy(), theirs.copy())
        assert_same_structure(networkx_twin(mine), theirs)

    @given(ops=operations(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_subgraph_is_the_induced_copy_in_graph_order(self, ops, data):
        mine, theirs = build(ops, directed=False)
        keep = data.draw(st.sets(st.sampled_from(NAMES)))
        sub = mine.subgraph(keep)
        assert list(sub) == [n for n in theirs if n in keep]
        assert nx.utils.graphs_equal(
            networkx_twin(sub), theirs.subgraph(keep)
        )
        # Edges are added as networkx's copy() adds them.
        induced = nx.Graph()
        induced.add_nodes_from((n, d) for n, d in theirs.nodes(data=True)
                               if n in keep)
        induced.add_edges_from(
            (u, v, d) for u, nbrs in theirs.adj.items() if u in keep
            for v, d in nbrs.items() if v in keep
        )
        assert_same_structure(sub, induced)

    @given(ops=operations())
    @settings(max_examples=80, deadline=None)
    def test_paths_match(self, ops):
        assert_same_paths(*build(ops, directed=False))

    @given(ops=operations())
    @settings(max_examples=80, deadline=None)
    def test_distances_and_reachability_match(self, ops):
        mine, theirs = build(ops, directed=False)
        assert_same_distances(mine, theirs)
        for node in theirs:
            assert ours.descendants(mine, node) == nx.descendants(theirs, node)
            assert ours.ancestors(mine, node) == nx.ancestors(theirs, node)
        assert not ours.is_directed_acyclic_graph(mine)

    @given(ops=operations(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_kernighan_lin_matches(self, ops, seed):
        mine, theirs = build(ops, directed=False)
        if len(theirs) < 2:
            return
        for s in (7, seed):
            assert ours.kernighan_lin_bisection(mine, seed=s) == (
                nx.community.kernighan_lin_bisection(theirs, seed=s)
            )


class TestDirected:
    @given(ops=operations())
    @settings(max_examples=60, deadline=None)
    def test_structure_copy_and_twin_match(self, ops):
        mine, theirs = build(ops, directed=True)
        assert_same_structure(mine, theirs)
        assert_same_structure(mine.copy(), theirs.copy())
        assert_same_structure(networkx_twin(mine), theirs)

    @given(ops=operations())
    @settings(max_examples=80, deadline=None)
    def test_paths_and_dijkstra_tie_breaks_match(self, ops):
        assert_same_paths(*build(ops, directed=True))

    @given(ops=operations())
    @settings(max_examples=80, deadline=None)
    def test_dag_queries_match(self, ops):
        mine, theirs = build(ops, directed=True)
        assert ours.is_directed_acyclic_graph(mine) == (
            nx.is_directed_acyclic_graph(theirs)
        )
        for node in theirs:
            assert ours.ancestors(mine, node) == nx.ancestors(theirs, node)
            assert ours.descendants(mine, node) == nx.descendants(theirs, node)

    @given(edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda e: e[0] < e[1]
        ),
        max_size=30,
    ))
    @settings(max_examples=40, deadline=None)
    def test_acyclic_by_construction(self, edges):
        mine = DiGraph()
        mine.add_edges_from(edges)
        assert ours.is_directed_acyclic_graph(mine)
        assert nx.is_directed_acyclic_graph(networkx_twin(mine))

    def test_undirected_only_algorithms_refuse_digraphs(self):
        mine, theirs = build([("add_edge", "a", "b", 1)], directed=True)
        assert outcome(
            lambda: ours.kernighan_lin_bisection(mine, seed=7)
        ) == outcome(
            lambda: nx.community.kernighan_lin_bisection(theirs, seed=7)
        )
        # The hop metrics are only asked of undirected switch graphs.
        for port in (ours.diameter, ours.average_shortest_path_length):
            with pytest.raises(GraphError, match="not implemented for directed"):
                port(mine)

    def test_unknown_nodes_raise_like_networkx(self):
        mine, theirs = build([("add_edge", "a", "b", 1)], directed=True)
        for source, target in (("z", "a"), ("a", "z")):
            assert outcome(
                lambda: ours.shortest_path(mine, source, target)
            ) == outcome(lambda: nx.shortest_path(theirs, source, target))
            assert outcome(
                lambda: ours.shortest_path(mine, source, target, by_weight)
            ) == outcome(
                lambda: nx.shortest_path(theirs, source, target, by_weight)
            )
        assert outcome(lambda: ours.descendants(mine, "z")) == outcome(
            lambda: nx.descendants(theirs, "z")
        )

    @given(ops=operations())
    @settings(max_examples=60, deadline=None)
    def test_search_over_plain_adjacency_lists_matches(self, ops):
        # The route cache searches node -> neighbour lists, not a graph.
        _, theirs = build(ops, directed=True)
        succ = {node: list(theirs.succ[node]) for node in theirs}
        pred = {node: list(theirs.pred[node]) for node in theirs}
        for source in theirs:
            for target in theirs:
                assert outcome(lambda: ours.bidirectional_shortest_path(
                    succ, pred, source, target
                )) == outcome(lambda: nx.bidirectional_shortest_path(
                    theirs, source, target
                ))


class TestViews:
    def test_node_view_is_a_mapping_like_networkx(self):
        mine, theirs = build(
            [("add_edge", "a", "b", 1), ("add_node", "c")], directed=False
        )
        mine.nodes["a"]["role"] = theirs.nodes["a"]["role"] = "switch"
        assert list(mine.nodes) == list(theirs.nodes)
        assert len(mine.nodes) == len(theirs.nodes) == 3
        assert list(mine.nodes(data=True)) == list(theirs.nodes(data=True))
        assert ("a" in mine.nodes) and ("z" not in mine.nodes)
        # An unhashable probe is simply absent, as ``[] in graph`` is in
        # networkx (whose node view itself raises TypeError).
        assert ([] in mine.nodes) is ([] in theirs) is False

    def test_edge_view_iterates_and_indexes_like_networkx(self):
        ops = [("add_edge", "a", "b", 2), ("add_edge", "b", "c", 3),
               ("add_edge", "c", "a", 1)]
        for directed in (False, True):
            mine, theirs = build(ops, directed=directed)
            assert list(mine.edges) == list(theirs.edges)
            assert mine.edges["b", "c"] == theirs.edges["b", "c"]
            assert list(mine.edges(["b"], data=True)) == list(
                theirs.edges(["b"], data=True)
            )


def _canned(kind):
    return build_topology(kind, **_FABRIC_TOPOLOGIES.get(kind, {}))


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
class TestCannedTopologies:
    def test_structure_and_copy_match(self, kind):
        topology = _canned(kind)
        theirs = networkx_twin(topology.graph)
        assert_same_structure(topology.graph.copy(), theirs.copy())
        assert_same_structure(
            topology.switch_graph(),
            networkx_twin(topology.switch_graph()),
        )

    def test_metrics_and_bisection_match(self, kind):
        topology = _canned(kind)
        switches = topology.switch_graph()
        reference = networkx_twin(switches)
        assert topology.diameter() == nx.diameter(reference)
        assert topology.average_shortest_path() == (
            nx.average_shortest_path_length(reference)
        )
        for seed in (7, 1, 2, 3):
            assert ours.kernighan_lin_bisection(switches, seed=seed) == (
                nx.community.kernighan_lin_bisection(reference, seed=seed)
            )

    def test_paths_match(self, kind):
        topology = _canned(kind)
        mine = topology.graph
        theirs = networkx_twin(mine)
        nodes = list(theirs)
        for source in nodes[::7]:
            for target in nodes[::5]:
                for weight in (None, lambda u, v, attrs: attrs["latency"]):
                    assert ours.shortest_path(
                        mine, source, target, weight
                    ) == nx.shortest_path(theirs, source, target, weight)


class TestGeneratedTopologies:
    @given(topology=props.topologies())
    @settings(max_examples=20, deadline=None)
    def test_switch_graph_bisection_matches(self, topology):
        switches = topology.switch_graph()
        reference = networkx_twin(switches)
        assert ours.kernighan_lin_bisection(switches, seed=7) == (
            nx.community.kernighan_lin_bisection(reference, seed=7)
        )
        assert ours.diameter(switches) == nx.diameter(reference)
