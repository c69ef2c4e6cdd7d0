"""Insertion-ordered graphs and the graph algorithms the package runs.

:class:`Graph` (undirected) and :class:`DiGraph` keep networkx's dict of
dicts: ``_node`` maps a node to its attribute dict and ``_adj`` maps it to
``{neighbour: edge attribute dict}``, one edge dict shared by both
directions of an undirected edge (and by ``_adj`` and ``_pred`` of a
directed one).  Every order -- nodes, neighbours, edges -- is insertion
order, built by the same steps networkx takes, so node, neighbour and
edge iteration match networkx's exactly.  The algorithms below are ports
of networkx's that walk those orders the same way, so they return the
same paths, reachable sets and bisection, and raise the same exceptions with
the same messages.  ``tests/proptest/test_graph_differential.py`` checks
each of them against networkx.

A :class:`~repro.interconnect.topology.Topology` freezes its graph
(:meth:`Graph.freeze`): every method that adds or removes a node or an
edge, and every write to a node's, an edge's or a neighbour dict, then
raises :class:`GraphError`, so what the route cache derives from it is
never stale.  To change a built fabric, edit
``copy.deepcopy(topology.graph)`` (a deep copy or a pickle is editable
and keeps every order) and build a new ``Topology`` from it.
"""

from __future__ import annotations

import random
from collections.abc import Mapping as MappingABC
from heapq import heappop, heappush
from itertools import count
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

Node = Hashable
#: An edge's cost for weighted paths, ``None`` hiding the edge.
Weight = Callable[[Node, Node, dict], Optional[float]]


class GraphError(Exception):
    """A graph operation or algorithm failed (networkx's ``NetworkXError``)."""


class NodeNotFound(GraphError):
    """A path query named a node that is not in the graph."""


class NetworkXNoPath(GraphError):
    """No path joins the two nodes (networkx's exception of that name)."""


# --- read-only dicts -----------------------------------------------------------

_READ_ONLY = (
    "a Topology's graph is read-only: edit copy.deepcopy(topology.graph) "
    "and build a new Topology from it"
)


def _refuse(self, *args, **kwargs):
    raise GraphError(_READ_ONLY)


class _ReadOnlyDict(dict):
    """A frozen graph's attribute or neighbour dict: reads as a dict,
    refuses every write."""

    __slots__ = ()

    def __reduce__(self):
        # A pickle or deep copy holds a plain, editable dict.
        return (dict, (dict(self),))


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop",
              "popitem", "setdefault", "update"):
    setattr(_ReadOnlyDict, _name, _refuse)


# --- views ----------------------------------------------------------------------


class NodeView(MappingABC):
    """``graph.nodes``: a read-only mapping of node to attribute dict that
    iterates nodes; ``nodes(data=True)`` yields ``(node, attribute dict)``."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Dict[Node, dict]) -> None:
        self._nodes = nodes

    def __getitem__(self, node: Node) -> dict:
        return self._nodes[node]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._nodes
        except TypeError:
            return False

    def __call__(self, data: bool = False):
        return self._nodes.items() if data else self


class EdgeView:
    """``graph.edges``: iterate ``(u, v)`` pairs, ``edges[u, v]`` is the
    edge's attribute dict, ``edges(nbunch, data=True)`` yields
    ``(u, v, attribute dict)`` for edges at the nodes of ``nbunch``."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "Graph") -> None:
        self._graph = graph

    def __getitem__(self, edge: Tuple[Node, Node]) -> dict:
        u, v = edge
        return self._graph._adj[u][v]

    def __iter__(self) -> Iterator[Tuple[Node, Node]]:
        return self._graph._edges(None, False)

    def __call__(self, nbunch=None, data: bool = False):
        return self._graph._edges(nbunch, data)


# --- graphs ---------------------------------------------------------------------


class Graph:
    """An undirected graph with attribute dicts on nodes and edges.

    Nodes are hashable; a pair of nodes has at most one edge.
    """

    #: Set by :meth:`freeze`; a pickle or deep copy leaves it out.
    _frozen = False

    def __init__(self) -> None:
        self._node: Dict[Node, dict] = {}
        self._adj: Dict[Node, Dict[Node, dict]] = {}
        # In-edges: an undirected edge is its own reverse.
        self._pred = self._adj
        self.nodes = NodeView(self._node)
        self.edges = EdgeView(self)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_frozen"}

    # -- queries ---------------------------------------------------------

    @property
    def adj(self) -> Mapping[Node, Dict[Node, dict]]:
        """Node -> ``{neighbour: edge attribute dict}`` (successors if directed)."""
        return MappingProxyType(self._adj)

    def is_directed(self) -> bool:
        return False

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._node
        except TypeError:
            return False

    def __iter__(self) -> Iterator[Node]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return sum(
            len(nbrs) + (node in nbrs) for node, nbrs in self._adj.items()
        ) // 2

    def has_edge(self, u: Node, v: Node) -> bool:
        try:
            return v in self._adj[u]
        except KeyError:
            return False

    def neighbors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._adj[node])
        except KeyError:
            raise GraphError(f"The node {node} is not in the graph.") from None

    def degree(self, node: Node) -> int:
        """Edges at ``node``; a self-loop counts twice."""
        try:
            nbrs = self._adj[node]
        except KeyError:
            raise GraphError(f"Node {node} is not in the graph.") from None
        return len(nbrs) + (node in nbrs)

    def _nbunch(self, nbunch) -> Iterable[Node]:
        if nbunch is None:
            return self._adj
        if nbunch in self:
            return (nbunch,)
        return [node for node in nbunch if node in self._adj]

    def _edges(self, nbunch, data: bool):
        adj = self._adj
        seen: Set[Node] = set()
        for node in self._nbunch(nbunch):
            for nbr, attrs in adj[node].items():
                if nbr not in seen:
                    yield (node, nbr, attrs) if data else (node, nbr)
            seen.add(node)

    # -- mutation --------------------------------------------------------

    def freeze(self) -> None:
        """Make the graph read-only for good, every order unchanged."""
        if self._frozen:
            return
        self._frozen = True
        for node, attrs in self._node.items():
            self._node[node] = _ReadOnlyDict(attrs)
        for u, nbrs in self._adj.items():
            for v, attrs in nbrs.items():
                if type(attrs) is not _ReadOnlyDict:
                    nbrs[v] = self._pred[v][u] = _ReadOnlyDict(attrs)
        tables = [self._adj]
        if self._pred is not self._adj:
            tables.append(self._pred)
        for table in tables:
            for node, nbrs in table.items():
                table[node] = _ReadOnlyDict(nbrs)

    def _writable(self) -> None:
        if self._frozen:
            raise GraphError(_READ_ONLY)

    def _new_node(self, node: Node) -> None:
        if node is None:
            raise ValueError("None cannot be a node")
        self._adj[node] = {}
        self._node[node] = {}

    def add_node(self, node: Node, **attr: object) -> None:
        self._writable()
        if node not in self._node:
            self._new_node(node)
        self._node[node].update(attr)

    def add_nodes_from(self, nodes: Iterable, **attr: object) -> None:
        """Add bare nodes or ``(node, attribute dict)`` pairs."""
        self._writable()
        for node in nodes:
            try:
                new = node not in self._node
                attrs = attr
            except TypeError:  # an unhashable (node, dict) pair
                node, node_attrs = node
                new = node not in self._node
                attrs = {**attr, **node_attrs}
            if new:
                self._new_node(node)
            self._node[node].update(attrs)

    def _add_edge(self, u: Node, v: Node, attr: dict) -> None:
        if u not in self._node:
            self._new_node(u)
        if v not in self._node:
            self._new_node(v)
        attrs = self._adj[u].get(v)
        if attrs is None:
            attrs = dict(attr)
        else:
            attrs.update(attr)
        self._adj[u][v] = attrs
        self._pred[v][u] = attrs

    def add_edge(self, u: Node, v: Node, **attr: object) -> None:
        self._writable()
        self._add_edge(u, v, attr)

    def add_edges_from(self, edges: Iterable, **attr: object) -> None:
        """Add ``(u, v)`` or ``(u, v, attribute dict)`` edges in order."""
        self._writable()
        for edge in edges:
            if len(edge) == 3:
                u, v, edge_attrs = edge
                self._add_edge(u, v, {**attr, **edge_attrs})
            else:
                u, v = edge
                self._add_edge(u, v, attr)

    def remove_edge(self, u: Node, v: Node) -> None:
        self._writable()
        try:
            del self._adj[u][v]
            if u != v:
                del self._adj[v][u]
        except KeyError:
            raise GraphError(f"The edge {u}-{v} is not in the graph") from None

    def remove_edges_from(self, edges: Iterable) -> None:
        """Remove the listed edges; ones not in the graph are skipped."""
        self._writable()
        for u, v, *_ in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)

    def remove_node(self, node: Node) -> None:
        self._writable()
        try:
            nbrs = list(self._adj[node])
            del self._node[node]
        except KeyError:
            raise GraphError(f"The node {node} is not in the graph.") from None
        for nbr in nbrs:
            del self._adj[nbr][node]
        del self._adj[node]

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove the listed nodes; ones not in the graph are skipped."""
        self._writable()
        for node in list(nodes):
            if node in self._node:
                self.remove_node(node)

    # -- derived graphs --------------------------------------------------

    def copy(self) -> "Graph":
        """An independent copy, built as networkx's ``copy`` builds it:
        nodes in order, then every adjacency entry in order (which can
        reorder a node's neighbours)."""
        return self.subgraph(self._node)

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """A copy of the subgraph induced by ``nodes``, in this graph's
        node order, its edges added as :meth:`copy` adds them."""
        keep = set(self._nbunch(nodes))
        graph = self.__class__()
        graph.add_nodes_from(
            (node, attrs) for node, attrs in self._node.items() if node in keep
        )
        graph.add_edges_from(
            (u, v, attrs)
            for u, nbrs in self._adj.items() if u in keep
            for v, attrs in nbrs.items() if v in keep
        )
        return graph


class DiGraph(Graph):
    """A directed graph; ``adj`` holds out-edges, ``pred`` in-edges."""

    def __init__(self) -> None:
        super().__init__()
        self._pred: Dict[Node, Dict[Node, dict]] = {}

    @property
    def pred(self) -> Mapping[Node, Dict[Node, dict]]:
        return MappingProxyType(self._pred)

    def is_directed(self) -> bool:
        return True

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values())

    def neighbors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._adj[node])
        except KeyError:
            raise GraphError(f"The node {node} is not in the digraph.") from None

    def predecessors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._pred[node])
        except KeyError:
            raise GraphError(f"The node {node} is not in the digraph.") from None

    def degree(self, node: Node) -> int:
        """In-edges plus out-edges."""
        try:
            return len(self._adj[node]) + len(self._pred[node])
        except KeyError:
            raise GraphError(f"Node {node} is not in the graph.") from None

    def _edges(self, nbunch, data: bool):
        for node in self._nbunch(nbunch):
            for nbr, attrs in self._adj[node].items():
                yield (node, nbr, attrs) if data else (node, nbr)

    def _new_node(self, node: Node) -> None:
        super()._new_node(node)
        self._pred[node] = {}

    def remove_edge(self, u: Node, v: Node) -> None:
        self._writable()
        try:
            del self._adj[u][v]
            del self._pred[v][u]
        except KeyError:
            raise GraphError(f"The edge {u}-{v} not in graph.") from None

    def remove_node(self, node: Node) -> None:
        self._writable()
        try:
            succ = self._adj[node]
            del self._node[node]
        except KeyError:
            raise GraphError(f"The node {node} is not in the digraph.") from None
        for nbr in succ:
            del self._pred[nbr][node]
        del self._adj[node]
        for nbr in self._pred[node]:
            del self._adj[nbr][node]
        del self._pred[node]


# --- shortest paths ---------------------------------------------------------------


def _bidirectional_pred_succ(succ_of, pred_of, source, target):
    """Breadth-first from both ends, always expanding the smaller fringe
    (the forward one on a tie), until a node reached from one side is
    known to the other.  Returns the predecessor map towards ``source``,
    the successor map towards ``target`` and the meeting node."""
    pred: Dict[Node, Optional[Node]] = {source: None}
    succ: Dict[Node, Optional[Node]] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in succ_of[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in pred_of[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise NetworkXNoPath(f"No path between {source} and {target}.")


def bidirectional_shortest_path(
    succ_of: Mapping[Node, Iterable[Node]],
    pred_of: Mapping[Node, Iterable[Node]],
    source: Node,
    target: Node,
) -> List[Node]:
    """networkx's unweighted ``bidirectional_shortest_path`` over any
    node -> neighbours mapping (dicts or lists, walked in their order).
    Callers check that both nodes exist."""
    if source == target:
        return [source]
    pred, succ, node = _bidirectional_pred_succ(succ_of, pred_of, source, target)
    path = []
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[path[-1]]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def _bidirectional_dijkstra(
    graph: Graph, source: Node, target: Node, weight: Weight
) -> List[Node]:
    """networkx's ``bidirectional_dijkstra``: heap ties go to the entry
    pushed first, and a ``None`` weight hides the edge."""
    if source == target:
        return [source]
    dists: List[Dict[Node, float]] = [{}, {}]
    preds: List[Dict[Node, Optional[Node]]] = [{source: None}, {target: None}]
    fringe: List[list] = [[], []]
    seen: List[Dict[Node, float]] = [{source: 0}, {target: 0}]
    tie = count()
    heappush(fringe[0], (0, next(tie), source))
    heappush(fringe[1], (0, next(tie), target))
    neighbours = (graph._adj, graph._pred)
    meet = None
    best = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward, node = [], meet
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meet]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            return forward
        for w, attrs in neighbours[direction][v].items():
            cost = weight(v, w, attrs) if direction == 0 else weight(w, v, attrs)
            if cost is None:
                continue
            length = dist + cost
            if w in dists[direction]:
                if length < dists[direction][w]:
                    raise ValueError("Contradictory paths found: negative weights?")
            elif w not in seen[direction] or length < seen[direction][w]:
                seen[direction][w] = length
                heappush(fringe[direction], (length, next(tie), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if best is None or best > total:
                        best, meet = total, w
    raise NetworkXNoPath(f"No path between {source} and {target}.")


def shortest_path(
    graph: Graph, source: Node, target: Node, weight: Optional[Weight] = None
) -> List[Node]:
    """``nx.shortest_path(graph, source, target, weight)``, node for node.

    Unweighted: bidirectional breadth-first search.  Weighted by a
    ``(u, v, attrs)`` function: bidirectional Dijkstra.
    """
    if source not in graph:
        raise NodeNotFound(f"Source {source} is not in G")
    if target not in graph:
        raise NodeNotFound(f"Target {target} is not in G")
    if weight is None:
        return bidirectional_shortest_path(
            graph._adj, graph._pred, source, target
        )
    return _bidirectional_dijkstra(graph, source, target, weight)


def has_path(graph: Graph, source: Node, target: Node) -> bool:
    """Whether a path joins the nodes; unknown nodes raise :class:`NodeNotFound`."""
    try:
        shortest_path(graph, source, target)
    except NetworkXNoPath:
        return False
    return True


def _levels(adj: Mapping[Node, Iterable[Node]], source: Node) -> Dict[Node, int]:
    """Hop count from ``source`` to every node it reaches, in BFS order."""
    lengths = {source: 0}
    level = [source]
    depth = 0
    while level:
        depth += 1
        following = []
        for v in level:
            for w in adj[v]:
                if w not in lengths:
                    lengths[w] = depth
                    following.append(w)
        level = following
    return lengths


def _undirected(graph: Graph) -> None:
    if graph.is_directed():
        raise GraphError("not implemented for directed type")


def diameter(graph: Graph) -> int:
    """The largest hop eccentricity of an undirected graph; a disconnected
    graph raises."""
    _undirected(graph)
    order = len(graph)
    eccentricities = []
    for node in graph:
        lengths = _levels(graph._adj, node)
        if len(lengths) != order:
            raise GraphError(
                "Found infinite path length because the graph is not connected"
            )
        eccentricities.append(max(lengths.values()))
    return max(eccentricities)


def average_shortest_path_length(graph: Graph) -> float:
    """Mean hop count over ordered pairs of distinct nodes of an undirected
    graph."""
    _undirected(graph)
    n = len(graph)
    if n == 0:
        raise GraphError(
            "the null graph has no paths, thus there is no average shortest "
            "path length"
        )
    if n == 1:
        return 0
    if len(_levels(graph._adj, next(iter(graph)))) != n:
        raise GraphError("Graph is not connected.")
    total = sum(
        length for node in graph for length in _levels(graph._adj, node).values()
    )
    return total / (n * (n - 1))


# --- reachability ---------------------------------------------------------------


def _reachable(adj: Mapping[Node, Iterable[Node]], graph: Graph,
               source: Node) -> Set[Node]:
    if source not in graph:
        kind = "digraph" if graph.is_directed() else "graph"
        raise GraphError(f"The node {source} is not in the {kind}.")
    reached = set(_levels(adj, source))
    reached.discard(source)
    return reached


def ancestors(graph: Graph, source: Node) -> Set[Node]:
    """Every node that reaches ``source``, itself excluded."""
    return _reachable(graph._pred, graph, source)


def is_directed_acyclic_graph(graph: Graph) -> bool:
    """A directed graph whose topological sort (Kahn's) takes every node."""
    if not graph.is_directed():
        return False
    indegree = {node: len(preds) for node, preds in graph._pred.items()}
    ready = [node for node, degree in indegree.items() if degree == 0]
    sorted_count = 0
    while ready:
        node = ready.pop()
        sorted_count += 1
        for child in graph._adj[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return sorted_count == len(graph)


# --- bisection ---------------------------------------------------------------------


class _BinaryHeap:
    """networkx's ``BinaryHeap``: a min-heap of keyed values whose stale
    entries are skipped on pop; equal values pop in insertion order."""

    __slots__ = ("_values", "_heap", "_tie")

    def __init__(self) -> None:
        self._values: Dict[Node, float] = {}
        self._heap: list = []
        self._tie = count()

    def __bool__(self) -> bool:
        return bool(self._values)

    def __contains__(self, key: Node) -> bool:
        return key in self._values

    def get(self, key: Node) -> Optional[float]:
        return self._values.get(key)

    def pop(self) -> Tuple[Node, float]:
        values = self._values
        while True:
            value, _, key = heappop(self._heap)
            if key in values and value == values[key]:
                break
        del values[key]
        return key, value

    def insert(self, key: Node, value: float, allow_increase: bool = False) -> None:
        values = self._values
        if key in values:
            old = values[key]
            if not (value < old or (allow_increase and value > old)):
                return
        values[key] = value
        heappush(self._heap, (value, next(self._tie), key))


def _kernighan_lin_sweep(edge_info, side):
    """One pass moving single nodes, alternating sides to stay balanced;
    yields (cumulative cost, moves made, moved pair)."""
    heaps = (_BinaryHeap(), _BinaryHeap())
    for u, nbrs in edge_info.items():
        cost_u = sum(wt if side[v] else -wt for v, wt in nbrs.items())
        if side[u]:
            heaps[1].insert(u, cost_u)
        else:
            heaps[0].insert(u, -cost_u)

    def update_heap_values(node):
        side_node = side[node]
        for nbr, wt in edge_info[node].items():
            side_nbr = side[nbr]
            if side_nbr == side_node:
                wt = -wt
            heap_nbr = heaps[side_nbr]
            if nbr in heap_nbr:
                heap_nbr.insert(nbr, heap_nbr.get(nbr) + 2 * wt,
                                allow_increase=True)

    moves = 0
    total = 0
    while heaps[0] and heaps[1]:
        u, cost_u = heaps[0].pop()
        update_heap_values(u)
        v, cost_v = heaps[1].pop()
        update_heap_values(v)
        total += cost_u + cost_v
        moves += 1
        yield total, moves, (u, v)


def kernighan_lin_bisection(
    graph: Graph, seed: int
) -> Tuple[Set[Node], Set[Node]]:
    """networkx's ``kernighan_lin_bisection`` from a random balanced start:
    ``random.Random(seed)`` shuffles the node list, the first half is one
    side, and up to 10 sweeps swap nodes while that lowers the cut weight
    (an edge's ``weight`` attribute, 1 when missing)."""
    _undirected(graph)
    nodes = list(graph)
    random.Random(seed).shuffle(nodes)
    first_half = set(nodes[: len(nodes) // 2])
    side = {node: (node in first_half) for node in nodes}
    edge_info = {
        u: {v: attrs.get("weight", 1) for v, attrs in nbrs.items()}
        for u, nbrs in graph._adj.items()
    }
    for _ in range(10):
        costs = list(_kernighan_lin_sweep(edge_info, side))
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break
        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0
    return (
        {u for u, s in side.items() if s == 0},
        {u for u, s in side.items() if s == 1},
    )
