"""Shared, topology-keyed route caching for the fabric hot path.

Profiling the scenario-sweep workloads shows :class:`FabricSimulator`
spends most of its time in three places: shortest-path routing at flow
admission, decomposing paths into directed links for every water-filling
round, and re-reading per-edge attributes (latency, bandwidth) from the
:class:`~repro.interconnect.graph.Graph`. All three are pure functions of
the topology, so this module memoises them **per topology object**:

* :func:`route_cache_for` returns the (lazily created) :class:`RouteCache`
  of a topology; every simulator built on the same :class:`Topology`
  instance shares it, so repeated ``run()`` calls — the sweep engine's
  bread and butter — pay the routing cost once.
* Caches are keyed by object identity in a :class:`weakref.WeakKeyDictionary`,
  so a derived topology (a deep copy of a graph with links or switches
  removed, or a tenant slice from
  :class:`~repro.interconnect.tenancy.SlicedFabric`) starts from an empty
  cache and can never see its parent's routes.
* A search runs :func:`~repro.interconnect.graph.bidirectional_shortest_path`
  (networkx's bidirectional BFS) over neighbour tuples taken from the
  graph once, in ``graph.adj`` order, so it returns networkx's node list
  without building adjacency views per call.  Propagation delays sum a
  per-link latency map, also built once, in the same left-to-right order
  as per-edge reads.  Nothing is ever invalidated: a topology's graph is
  read-only (see :mod:`repro.interconnect.graph`).

**One search per switch pair.**  Every terminal of the five topology
families is a leaf: its one link goes to its attachment switch.  For
leaves ``s`` and ``t`` of an undirected graph, attached to ``a`` and
``b``, networkx's ``_bidirectional_pred_succ`` returns ``[s] + core +
[t]`` with a ``core`` that depends on ``(a, b)`` alone, and ``[s, a, t]``
when ``a == b``.  The search first steps from ``s`` to ``a`` and then
expands ``a``, which reaches all of ``a``'s neighbours, ``s``'s sibling
leaves included: from then on the forward side holds the same node set
for every leaf of ``a``, and its fringe differs only in which sibling
leaf it carries.  A leaf adds nothing when expanded (its one neighbour is
already reached), and the other side can reach it only through ``a``,
which ends the search on the spot.  So every fringe-size comparison,
every predecessor of a non-leaf node, and the meeting point up to the
end leaf are the same for any two leaf pairs on ``(a, b)``; the reverse
side is the mirror image.  A lookup therefore searches once per switch
pair and builds every other leaf pair's route from the stored core.  A
pair that breaks the premise searches on its own: directed graphs, an
end whose degree is not 1, and ``s == t``.  (Two leaves joined to each
other, ``a == t`` and ``b == s``, are the only pair on their switch
pair, so their empty core is never reused.)
``tests/interconnect/test_routecache.py`` compares every ordered
terminal pair of the sweep topologies with ``nx.shortest_path``.

Cores and link maps are shared across topologies of one spec.
:func:`build_topology` stamps each topology with its canonical spec key,
and the cache uses a process-wide table for that key, so every topology
a worker builds from one spec reuses the others' searches, link
capacities, neighbour tuples and latency map.  A map is published only
once built whole, since serve's job threads may read it.  At most
``_MAX_SPECS`` tables are kept, the oldest dropped first.  A topology
that was not built from a spec keeps its cores and maps to itself.
Terminal-pair routes, links and delays always stay in the topology's
own cache.

Only deterministic routes are cached (minimal/shortest paths); Valiant
and adaptive routes draw from an RNG and are always computed fresh.
Everything the cache hands out is shared by every caller and read-only
(tuples, and :class:`~types.MappingProxyType` maps), so an in-place edit
raises ``TypeError`` instead of silently re-routing every simulator on
the topology (and on its spec).
"""

from __future__ import annotations

import math
import threading
import weakref
from types import MappingProxyType
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.core.errors import ConfigurationError
from repro.interconnect.graph import NodeNotFound, bidirectional_shortest_path
from repro.interconnect.topology import Topology

#: A directed link as traversed by a flow.
Link = Tuple[str, str]
#: A memoised route: its nodes, source first.
Route = Tuple[str, ...]
#: A memoised route's directed links, in traversal order.
RouteLinks = Tuple[Link, ...]
#: Neighbour tuples by node.
Adjacency = Mapping[str, Tuple[str, ...]]
T = TypeVar("T")

_CACHES: "weakref.WeakKeyDictionary[Topology, RouteCache]" = (
    weakref.WeakKeyDictionary()
)

#: Most spec tables one process keeps.
_MAX_SPECS = 8
#: Canonical spec key -> the maps its topologies share, oldest spec
#: first: ``"cores"`` (``{(a, b): core}``) from the start, and
#: ``"capacities"``, ``"neighbours"`` and ``"latencies"`` once built.
_SPEC_MAPS: Dict[object, Dict[str, object]] = {}
_SPEC_MAPS_LOCK = threading.Lock()


def _spec_maps(key: Optional[object]) -> Dict[str, object]:
    """The shared table of a topology built from spec ``key``; a private
    one without a spec.  (Writers to one core table need no lock: each
    stores the same core for a switch pair.)"""
    if key is None:
        return {"cores": {}}
    with _SPEC_MAPS_LOCK:
        maps = _SPEC_MAPS.get(key)
        if maps is None:
            if len(_SPEC_MAPS) >= _MAX_SPECS:
                del _SPEC_MAPS[next(iter(_SPEC_MAPS))]
            maps = _SPEC_MAPS[key] = {"cores": {}}
    return maps


class RouteCache:
    """Memoised routing state for one :class:`Topology`.

    The cached routes and link sequences are tuples shared between
    callers; :class:`FabricSimulator` replaces a flow's path when it
    reroutes.

    Holds the topology's *graph*, not the :class:`Topology` itself — the
    registry keys on the topology in a ``WeakKeyDictionary``, and a
    value that referenced its own key would keep the entry alive forever.
    """

    __slots__ = ("_graph", "_name", "_table", "_cores", "_spec_cores",
                 "_paths", "_links", "_delays", "_capacities",
                 "_successors", "_predecessors", "_latencies", "hits",
                 "misses")

    def __init__(self, topology: Topology) -> None:
        self._graph = topology.graph
        self._name = topology.name
        self._table = _spec_maps(topology._built_as)
        # Cores of the switch pairs looked up here, and of every pair
        # searched on the spec.
        self._cores: Dict[Tuple[str, str], Route] = {}
        self._spec_cores = self._table["cores"]
        self._paths: Dict[Tuple[str, str], Route] = {}
        self._links: Dict[Tuple[str, str], RouteLinks] = {}
        self._delays: Dict[Tuple[str, str], float] = {}
        # Link maps are fetched on first use.
        self._capacities: Optional[Mapping[Link, float]] = None
        self._successors: Optional[Adjacency] = None
        self._predecessors: Optional[Adjacency] = None
        self._latencies: Optional[Mapping[Link, float]] = None
        self.hits = 0
        self.misses = 0

    def _shared(self, name: str, build: Callable[[], T]) -> T:
        """The spec table's map ``name``, built and published on first
        use.  A racing thread may build it too, but only one map is
        published whole and both return it."""
        found = self._table.get(name)
        if found is None:
            found = self._table.setdefault(name, build())
        return found

    # --- routes --------------------------------------------------------------

    def minimal_route(self, source: str, destination: str) -> Route:
        """Shortest path, memoised by endpoint pair.

        ``misses`` counts the lookups that ran a search or looked a
        switch pair up for the first time on this topology (whether or
        not another topology of its spec searched it), so the counts
        depend only on the lookups made here.  ``hits`` counts the
        others: the pair's memo, a core looked up here before, or the
        shared attachment switch."""
        key = (source, destination)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._route(source, destination)
        else:
            self.hits += 1
        return path

    def minimal_route_links(
        self, source: str, destination: str
    ) -> Tuple[Route, RouteLinks]:
        """:meth:`minimal_route` and its :meth:`links_of`, memoised with
        it, from one call."""
        path = self.minimal_route(source, destination)
        key = (source, destination)
        links = self._links.get(key)
        if links is None:
            links = self._links[key] = tuple(zip(path, path[1:]))
        return path, links

    def _route(self, source: str, destination: str) -> Route:
        """A route not memoised yet: built from the switch pair's core
        when both ends are leaves (see the module docstring), searched
        otherwise."""
        succ_of = self._neighbours()
        first = succ_of.get(source)
        last = succ_of.get(destination)
        # Only a directed graph has predecessor lists.
        if (first is not None and last is not None and len(first) == 1
                and len(last) == 1 and source != destination
                and not self._predecessors):
            a, b = first[0], last[0]
            if a == b:
                self.hits += 1
                return (source, a, destination)
            core = self._cores.get((a, b))
            if core is not None:
                self.hits += 1
                return (source, *core, destination)
            self.misses += 1
            core = self._spec_cores.get((a, b))
            if core is None:
                core = self._spec_cores[(a, b)] = tuple(
                    self._shortest_path(source, destination)
                )[1:-1]
            self._cores[(a, b)] = core
            return (source, *core, destination)
        self.misses += 1
        return tuple(self._shortest_path(source, destination))

    def _neighbours(self) -> Adjacency:
        """Neighbour tuples in ``graph.adj`` order, taken once (``pred``
        too for a directed graph, else empty)."""
        succ_of = self._successors
        if succ_of is None:
            succ_of, self._predecessors = self._shared(
                "neighbours", self._build_neighbours
            )
            self._successors = succ_of
        return succ_of

    def _build_neighbours(self) -> Tuple[Adjacency, Adjacency]:
        graph = self._graph
        tables = (graph.adj, graph.pred if graph.is_directed() else {})
        return tuple(
            MappingProxyType({node: tuple(nbrs) for node, nbrs in table.items()})
            for table in tables
        )

    def _shortest_path(self, source: str, target: str) -> List[str]:
        """networkx's ``shortest_path(graph, source, target)``, node for node.

        The bidirectional BFS runs over the cache's neighbour lists, in
        the graph's own order, so it expands the same fringes and meets
        at the same node as networkx; the exceptions and messages are
        networkx's too.
        """
        succ_of = self._neighbours()
        if source not in succ_of:
            raise NodeNotFound(f"Source {source} is not in G")
        if target not in succ_of:
            raise NodeNotFound(f"Target {target} is not in G")
        return bidirectional_shortest_path(
            succ_of, self._predecessors or succ_of, source, target
        )

    def links_of(self, path: Sequence[str]) -> RouteLinks:
        """Directed link decomposition, memoised by endpoint pair.

        Only minimal paths are memoised (one canonical path per endpoint
        pair); detour paths fall through to a fresh decomposition.
        """
        key = (path[0], path[-1]) if path else ("", "")
        cached = self._links.get(key)
        if cached is not None and self._paths.get(key) is path:
            return cached
        links = tuple(zip(path, path[1:]))
        if self._paths.get(key) is path:
            self._links[key] = links
        return links

    def propagation_delay(self, path: Sequence[str]) -> float:
        """Sum of per-hop latencies, memoised for canonical minimal paths."""
        key = (path[0], path[-1]) if path else ("", "")
        if self._paths.get(key) is path:
            delay = self._delays.get(key)
            if delay is None:
                delay = self._sum_latency(path)
                self._delays[key] = delay
            return delay
        return self._sum_latency(path)

    def _sum_latency(self, path: Sequence[str]) -> float:
        # The same ``sum`` over the same per-hop floats, left to right, as
        # reading ``graph.edges[u, v]["latency"]`` hop by hop.
        latencies = self._latencies
        if latencies is None:
            latencies = self._latencies = self._shared(
                "latencies", self._build_latencies
            )
        return sum(map(latencies.__getitem__, zip(path, path[1:])))

    def _build_latencies(self) -> Mapping[Link, float]:
        graph = self._graph
        directed = graph.is_directed()
        latencies: Dict[Link, float] = {}
        for u, v, data in graph.edges(data=True):
            if "latency" in data:
                latency = float(data["latency"])
                latencies[(u, v)] = latency
                if not directed:
                    latencies[(v, u)] = latency
        return MappingProxyType(latencies)

    # --- capacities ----------------------------------------------------------

    def link_capacities(self) -> Mapping[Link, float]:
        """Per-direction link capacities (full duplex), computed once.

        Returns the shared, read-only map (the spec's, when the topology
        was built from one); callers that change capacities during
        water-filling work on a copy.  Raises
        :class:`~repro.core.errors.ConfigurationError` naming the link
        when an edge's ``bandwidth`` is not positive and finite: a graph
        built by hand does not pass ``TopologySpec``'s check, and the
        rate solvers assume real, positive capacities.
        """
        capacities = self._capacities
        if capacities is None:
            capacities = self._capacities = self._shared(
                "capacities", self._build_capacities
            )
        return capacities

    def _build_capacities(self) -> Mapping[Link, float]:
        capacities: Dict[Link, float] = {}
        for u, v, data in self._graph.edges(data=True):
            bandwidth = float(data["bandwidth"])
            if not 0.0 < bandwidth < math.inf:
                raise ConfigurationError(
                    f"link ({u!r}, {v!r}) bandwidth must be positive "
                    f"and finite, got {bandwidth!r}"
                )
            capacities[(u, v)] = bandwidth
            capacities[(v, u)] = bandwidth
        return MappingProxyType(capacities)

    # --- counters ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus current cache population."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "routes": len(self._paths),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RouteCache({self._name!r}, routes={len(self._paths)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def route_cache_for(topology: Topology) -> RouteCache:
    """The shared :class:`RouteCache` of a topology (created on first use)."""
    cache = _CACHES.get(topology)
    if cache is None:
        cache = RouteCache(topology)
        _CACHES[topology] = cache
    return cache
