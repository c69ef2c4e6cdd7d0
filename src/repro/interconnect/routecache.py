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
  so a derived topology (a :class:`~repro.interconnect.failures.DegradedFabric`
  after ``fail_links``/``fail_switches``, or a tenant slice from
  :class:`~repro.interconnect.tenancy.SlicedFabric`) starts from an empty
  cache and can never see its parent's routes.
* A miss runs :func:`~repro.interconnect.graph.bidirectional_shortest_path`
  (networkx's bidirectional BFS) over neighbour lists taken from the graph
  once, in ``graph.adj`` order, so it returns networkx's node list without
  building adjacency views per call.  Propagation delays sum a per-link
  latency map, also built once, in the same left-to-right order as
  per-edge reads.
* The cache remembers the graph's ``mutations`` count.  When a node or
  edge is added or removed in place (a link flap), the count moves and
  the next lookup first drops every memoised route, neighbour list,
  latency and capacity; on a hit this costs one integer compare.  An
  attribute edited in place (``graph.edges[u, v]["bandwidth"]``) does
  not move the count: :meth:`RouteCache.clear` drops what was derived
  from the old value.

Only deterministic routes are cached (minimal/shortest paths); Valiant
and adaptive routes draw from an RNG and are always computed fresh.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Tuple

from repro.core.errors import ConfigurationError
from repro.interconnect.graph import NodeNotFound, bidirectional_shortest_path
from repro.interconnect.topology import Topology

#: A directed link as traversed by a flow.
Link = Tuple[str, str]

_CACHES: "weakref.WeakKeyDictionary[Topology, RouteCache]" = (
    weakref.WeakKeyDictionary()
)


class RouteCache:
    """Memoised routing state for one :class:`Topology`.

    The cached path/link lists are shared between callers and must be
    treated as immutable; :class:`FabricSimulator` replaces (never edits)
    a flow's path when it reroutes.

    Holds the topology's *graph*, not the :class:`Topology` itself — the
    registry keys on the topology in a ``WeakKeyDictionary``, and a
    value that referenced its own key would keep the entry alive forever.
    """

    __slots__ = ("_graph", "_mutations", "_name", "_paths", "_links",
                 "_delays", "_capacities", "_successors", "_predecessors",
                 "_latencies", "hits", "misses")

    def __init__(self, topology: Topology) -> None:
        self._graph = topology.graph
        self._mutations = self._graph.mutations
        self._name = topology.name
        self._paths: Dict[Tuple[str, str], List[str]] = {}
        self._links: Dict[Tuple[str, str], List[Link]] = {}
        self._delays: Dict[Tuple[str, str], float] = {}
        self._capacities: Dict[Link, float] = {}
        self._successors: Dict[str, List[str]] = {}
        self._predecessors: Dict[str, List[str]] = {}
        self._latencies: Dict[Link, float] = {}
        self.hits = 0
        self.misses = 0

    # --- routes --------------------------------------------------------------

    def minimal_route(self, source: str, destination: str) -> List[str]:
        """Shortest path, memoised by endpoint pair."""
        if self._graph.mutations != self._mutations:
            self.clear()
        key = (source, destination)
        path = self._paths.get(key)
        if path is None:
            self.misses += 1
            path = self._shortest_path(source, destination)
            self._paths[key] = path
        else:
            self.hits += 1
        return path

    def _shortest_path(self, source: str, target: str) -> List[str]:
        """networkx's ``shortest_path(graph, source, target)``, node for node.

        The bidirectional BFS runs over plain neighbour lists taken once
        from ``graph.adj`` (``pred`` too for a directed graph) in the
        graph's own order, so it expands the same fringes and meets at
        the same node as networkx; the exceptions and messages are
        networkx's too.
        """
        succ_of = self._successors
        if not succ_of:
            graph = self._graph
            succ_of.update(
                (node, list(neighbours)) for node, neighbours in graph.adj.items()
            )
            if graph.is_directed():
                self._predecessors.update(
                    (node, list(neighbours))
                    for node, neighbours in graph.pred.items()
                )
        if source not in succ_of:
            raise NodeNotFound(f"Source {source} is not in G")
        if target not in succ_of:
            raise NodeNotFound(f"Target {target} is not in G")
        return bidirectional_shortest_path(
            succ_of, self._predecessors or succ_of, source, target
        )

    def links_of(self, path: List[str]) -> List[Link]:
        """Directed link decomposition, memoised by endpoint pair.

        Only minimal paths are memoised (one canonical path per endpoint
        pair); detour paths fall through to a fresh decomposition.
        """
        if self._graph.mutations != self._mutations:
            self.clear()
        key = (path[0], path[-1]) if path else ("", "")
        cached = self._links.get(key)
        if cached is not None and self._paths.get(key) is path:
            return cached
        links = list(zip(path, path[1:]))
        if self._paths.get(key) is path:
            self._links[key] = links
        return links

    def propagation_delay(self, path: List[str]) -> float:
        """Sum of per-hop latencies, memoised for canonical minimal paths."""
        if self._graph.mutations != self._mutations:
            self.clear()
        key = (path[0], path[-1]) if path else ("", "")
        if self._paths.get(key) is path:
            delay = self._delays.get(key)
            if delay is None:
                delay = self._sum_latency(path)
                self._delays[key] = delay
            return delay
        return self._sum_latency(path)

    def _sum_latency(self, path: List[str]) -> float:
        # The same ``sum`` over the same per-hop floats, left to right, as
        # reading ``graph.edges[u, v]["latency"]`` hop by hop.
        latencies = self._latencies
        if not latencies:
            graph = self._graph
            directed = graph.is_directed()
            for u, v, data in graph.edges(data=True):
                if "latency" in data:
                    latency = float(data["latency"])
                    latencies[(u, v)] = latency
                    if not directed:
                        latencies[(v, u)] = latency
        return sum(map(latencies.__getitem__, zip(path, path[1:])))

    # --- capacities ----------------------------------------------------------

    def link_capacities(self) -> Dict[Link, float]:
        """Per-direction link capacities (full duplex), computed once.

        Returns the shared map; callers that mutate capacities during
        water-filling must copy it first.  Raises
        :class:`~repro.core.errors.ConfigurationError` naming the link
        when an edge's ``bandwidth`` is not positive and finite: a graph
        built or edited by hand does not pass ``TopologySpec``'s check,
        and the rate solvers assume real, positive capacities.
        """
        if self._graph.mutations != self._mutations:
            self.clear()
        if not self._capacities:
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
            self._capacities = capacities
        return self._capacities

    # --- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop every memoised route, link, capacity, neighbour list and
        latency, and adopt the graph's current ``mutations`` count (stats
        are kept)."""
        self._mutations = self._graph.mutations
        self._paths.clear()
        self._links.clear()
        self._delays.clear()
        self._capacities.clear()
        self._successors.clear()
        self._predecessors.clear()
        self._latencies.clear()

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


def cached_topology_count() -> int:
    """How many live topologies currently hold a route cache."""
    return len(_CACHES)
