"""Routing algorithms over :class:`~repro.interconnect.topology.Topology`.

Three classical options, exercised by the topology-comparison experiment:

* **minimal** — shortest path; lowest latency, but adversarial traffic
  concentrates on few links.
* **Valiant** — route via a random intermediate switch; doubles path length
  but spreads adversarial load (load balancing at the cost of latency).
* **adaptive** — choose the least-congested of several candidate paths
  using current link utilisation (an idealised version of what dragonfly
  adaptive routing does per packet).

Every minimal leg comes from the topology's shared
:class:`~repro.interconnect.routecache.RouteCache`, which notices nodes
and edges added to or removed from ``topology.graph``, and edge
attributes edited in place, by itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rng import RandomSource
from repro.interconnect.routecache import route_cache_for
from repro.interconnect.topology import Topology

#: A path is a list of node names, endpoints included.
Path = List[str]
#: Link utilisation map keyed by sorted node pair.
LinkLoad = Dict[Tuple[str, str], float]


def _edge_key(u: str, v: str) -> Tuple[str, str]:
    """Canonical (sorted) key for an undirected link."""
    return (u, v) if u <= v else (v, u)


def minimal_route(topology: Topology, source: str, destination: str) -> Path:
    """The shortest path (hop metric), as a fresh list: the cached one is shared."""
    return list(route_cache_for(topology).minimal_route(source, destination))


def valiant_route(
    topology: Topology,
    source: str,
    destination: str,
    rng: Optional[RandomSource] = None,
) -> Path:
    """Valiant routing: minimal to a random intermediate switch, then minimal on.

    The intermediate is drawn uniformly over switches distinct from the
    endpoints' attachment points, with a single ``rng.choice``.
    """
    rng = rng or RandomSource(seed=0, name="valiant")
    cache = route_cache_for(topology)
    candidates = [s for s in topology.switches if s not in (source, destination)]
    if not candidates:
        return minimal_route(topology, source, destination)
    intermediate = rng.choice(candidates)
    first_leg = cache.minimal_route(source, intermediate)
    second_leg = cache.minimal_route(intermediate, destination)
    return [*first_leg, *second_leg[1:]]


def path_load(path: Path, load: LinkLoad) -> float:
    """Maximum link utilisation along a path (bottleneck congestion)."""
    if len(path) < 2:
        return 0.0
    return max(load.get(_edge_key(u, v), 0.0) for u, v in zip(path, path[1:]))


def adaptive_route(
    topology: Topology,
    source: str,
    destination: str,
    load: LinkLoad,
    candidates: int = 4,
    congestion_bias: float = 1.0,
    rng: Optional[RandomSource] = None,
) -> Path:
    """Pick the best of the minimal path and several Valiant candidates.

    Each candidate path is scored ``hops + congestion_bias * bottleneck``;
    the minimal path wins when the network is idle, and progressively loses
    to detours as its bottleneck link saturates — the behaviour dragonfly
    adaptive routing approximates with local backpressure estimates.
    """
    rng = rng or RandomSource(seed=0, name="adaptive")
    options: List[Path] = [minimal_route(topology, source, destination)]
    for _ in range(max(0, candidates - 1)):
        options.append(valiant_route(topology, source, destination, rng=rng))

    def score(path: Path) -> float:
        return (len(path) - 1) + congestion_bias * path_load(path, load) * (len(path) - 1)

    return min(options, key=score)


def apply_path_load(path: Path, load: LinkLoad, amount: float) -> None:
    """Accumulate ``amount`` of load on every link of a path (in place)."""
    for u, v in zip(path, path[1:]):
        key = _edge_key(u, v)
        load[key] = load.get(key, 0.0) + amount


def route_demands(
    topology: Topology,
    demands: Sequence[Tuple[str, str, float]],
    algorithm: str = "minimal",
    rng: Optional[RandomSource] = None,
) -> Tuple[Dict[Tuple[str, str], Path], LinkLoad]:
    """Route a demand set and return per-demand paths plus link loads.

    Parameters
    ----------
    demands:
        Sequence of ``(source, destination, offered_load)`` triples; loads
        are in arbitrary units (e.g. fraction of a link).
    algorithm:
        ``'minimal'``, ``'valiant'`` or ``'adaptive'``.
    """
    rng = rng or RandomSource(seed=0, name=f"route/{algorithm}")
    load: LinkLoad = {}
    paths: Dict[Tuple[str, str], Path] = {}
    for source, destination, offered in demands:
        if algorithm == "minimal":
            path = minimal_route(topology, source, destination)
        elif algorithm == "valiant":
            path = valiant_route(topology, source, destination, rng=rng)
        elif algorithm == "adaptive":
            path = adaptive_route(topology, source, destination, load, rng=rng)
        else:
            raise ValueError(f"unknown routing algorithm: {algorithm!r}")
        paths[(source, destination)] = path
        apply_path_load(path, load, offered)
    return paths, load
