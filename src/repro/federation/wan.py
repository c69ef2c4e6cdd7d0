"""Wide-area network model connecting federation sites.

The paper (§III.F): "thanks to significantly more capable WAN
interconnects, we believe the conditions are being set for a rebirth of the
Grid" — and (§III.B) the edge extension "introduces a 'wide-area
networking' context that is foreign to the traditional HPC world".

:class:`WanNetwork` is a graph of sites with per-link bandwidth, latency
and $/GB egress cost; transfer-time queries route over the cheapest or
fastest multi-hop path (a weighted shortest path over the site graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.federation.site import Site
from repro.interconnect.graph import Graph, has_path, shortest_path
from repro.observability.probes import CATEGORY_WAN, Telemetry


@dataclass(frozen=True)
class WanLink:
    """A WAN link between two sites.

    Attributes
    ----------
    bandwidth:
        Sustained bytes/s available to a single workflow (not the raw
        circuit rate — WANs are shared).
    latency:
        One-way propagation latency, seconds.
    cost_per_gb:
        Egress/transit price in dollars per GB.
    """

    bandwidth: float
    latency: float
    cost_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0 or self.cost_per_gb < 0:
            raise ConfigurationError("invalid WAN link parameters")

    def transfer_time(self, size_bytes: float) -> float:
        """Time to move ``size_bytes`` across this link."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return self.latency + size_bytes / self.bandwidth

    def transfer_dollars(self, size_bytes: float) -> float:
        """Egress cost of the transfer."""
        return (size_bytes / 1e9) * self.cost_per_gb


class WanNetwork:
    """The federation's WAN as a site graph.

    ``telemetry`` (usually wired by ``Federation.attach_telemetry``) makes
    :meth:`record_transfer` account actual cross-site movements; the pure
    ``transfer_time``/``transfer_dollars`` queries stay side-effect free so
    placement scoring never pollutes the metrics.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._graph = Graph()
        self.telemetry = telemetry

    def add_site(self, site: Site) -> None:
        self._graph.add_node(site.name, site=site)

    def connect(self, a: Site, b: Site, link: WanLink) -> None:
        """Add a bidirectional link between two (registered) sites."""
        for site in (a, b):
            if site.name not in self._graph:
                self.add_site(site)
        self._graph.add_edge(a.name, b.name, link=link)

    @property
    def sites(self) -> List[Site]:
        return [data["site"] for _, data in self._graph.nodes(data=True)]

    def site(self, name: str) -> Site:
        try:
            return self._graph.nodes[name]["site"]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def _path(self, a: Site, b: Site, weight: str) -> List[Tuple[WanLink, str, str]]:
        """Links along the best path by a weight function name."""
        if a.name == b.name:
            return []
        if not has_path(self._graph, a.name, b.name):
            raise ConfigurationError(f"no WAN path between {a.name} and {b.name}")

        def edge_weight(u: str, v: str, data: Dict) -> float:
            link: WanLink = data["link"]
            if weight == "time":
                return link.latency + 1.0 / link.bandwidth
            return link.cost_per_gb + 1e-12

        nodes = shortest_path(self._graph, a.name, b.name, weight=edge_weight)
        return [
            (self._graph.edges[u, v]["link"], u, v) for u, v in zip(nodes, nodes[1:])
        ]

    def transfer_time(self, a: Site, b: Site, size_bytes: float) -> float:
        """End-to-end transfer time over the fastest path (store-and-forward
        pipelining assumed: bottleneck bandwidth + summed latencies)."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        links = self._path(a, b, weight="time")
        if not links:
            return 0.0
        bottleneck = min(link.bandwidth for link, _, _ in links)
        latency = sum(link.latency for link, _, _ in links)
        return latency + size_bytes / bottleneck

    def transfer_dollars(self, a: Site, b: Site, size_bytes: float) -> float:
        """Egress dollars over the cheapest path."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        links = self._path(a, b, weight="cost")
        return sum(link.transfer_dollars(size_bytes) for link, _, _ in links)

    def record_transfer(
        self,
        a: Site,
        b: Site,
        size_bytes: float,
        at_time: float = 0.0,
    ) -> float:
        """Account an *actual* transfer of ``size_bytes`` from ``a`` to ``b``.

        Returns the transfer time over the fastest path (0 for same-site),
        and — when telemetry is attached — bumps the ``wan.transfer_bytes``
        / ``wan.transfers`` / ``wan.transfer_dollars`` counters and records
        a ``wan`` span from ``at_time`` to ``at_time + elapsed``.
        """
        elapsed = self.transfer_time(a, b, size_bytes)
        if self.telemetry is not None and a.name != b.name:
            dollars = self.transfer_dollars(a, b, size_bytes)
            self.telemetry.counter("wan.transfers").inc(
                src=a.name, dst=b.name
            )
            self.telemetry.counter("wan.transfer_bytes").inc(
                size_bytes, src=a.name, dst=b.name
            )
            self.telemetry.counter("wan.transfer_dollars").inc(
                dollars, src=a.name, dst=b.name
            )
            self.telemetry.tracer.complete(
                f"xfer:{a.name}->{b.name}", CATEGORY_WAN,
                at_time, at_time + elapsed,
                bytes=size_bytes, dollars=dollars,
            )
        return elapsed
