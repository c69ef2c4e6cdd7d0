"""Per-application virtual networks with isolation and encryption.

The paper (§III.C): "The system will instantiate a virtual network for
each application or workflow, a secure environment with strong service
level guarantees that allows a heterogeneous mix of processing capabilities
to be used together on solving a single problem. The network will protect
itself from the tenants 'zero trust' and isolate them from each other.
Integration of strong encryption in the network with that in the CPUs will
ensure that data can only be accessed by its owners."

Model:

* a :class:`VirtualNetwork` is a tenant slice with a guaranteed bandwidth
  share and an optional line-rate encryption setting (throughput tax +
  per-hop latency adder for the MACsec-style pipeline),
* :class:`SlicedFabric` runs each tenant's flows on a private copy of the
  topology whose link capacities are scaled to the tenant's share —
  hardware-enforced isolation — whereas the unsliced baseline mixes all
  tenants' flows in one best-effort fabric.

The C15 experiment shows tenant isolation: an aggressor tenant's incast
cannot disturb a victim tenant's latency when slicing is on, and the
encryption tax is a bounded, predictable constant.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import CapacityError, ConfigurationError
from repro.interconnect.congestion import CongestionManager, NoCongestionControl
from repro.interconnect.fabric import FabricSimulator, Flow, FlowStats
from repro.interconnect.topology import Topology


@dataclass
class VirtualNetwork:
    """One tenant's slice of the fabric.

    Attributes
    ----------
    tenant:
        Tenant name (unique within a sliced fabric).
    bandwidth_share:
        Guaranteed fraction of every link's capacity, in (0, 1].
    encrypted:
        Whether the slice runs with line-rate encryption enabled.
    encryption_throughput_tax:
        Fractional bandwidth loss when encrypted (header/ICV overhead).
    encryption_hop_latency:
        Extra per-hop latency of the encrypt/decrypt pipeline, seconds.
    """

    tenant: str
    bandwidth_share: float
    encrypted: bool = False
    encryption_throughput_tax: float = 0.05
    encryption_hop_latency: float = 150e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_share <= 1.0:
            raise ConfigurationError(
                f"{self.tenant}: bandwidth_share must be in (0, 1]"
            )
        if not 0.0 <= self.encryption_throughput_tax < 1.0:
            raise ConfigurationError("encryption tax must be in [0, 1)")
        if self.encryption_hop_latency < 0:
            raise ConfigurationError("encryption latency must be non-negative")

    @property
    def effective_share(self) -> float:
        """Bandwidth share after the encryption throughput tax."""
        if self.encrypted:
            return self.bandwidth_share * (1.0 - self.encryption_throughput_tax)
        return self.bandwidth_share


class SlicedFabric:
    """A topology partitioned into per-tenant virtual networks."""

    def __init__(
        self,
        topology: Topology,
        congestion: Optional[CongestionManager] = None,
    ) -> None:
        self.topology = topology
        self.congestion = congestion or NoCongestionControl()
        self._slices: Dict[str, VirtualNetwork] = {}

    def allocate(self, slice_: VirtualNetwork) -> VirtualNetwork:
        """Admit a tenant slice; total guaranteed shares cannot exceed 1."""
        if slice_.tenant in self._slices:
            raise ConfigurationError(f"duplicate tenant: {slice_.tenant}")
        committed = sum(s.bandwidth_share for s in self._slices.values())
        if committed + slice_.bandwidth_share > 1.0 + 1e-9:
            raise CapacityError(
                f"cannot admit {slice_.tenant}: "
                f"{committed + slice_.bandwidth_share:.2f} > 1.0 total share"
            )
        self._slices[slice_.tenant] = slice_
        return slice_

    def release(self, tenant: str) -> None:
        """Tear down a tenant's virtual network."""
        if tenant not in self._slices:
            raise KeyError(f"unknown tenant {tenant!r}")
        del self._slices[tenant]

    @property
    def tenants(self) -> List[str]:
        return sorted(self._slices)

    def remaining_share(self) -> float:
        return 1.0 - sum(s.bandwidth_share for s in self._slices.values())

    def _sliced_topology(self, slice_: VirtualNetwork) -> Topology:
        """A private topology copy with scaled capacities (and encryption
        latency added per link when the slice is encrypted)."""
        graph = copy.deepcopy(self.topology.graph)
        for _, _, data in graph.edges(data=True):
            data["bandwidth"] = data["bandwidth"] * slice_.effective_share
            if slice_.encrypted:
                data["latency"] = data["latency"] + slice_.encryption_hop_latency
        return Topology(f"{self.topology.name}/{slice_.tenant}", graph)

    def run_isolated(
        self, flows_by_tenant: Dict[str, Sequence[Flow]]
    ) -> Dict[str, List[FlowStats]]:
        """Run each tenant on its own slice — hardware isolation.

        Unknown tenants raise; tenants without flows are skipped.
        """
        results: Dict[str, List[FlowStats]] = {}
        for tenant, flows in flows_by_tenant.items():
            if tenant not in self._slices:
                raise KeyError(f"unknown tenant {tenant!r}")
            slice_ = self._slices[tenant]
            simulator = FabricSimulator(
                self._sliced_topology(slice_), congestion=self.congestion
            )
            results[tenant] = simulator.run(list(flows))
        return results

    def run_shared(
        self, flows_by_tenant: Dict[str, Sequence[Flow]]
    ) -> Dict[str, List[FlowStats]]:
        """Run all tenants mixed on the raw fabric — the no-slicing baseline.

        Flow tags are rewritten to ``tenant:original-tag`` so results can be
        attributed back.
        """
        tagged: List[Flow] = []
        for tenant, flows in flows_by_tenant.items():
            for flow in flows:
                tagged.append(
                    Flow(
                        source=flow.source,
                        destination=flow.destination,
                        size=flow.size,
                        start_time=flow.start_time,
                        tag=f"{tenant}:{flow.tag}",
                    )
                )
        simulator = FabricSimulator(self.topology, congestion=self.congestion)
        stats = simulator.run(tagged)
        results: Dict[str, List[FlowStats]] = {t: [] for t in flows_by_tenant}
        for stat in stats:
            tenant = stat.tag.split(":", 1)[0]
            results[tenant].append(stat)
        return results
