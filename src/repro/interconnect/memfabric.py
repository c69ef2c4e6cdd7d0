"""Memory-fabric model: the PCIe / CXL / Gen-Z latency hierarchy.

The paper (§II.B): "PCIe latencies are far too high for memory access and
each of the CPU vendors is developing its own point-to-point interconnect,
with efforts such as CCIX, OpenCAPI, Gen-Z and CXL ... If the same interface
is used to connect a high-speed network adapter, the latency savings can be
extended to the system scale and open up new composable architectures."

And §III.C / Figure 2: "the same physical interfaces ... can be used for
both local connectivity amongst CPUs or accelerators, access to persistent
memory, and connectivity to high bandwidth networks at the rack or system
scale. The design separates persistent memory, the first storage tier, from
processing."

The model provides:

* :class:`MemoryTier` — a named (latency, bandwidth) tier at one of the
  three scales of Figure 2 (device, rack, system),
* :class:`MemoryFabric` — an ordered hierarchy answering access-time
  queries and composing remote :class:`MemoryPool` capacity into a node's
  address space,
* two canned hierarchies, :func:`pcie_era_fabric` (PCIe + RDMA + TCP) and
  :func:`cxl_era_fabric` (coherent load/store at every scale), which the
  Figure 2 experiment compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.core.errors import CapacityError, ConfigurationError


class AccessKind(Enum):
    """How software reaches the tier (affects small-access cost)."""

    LOAD_STORE = "load_store"        # CPU instruction, cacheline granularity
    DMA = "dma"                      # doorbell + descriptor + completion
    RPC = "rpc"                      # software stack traversal


class Scale(Enum):
    """Figure 2's three scales."""

    DEVICE = "device"
    RACK = "rack"
    SYSTEM = "system"


@dataclass(frozen=True)
class MemoryTier:
    """One level of the memory/storage hierarchy.

    Attributes
    ----------
    name:
        e.g. ``'local-ddr'``, ``'cxl-attached'``, ``'rdma-remote'``.
    scale:
        Which Figure 2 scale the tier lives at.
    latency:
        One-way small-access latency, seconds.
    bandwidth:
        Per-endpoint sustained bandwidth, bytes/s.
    access:
        Software access mechanism.
    persistent:
        Whether the tier retains data across power loss (the paper's
        "persistent memory, the first storage tier").
    """

    name: str
    scale: Scale
    latency: float
    bandwidth: float
    access: AccessKind
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.latency <= 0 or self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: latency/bandwidth must be positive")

    #: Fixed software overhead per operation by access kind, seconds.
    _SOFTWARE_OVERHEAD = {
        AccessKind.LOAD_STORE: 0.0,
        AccessKind.DMA: 1e-6,
        AccessKind.RPC: 20e-6,
    }

    def access_time(self, size_bytes: float) -> float:
        """Time to move ``size_bytes`` to/from this tier, one operation."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        overhead = self._SOFTWARE_OVERHEAD[self.access]
        return overhead + self.latency + size_bytes / self.bandwidth

    def effective_bandwidth(self, size_bytes: float) -> float:
        """Achieved bandwidth for one transfer of this size."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        return size_bytes / self.access_time(size_bytes)


@dataclass
class MemoryPool:
    """A pool of fabric-attached memory that nodes can compose from."""

    name: str
    capacity: float
    tier: MemoryTier
    allocated: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(f"{self.name}: capacity must be positive")

    @property
    def free(self) -> float:
        return self.capacity - self.allocated

    def allocate(self, size: float) -> None:
        """Reserve ``size`` bytes; raises :class:`CapacityError` if exhausted."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if size > self.free:
            raise CapacityError(
                f"{self.name}: requested {size:.3g} B but only {self.free:.3g} B free"
            )
        self.allocated += size

    def release(self, size: float) -> None:
        """Return ``size`` bytes to the pool."""
        if size <= 0:
            raise ValueError("release size must be positive")
        if size > self.allocated:
            raise ValueError(f"{self.name}: releasing more than allocated")
        self.allocated -= size


class MemoryFabric:
    """An ordered memory hierarchy plus composable fabric-attached pools."""

    def __init__(self, name: str, tiers: List[MemoryTier]) -> None:
        if not tiers:
            raise ConfigurationError("fabric needs at least one tier")
        self.name = name
        self.tiers = sorted(tiers, key=lambda t: t.latency)
        self._by_name: Dict[str, MemoryTier] = {t.name: t for t in tiers}
        if len(self._by_name) != len(tiers):
            raise ConfigurationError("tier names must be unique")
        self.pools: Dict[str, MemoryPool] = {}

    def tier(self, name: str) -> MemoryTier:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise KeyError(f"unknown tier {name!r}; fabric has: {known}") from None

    def add_pool(self, pool: MemoryPool) -> MemoryPool:
        """Register a composable memory pool (tier must be in the fabric)."""
        if pool.tier.name not in self._by_name:
            raise ConfigurationError(
                f"pool {pool.name} references unknown tier {pool.tier.name}"
            )
        if pool.name in self.pools:
            raise ConfigurationError(f"duplicate pool name: {pool.name}")
        self.pools[pool.name] = pool
        return pool

    def compose(self, required_bytes: float) -> List[MemoryPool]:
        """Allocate ``required_bytes`` across pools, fastest tier first.

        This is the paper's composability scenario: "bring together any
        selection of processing and memory/storage resources based on
        demand". Returns the pools used; raises if capacity is insufficient
        (rolling back partial allocations).
        """
        if required_bytes <= 0:
            raise ValueError("required_bytes must be positive")
        ordered = sorted(self.pools.values(), key=lambda p: p.tier.latency)
        taken: List[tuple] = []
        outstanding = required_bytes
        for pool in ordered:
            if outstanding <= 0:
                break
            grab = min(pool.free, outstanding)
            if grab > 0:
                pool.allocate(grab)
                taken.append((pool, grab))
                outstanding -= grab
        if outstanding > 1e-9:
            for pool, grab in taken:
                pool.release(grab)
            raise CapacityError(
                f"{self.name}: cannot compose {required_bytes:.3g} B "
                f"({outstanding:.3g} B short)"
            )
        return [pool for pool, _ in taken]


def pcie_era_fabric() -> MemoryFabric:
    """The pre-CXL hierarchy: load/store stops at the socket.

    Everything beyond local DDR is DMA (PCIe) or RPC (RDMA/TCP), with the
    corresponding software overheads — "PCIe latencies are far too high for
    memory access".
    """
    return MemoryFabric("pcie-era", [
        MemoryTier("local-ddr", Scale.DEVICE, 90e-9, 200e9, AccessKind.LOAD_STORE),
        MemoryTier("numa-remote", Scale.DEVICE, 140e-9, 100e9, AccessKind.LOAD_STORE),
        MemoryTier("pcie-device", Scale.DEVICE, 900e-9, 32e9, AccessKind.DMA),
        MemoryTier("rdma-rack", Scale.RACK, 2e-6, 12.5e9, AccessKind.DMA),
        MemoryTier("tcp-system", Scale.SYSTEM, 30e-6, 5e9, AccessKind.RPC),
    ])


def cxl_era_fabric() -> MemoryFabric:
    """The unified CXL/Gen-Z hierarchy of Figure 2.

    Coherent load/store reaches pooled memory at rack scale, and the same
    physical interface carries the system network, keeping even
    system-scale access at DMA cost — "extending the latency savings to the
    system scale".
    """
    return MemoryFabric("cxl-era", [
        MemoryTier("local-ddr", Scale.DEVICE, 90e-9, 200e9, AccessKind.LOAD_STORE),
        MemoryTier("cxl-attached", Scale.DEVICE, 250e-9, 64e9, AccessKind.LOAD_STORE),
        MemoryTier("cxl-pooled-rack", Scale.RACK, 400e-9, 50e9, AccessKind.LOAD_STORE,
                   ),
        MemoryTier("fabric-persistent", Scale.RACK, 600e-9, 40e9,
                   AccessKind.LOAD_STORE, persistent=True),
        MemoryTier("fabric-system", Scale.SYSTEM, 1.5e-6, 25e9, AccessKind.DMA),
    ])
