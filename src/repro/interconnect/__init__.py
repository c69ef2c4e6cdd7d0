"""Interconnect models: topologies, switches, fabrics and memory hierarchies.

This subpackage reproduces the paper's interconnect discussion (§II.B and
§III.C):

* **Topologies** — low-diameter networks (dragonfly, HyperX) versus
  fat-tree and torus baselines (:mod:`repro.interconnect.topology`), built
  on the package's own insertion-ordered graph type
  (:mod:`repro.interconnect.graph`).
* **Switches** — high-radix switch generations, the SerDes area wall, and
  the "one more natural step" from 12.8 to 25.6 Tbps
  (:mod:`repro.interconnect.switch`).
* **Fabric simulation** — a flow-level network simulator with max-min fair
  bandwidth sharing (:mod:`repro.interconnect.fabric`) and pluggable
  congestion management: Slingshot-like flow-based selective backpressure
  versus an ECN-style baseline (:mod:`repro.interconnect.congestion`).
* **Memory fabric** — the PCIe/CXL/Gen-Z latency hierarchy and composable
  remote memory (:mod:`repro.interconnect.memfabric`).
* **Photonics** — the off-ASIC optical escape bandwidth of co-packaged
  silicon photonics (:mod:`repro.interconnect.photonics`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".collectives": ("CollectiveModel", "training_step_communication"),
    ".congestion": (
        "CONGESTION_POLICIES", "CongestionManager", "EcnCongestionControl",
        "FlowBasedCongestionControl", "NoCongestionControl",
        "congestion_policy",
    ),
    ".fabric": ("FabricSimulator", "Flow", "FlowStats", "LinkEvent"),
    ".ratesolver": ("IndexedSolver", "RateSolver", "ReferenceSolver"),
    ".memfabric": ("AccessKind", "MemoryFabric", "MemoryPool", "MemoryTier"),
    ".graph": (
        "DiGraph", "Graph", "GraphError", "NetworkXNoPath", "NodeNotFound",
    ),
    ".routecache": ("RouteCache", "route_cache_for"),
    ".routing": ("adaptive_route", "minimal_route", "valiant_route"),
    ".switch": ("SwitchGeneration", "SwitchSpec"),
    ".tenancy": ("SlicedFabric", "VirtualNetwork"),
    ".topology": (
        "TOPOLOGY_KINDS", "Topology", "TopologySpec", "build_topology",
        "normalize_topology_kind",
    ),
})

__all__ = [
    "AccessKind",
    "CONGESTION_POLICIES",
    "CollectiveModel",
    "CongestionManager",
    "DiGraph",
    "congestion_policy",
    "EcnCongestionControl",
    "FabricSimulator",
    "Flow",
    "FlowBasedCongestionControl",
    "FlowStats",
    "Graph",
    "GraphError",
    "IndexedSolver",
    "LinkEvent",
    "MemoryFabric",
    "MemoryPool",
    "MemoryTier",
    "NetworkXNoPath",
    "NodeNotFound",
    "NoCongestionControl",
    "RateSolver",
    "ReferenceSolver",
    "RouteCache",
    "SlicedFabric",
    "SwitchGeneration",
    "SwitchSpec",
    "TOPOLOGY_KINDS",
    "Topology",
    "TopologySpec",
    "VirtualNetwork",
    "adaptive_route",
    "build_topology",
    "minimal_route",
    "normalize_topology_kind",
    "route_cache_for",
    "training_step_communication",
    "valiant_route",
]
