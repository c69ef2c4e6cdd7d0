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
* **Photonics** — electrical reach limits and the silicon-photonics cost
  crossover (:mod:`repro.interconnect.photonics`).
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
    ".failures": (
        "ConnectivityCurve", "DegradedFabric", "connectivity_curve",
        "default_failure_rng", "disconnection_threshold", "fail_links",
        "fail_switches", "path_stretch", "terminal_connectivity",
    ),
    ".memfabric": ("AccessKind", "MemoryFabric", "MemoryPool", "MemoryTier"),
    ".photonics": ("PhotonicsCostModel", "electrical_reach"),
    ".graph": (
        "DiGraph", "Graph", "GraphError", "NetworkXNoPath", "NodeNotFound",
    ),
    ".routecache": ("RouteCache", "route_cache_for"),
    ".routing": ("adaptive_route", "minimal_route", "valiant_route"),
    ".switch": ("SwitchGeneration", "SwitchSpec"),
    ".tenancy": ("SlicedFabric", "VirtualNetwork", "encryption_overhead"),
    ".topology": (
        "TOPOLOGY_KINDS", "Topology", "TopologySpec", "build_topology",
        "enable_topology_cache", "normalize_topology_kind",
        "topology_cache_stats",
    ),
})

__all__ = [
    "AccessKind",
    "CONGESTION_POLICIES",
    "CollectiveModel",
    "CongestionManager",
    "DiGraph",
    "congestion_policy",
    "ConnectivityCurve",
    "connectivity_curve",
    "default_failure_rng",
    "DegradedFabric",
    "disconnection_threshold",
    "fail_links",
    "fail_switches",
    "path_stretch",
    "terminal_connectivity",
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
    "PhotonicsCostModel",
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
    "electrical_reach",
    "enable_topology_cache",
    "encryption_overhead",
    "minimal_route",
    "normalize_topology_kind",
    "route_cache_for",
    "topology_cache_stats",
    "training_step_communication",
    "valiant_route",
]
