"""Interconnect models: topologies, switches, fabrics and memory hierarchies.

This subpackage reproduces the paper's interconnect discussion (§II.B and
§III.C):

* **Topologies** — low-diameter networks (dragonfly, HyperX) versus
  fat-tree and torus baselines (:mod:`repro.interconnect.topology`).
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

from repro.interconnect.collectives import (
    CollectiveModel,
    training_step_communication,
)
from repro.interconnect.congestion import (
    CONGESTION_POLICIES,
    CongestionManager,
    EcnCongestionControl,
    FlowBasedCongestionControl,
    NoCongestionControl,
    congestion_policy,
)
from repro.interconnect.fabric import FabricSimulator, Flow, FlowStats, LinkEvent
from repro.interconnect.ratesolver import (
    IndexedSolver,
    NumpySolver,
    RateSolver,
    ReferenceSolver,
    default_solver_name,
    get_solver,
    register_solver,
    set_default_solver,
)
from repro.interconnect.failures import (
    ConnectivityCurve,
    DegradedFabric,
    connectivity_curve,
    default_failure_rng,
    disconnection_threshold,
    fail_links,
    fail_switches,
    path_stretch,
    terminal_connectivity,
)
from repro.interconnect.memfabric import (
    AccessKind,
    MemoryFabric,
    MemoryPool,
    MemoryTier,
)
from repro.interconnect.photonics import (
    PhotonicsCostModel,
    electrical_reach,
)
from repro.interconnect.routecache import (
    RouteCache,
    invalidate_route_cache,
    route_cache_for,
)
from repro.interconnect.routing import (
    adaptive_route,
    minimal_route,
    valiant_route,
)
from repro.interconnect.switch import SwitchGeneration, SwitchSpec
from repro.interconnect.tenancy import (
    SlicedFabric,
    VirtualNetwork,
    encryption_overhead,
)
from repro.interconnect.topology import (
    TOPOLOGY_KINDS,
    Topology,
    TopologySpec,
    build_dragonfly,
    build_fat_tree,
    build_hyperx,
    build_topology,
    build_torus,
    build_two_tier,
    enable_topology_cache,
    normalize_topology_kind,
    topology_cache_stats,
)

__all__ = [
    "AccessKind",
    "CONGESTION_POLICIES",
    "CollectiveModel",
    "CongestionManager",
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
    "IndexedSolver",
    "LinkEvent",
    "MemoryFabric",
    "MemoryPool",
    "MemoryTier",
    "NoCongestionControl",
    "NumpySolver",
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
    "build_dragonfly",
    "build_fat_tree",
    "build_hyperx",
    "build_topology",
    "build_torus",
    "build_two_tier",
    "default_solver_name",
    "electrical_reach",
    "enable_topology_cache",
    "encryption_overhead",
    "get_solver",
    "invalidate_route_cache",
    "minimal_route",
    "normalize_topology_kind",
    "register_solver",
    "route_cache_for",
    "set_default_solver",
    "topology_cache_stats",
    "training_step_communication",
    "valiant_route",
]
