"""repro — a simulation framework for diversified heterogeneous HPC.

This library reproduces, as an executable system, the vision of
*"Future of HPC: Diversifying Heterogeneity"* (Milojicic, Faraboschi, Dube,
Roweth — DATE 2021): heterogeneous accelerators, low-diameter interconnects
with flow-based congestion management, CXL-class memory fabrics,
edge-to-supercomputer federation, a transparent meta-scheduler, and an
Open Compute Exchange market for compute resources.

Quickstart
----------
>>> import repro
>>> catalog = repro.default_catalog()
>>> federation = repro.Federation()
>>> # ... add sites/devices, generate a job trace, run the meta-scheduler.

Subpackages
-----------
``repro.core``
    Discrete-event kernel, units, RNG, errors.
``repro.hardware``
    Device models (CPU/GPU/systolic/wafer-scale/analog/optical/edge),
    roofline, power and cooling.
``repro.interconnect``
    Topologies, switches, flow-level fabric with congestion management,
    memory fabrics, photonics.
``repro.workloads``
    HPC kernels, AI models, hybrid closed loops, edge streams, traces.
``repro.federation``
    Sites, WAN, datasets, data gravity, bursting, SLAs.
``repro.scheduling``
    Runtime prediction, noise, cluster queues, the meta-scheduler.
``repro.resilience``
    Dynamic fault injection and recovery: campaigns, retry policies,
    checkpoint-restart, goodput accounting.
``repro.market``
    The Open Compute Exchange: order book, agents, equilibrium.
``repro.datafoundation``
    Metadata catalog, lineage/provenance DAG, transfer planning.
``repro.economics``
    Platform standardisation cost model.
``repro.analysis``
    Metrics, table rendering and sweep aggregation for benchmarks.
``repro.observability``
    Simulation telemetry: tracer, metrics registry, probes, trace export.
``repro.sweep``
    Parallel scenario sweeps: parameter grids fanned over worker
    processes with bit-identical results at any worker count.
``repro.serve``
    The long-running simulation service behind ``python -m repro serve``.
``repro.validate``
    Validation and conformance: runtime invariants, golden-result
    fingerprints, differential model checks (``python -m repro validate``).
``repro.profiles``
    Runnable experiment profiles: ``repro.profiles.run("C1", ...)``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.rng": ("RandomSource",),
    ".core.events": ("Simulation",),
    ".federation.datasets": ("Dataset",),
    ".federation.federation": ("Federation",),
    ".federation.site": ("Site", "SiteKind"),
    ".federation.wan": ("WanLink",),
    ".hardware.device": (
        "Device", "DeviceKind", "DeviceSpec", "KernelProfile",
    ),
    ".hardware.catalog": ("DeviceCatalog", "default_catalog"),
    ".hardware.precision": ("Precision",),
    ".interconnect.fabric": ("FabricSimulator", "Flow"),
    ".interconnect.topology": ("Topology", "TopologySpec", "build_topology"),
    ".interconnect.congestion": ("congestion_policy",),
    ".market.exchange": (
        "ComputeExchange", "MarketSimulation", "ResourceClass",
    ),
    ".observability.metrics": ("MetricsRegistry",),
    ".observability.probes": ("Telemetry",),
    ".observability.tracer": ("Tracer",),
    ".resilience.recovery": ("CheckpointPlan",),
    ".resilience.faults": ("FaultCampaign",),
    ".resilience.injector": ("FaultInjector",),
    ".resilience.retry": ("RetryPolicy",),
    ".resilience.metrics": ("cluster_report",),
    ".scheduling.metascheduler": ("MetaScheduler", "PlacementPolicy"),
    ".sweep.grid": ("ParameterGrid",),
    ".sweep.engine": ("SweepResult", "SweepSpec", "run_sweep"),
    ".workloads.ai": ("AIModel",),
    ".workloads.base": ("Job", "JobClass"),
    ".workloads.traces": ("JobTraceGenerator", "TraceConfig"),
}, submodules=(
    "core", "hardware", "interconnect", "workloads", "federation",
    "scheduling", "resilience", "market", "datafoundation", "economics",
    "analysis", "observability", "sweep", "serve", "validate", "profiles",
))

__version__ = "1.0.0"

__all__ = [
    "AIModel",
    "CheckpointPlan",
    "ComputeExchange",
    "Dataset",
    "Device",
    "DeviceCatalog",
    "DeviceKind",
    "DeviceSpec",
    "FabricSimulator",
    "FaultCampaign",
    "FaultInjector",
    "Federation",
    "Flow",
    "Job",
    "JobClass",
    "JobTraceGenerator",
    "KernelProfile",
    "MarketSimulation",
    "MetaScheduler",
    "MetricsRegistry",
    "ParameterGrid",
    "PlacementPolicy",
    "Precision",
    "RandomSource",
    "ResourceClass",
    "RetryPolicy",
    "Simulation",
    "Site",
    "SiteKind",
    "SweepResult",
    "SweepSpec",
    "Telemetry",
    "Topology",
    "TopologySpec",
    "TraceConfig",
    "Tracer",
    "WanLink",
    "build_topology",
    "cluster_report",
    "congestion_policy",
    "default_catalog",
    "run_sweep",
    "__version__",
]
