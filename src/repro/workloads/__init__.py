"""Workload models: HPC kernels, AI models, hybrid loops and edge streams.

The paper's convergence argument (Figure 1, §I) is that future systems run
a *mix* of classical simulation, data analytics and machine learning. This
subpackage provides generators for all three, plus:

* hybrid closed-loop workflows where DL inference accelerates simulation
  steps (§III.B),
* instrumentation edge streams from "particle accelerators or light
  sources" (§III.A),
* statistical job-trace generators for scheduling experiments.

Workloads are device independent: they describe *what* must be computed
(FLOPs, bytes, communication and synchronisation structure); the hardware
and scheduling layers decide where and how fast it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".ai": (
        "AIModel", "LayerShape", "build_cnn", "build_mlp", "build_transformer",
    ),
    ".base": ("Job", "JobClass", "Phase", "PhaseKind", "Task"),
    ".control": (
        "DecisionMaker", "TieredControlPolicy", "edge_ai", "human_operator",
        "remote_ai", "science_yield",
    ),
    ".edge": ("DetectorPreset", "InstrumentStream"),
    ".hpc": (
        "dense_linear_algebra", "nbody", "sparse_solver", "spectral_transform",
        "stencil",
    ),
    ".hybrid": ("ClosedLoopWorkflow", "SurrogateModel"),
    ".interchange": (
        "CompiledModel", "PortableModel", "best_target", "compile_for_device",
        "export_model", "from_wire", "to_wire",
    ),
    ".synthetic": ("GanPair", "build_gan"),
    ".traces": ("JobTraceGenerator", "TraceConfig"),
})
