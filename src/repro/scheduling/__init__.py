"""Scheduling: runtime prediction, cluster queueing and the meta-scheduler.

The paper (§III.F): "Users will have their workloads run across a breadth
of silicon options, ideally with a meta-scheduler that selects the best
available for the job, but in a completely transparent manner to the
applications."

Layers:

* :mod:`repro.scheduling.runtime` — analytical runtime/energy prediction of
  a job on a device at a site (compute + communication + noise).
* :mod:`repro.scheduling.noise` — the OS/interference noise model behind
  the paper's "the slowest component dictates performance" claim (§II.C).
* :mod:`repro.scheduling.cluster` — an event-driven single-site cluster
  serving its queue first come, first served.
* :mod:`repro.scheduling.metascheduler` — federation-wide placement:
  best-silicon selection with data gravity, against static/random
  baselines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpointing": (
        "CheckpointedExecution", "CheckpointTarget", "FailureModel",
        "fabric_pm_target", "local_ssd_target", "parallel_filesystem_target",
        "young_daly_interval",
    ),
    ".cluster": ("ClusterSimulator", "JobRecord"),
    ".metascheduler": (
        "MetaScheduler", "PlacementDecision", "PlacementPolicy",
    ),
    ".noise": ("NoiseModel", "bsp_slowdown", "expected_max_of_normals"),
    ".runtime": ("RuntimeEstimate", "estimate_job"),
    ".taskgraph": (
        "DataTask", "Mapper", "Region", "TaskGraph", "TaskGraphExecutor",
    ),
})

__all__ = [
    "CheckpointTarget",
    "CheckpointedExecution",
    "ClusterSimulator",
    "DataTask",
    "FailureModel",
    "fabric_pm_target",
    "local_ssd_target",
    "parallel_filesystem_target",
    "young_daly_interval",
    "JobRecord",
    "Mapper",
    "MetaScheduler",
    "Region",
    "TaskGraph",
    "TaskGraphExecutor",
    "NoiseModel",
    "PlacementDecision",
    "PlacementPolicy",
    "RuntimeEstimate",
    "bsp_slowdown",
    "estimate_job",
    "expected_max_of_normals",
]
