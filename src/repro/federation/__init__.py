"""Federated HPC: sites, WAN links, data gravity, bursting and accounting.

The paper's delivery-model vision (§II.C, §III.F, §III.G, Figure 3):
HPC will be "inherently heterogeneous and distributed from edge to core",
delivered through **vertical federation** (edge → supercomputer → cloud)
and **horizontal federation** (multi-cloud and multi-site), with workloads
placed "not only following compute resources availability but targeting the
optimization of job completion time end to end, including the data
transfer" (data gravity).

This subpackage models the substrate those claims need: sites of different
kinds holding devices, a WAN connecting them, datasets pinned to sites, and
the staged delivery evolution (bursting → fluidity → grid → exchange).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".accounting": ("AccountingLedger", "MeterRecord"),
    ".bursting": ("BurstingPolicy", "DeliveryStage"),
    ".datasets": ("Dataset", "DatasetCatalog"),
    ".federation": ("Federation",),
    ".gravity": ("transfer_cost",),
    ".site": ("Site", "SiteKind"),
    ".wan": ("WanLink", "WanNetwork"),
    ".workflow": (
        "StepExecution", "WorkflowEngine", "WorkflowResult", "WorkflowStep",
    ),
})
