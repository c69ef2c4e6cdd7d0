"""Dynamic fault injection and recovery for the live simulation.

The paper's exascale argument (§III.C) is a resilience argument: systems
survive hours-scale MTBF only by checkpointing into a persistence tier and
reacting to failures as they happen. This package makes failures *dynamic*
— a :class:`FaultCampaign` schedules node deaths, link flaps and site
outages on the shared DES kernel via a :class:`FaultInjector`, and every
affected layer reacts: the cluster kills and requeues jobs under a
:class:`RetryPolicy` (optionally resuming from checkpoints per a
:class:`CheckpointPlan`), the fabric reroutes or drops in-flight transfers,
and the metascheduler fails whole sites over to survivors.

Outcomes — goodput vs. raw utilisation, wasted work, MTTI, recovery
latency, retry histograms — flow through the observability layer and
:func:`cluster_report`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".faults": (
        "FailureProcess", "FaultCampaign", "FaultEvent", "FaultKind",
        "LinkFlapSpec", "NodeFaultSpec", "SiteOutageSpec",
    ),
    ".injector": ("FaultInjector",),
    ".memerrors": (
        "CHIPKILL", "ECC_NONE", "ECC_POLICIES", "NO_SCRUB", "SEC_DED",
        "EccPolicy", "MemoryErrorCampaign", "MemoryErrorSpec",
        "MemoryErrorStats", "MemoryUpset", "ScrubPolicy", "bind_memory",
        "due_rate", "ecc_policy", "effective_mtbf", "expand_spec",
        "memory_failure_model", "outcome_fractions",
    ),
    ".metrics": (
        "ResilienceReport", "check_conservation", "cluster_report",
        "conservation",
    ),
    ".recovery": (
        "CheckpointPlan", "bind_cluster", "bind_metascheduler",
        "link_events_from_timeline",
    ),
    ".retry": ("RetryPolicy",),
})

__all__ = [
    "FaultCampaign",
    "FaultEvent",
    "FaultKind",
    "FailureProcess",
    "NodeFaultSpec",
    "LinkFlapSpec",
    "SiteOutageSpec",
    "FaultInjector",
    "CHIPKILL",
    "ECC_NONE",
    "ECC_POLICIES",
    "NO_SCRUB",
    "SEC_DED",
    "EccPolicy",
    "MemoryErrorCampaign",
    "MemoryErrorSpec",
    "MemoryErrorStats",
    "MemoryUpset",
    "ScrubPolicy",
    "bind_memory",
    "due_rate",
    "ecc_policy",
    "effective_mtbf",
    "expand_spec",
    "memory_failure_model",
    "outcome_fractions",
    "RetryPolicy",
    "CheckpointPlan",
    "bind_cluster",
    "bind_metascheduler",
    "link_events_from_timeline",
    "ResilienceReport",
    "conservation",
    "check_conservation",
    "cluster_report",
]
