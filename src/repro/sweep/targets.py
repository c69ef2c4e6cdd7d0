"""Sweep targets: the functions a scenario sweep fans out over.

A *target* maps one grid point to a flat metrics dict::

    def target(params, telemetry, rng) -> Dict[str, float]

where ``params`` is the point's parameter dict, ``telemetry`` is a fresh
:class:`~repro.observability.probes.Telemetry` for the point, and ``rng``
is a :class:`~repro.core.rng.RandomSource` derived only from the sweep
seed and the point index — never from the worker that happens to run it.

Targets are registered by name so a :class:`~repro.sweep.engine.SweepSpec`
stays declarative (and picklable).  Two families exist out of the box:

* ``"fabric-congestion"`` — uniform random traffic on a canned topology
  with a chosen congestion policy and offered load (the congestion-study
  scenario from the paper's §II.B discussion, sweepable).
* ``"profile:<id>"`` — any run profile from :mod:`repro.profiles`; grid
  parameters become keyword overrides (``run("C1", **params)``).
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, Optional, Tuple

from repro.core.rng import RandomSource
from repro.interconnect.congestion import congestion_policy
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology, normalize_topology_kind
from repro.observability import Telemetry

SweepTarget = Callable[[Dict[str, object], Telemetry, RandomSource], Dict[str, float]]

#: Registered targets by name (see :func:`register_target`).
TARGETS: Dict[str, SweepTarget] = {}


def register_target(name: str) -> Callable[[SweepTarget], SweepTarget]:
    """Decorator: register a sweep target under ``name``."""

    def wrap(fn: SweepTarget) -> SweepTarget:
        TARGETS[name] = fn
        return fn

    return wrap


def preload_target(name: str) -> SweepTarget:
    """Resolve ``name`` and import every module its points will use.

    The sweep parent calls this before it starts workers: forked workers
    inherit the modules instead of importing them on their first point,
    and a spawned worker imports them before it reports ready.
    """
    target = resolve_target(name)
    for module in _TARGET_IMPORTS.get(name, ()):
        importlib.import_module(module)
    return target


#: Modules a target imports inside its body, by target name.
_TARGET_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "resilience-churn": ("repro.profiles",),
    "memory-reliability": ("repro.profiles",),
}


def resolve_target(name: str) -> SweepTarget:
    """Look up a target by name.

    ``profile:<id>`` resolves dynamically to the matching run profile;
    anything else must be in :data:`TARGETS`.  Unknown names raise
    ``KeyError`` listing what is sweepable.
    """
    if name in TARGETS:
        return TARGETS[name]
    if name.startswith("profile:"):
        profile_id = name.split(":", 1)[1]
        from repro import profiles

        if profile_id.upper() not in profiles.PROFILES:
            known = ", ".join(sorted(profiles.PROFILES))
            raise KeyError(
                f"no run profile for sweep target {name!r}; profiles: {known}"
            )
        return _profile_target(profile_id)
    known = ", ".join(sorted(TARGETS)) + ", profile:<id>"
    raise KeyError(f"unknown sweep target {name!r}; sweepable: {known}")


def _profile_target(profile_id: str) -> SweepTarget:
    def run_point(
        params: Dict[str, object],
        telemetry: Telemetry,
        rng: RandomSource,
    ) -> Dict[str, float]:
        from repro import profiles

        overrides = dict(params)
        # Profiles that take a seed get one derived from (sweep seed,
        # point index) unless the grid pins it; seedless profiles are
        # deterministic already.
        profile = profiles.PROFILES[profile_id.upper()]
        if "seed" not in overrides and "seed" in inspect.signature(profile).parameters:
            overrides["seed"] = rng.integer(0, 2**31 - 1)
        result = profiles.run(profile_id, telemetry, **overrides)
        return result.metrics

    return run_point


# --- the fabric congestion target ---------------------------------------------

#: Canned topology sizes for the fabric target — small enough that one
#: point runs in well under a second, large enough that congestion policies
#: separate.  All have >= 64 terminals.
_FABRIC_TOPOLOGIES: Dict[str, Dict[str, object]] = {
    "dragonfly": {"groups": 6, "routers_per_group": 4, "terminals": 4},
    "hyperx": {"dims": (4, 4), "terminals": 4},
    "fat-tree": {"k": 6},
    "two-tier": {"leaves": 8, "spines": 4, "terminals": 8},
    "torus": {"dims": (4, 4, 4), "terminals": 1},
}

#: Congestion axis values understood by the fabric target.  The
#: ``flow-adaptive`` variant is the flow-based policy with adaptive
#: rerouting of hot flows enabled on top.
FABRIC_CONGESTION_VARIANTS = ("none", "ecn", "flow", "flow-adaptive")


@register_target("fabric-congestion")
def fabric_congestion(
    params: Dict[str, object],
    telemetry: Telemetry,
    rng: RandomSource,
) -> Dict[str, float]:
    """Uniform random traffic on a canned topology under a congestion policy.

    Grid parameters (all optional except ``topology``):

    ``topology``
        Any :data:`~repro.interconnect.topology.TOPOLOGY_KINDS` name.
    ``congestion``
        One of :data:`FABRIC_CONGESTION_VARIANTS` (default ``"none"``).
    ``load``
        Offered load as a fraction of a 25 GB/s terminal line rate in
        (0, 1]; sets the mean flow inter-arrival gap (default ``0.5``).
    ``flows`` / ``flow_size``
        Trace length and per-flow bytes (defaults 96 and 2 MB).
    """
    kind = normalize_topology_kind(str(params["topology"]))
    spec = dict(_FABRIC_TOPOLOGIES[kind])
    variant = str(params.get("congestion", "none"))
    adaptive = variant == "flow-adaptive"
    policy = congestion_policy("flow" if adaptive else variant)
    load = float(params.get("load", 0.5))
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")
    flow_count = int(params.get("flows", 96))
    flow_size = float(params.get("flow_size", 2e6))

    topology = build_topology(kind, **spec)
    simulator = FabricSimulator(
        topology,
        congestion=policy,
        reroute_adaptively=adaptive,
        telemetry=telemetry,
    )
    terminals = list(topology.terminals)
    mean_gap = flow_size / (load * 25e9)
    clock = 0.0
    trace = []
    for index in range(flow_count):
        source, destination = rng.sample(terminals, 2)
        trace.append(
            Flow(
                source=source, destination=destination,
                size=flow_size, start_time=clock, flow_id=index,
            )
        )
        clock += rng.exponential(mean_gap)
    stats = simulator.run(trace)
    completions = sorted(s.completion_time for s in stats)
    mean_fct = sum(completions) / len(completions) if completions else 0.0
    p99 = completions[int(0.99 * (len(completions) - 1))] if completions else 0.0
    return {
        "flows_finished": float(len(stats)),
        "mean_fct_s": mean_fct,
        "p99_fct_s": p99,
        "max_fct_s": completions[-1] if completions else 0.0,
        "bytes": float(sum(s.size for s in stats)),
        "congestion_events": telemetry.counter(
            "fabric.congestion_events"
        ).total(),
    }


# --- the cluster-churn targets -----------------------------------------------
#
# Both build and run the churn scenario through repro.profiles, imported in
# their bodies so a fabric-only sweep never loads the cluster stack.


@register_target("resilience-churn")
def resilience_churn(
    params: Dict[str, object],
    telemetry: Telemetry,
    rng: RandomSource,
) -> Dict[str, float]:
    """A single-site cluster under a node-fault campaign, swept.

    A batch of identical jobs runs on ``nodes`` devices while an
    exponential node-failure process kills them; killed jobs requeue under
    a bounded retry policy, optionally resuming from periodic checkpoints.
    All randomness (fault timeline, victim choice) forks from the point's
    ``rng``, so the sweep engine's fingerprint contract covers the fault
    schedule too — ``fault_time_sum`` lands in the metrics precisely so a
    perturbed timeline changes the sweep fingerprint.

    Grid parameters (all optional):

    ``nodes`` / ``jobs`` / ``ranks``
        Cluster size, job count and per-job width (defaults 8, 24, 1).
    ``work``
        Intended per-job runtime in seconds (default 900); job kernels are
        calibrated so the runtime estimate matches.
    ``mtbf``
        Aggregate mean time between node failures at the site, seconds
        (default 4000).
    ``repair_time``
        Node downtime per failure (default 120).
    ``checkpoint_interval`` / ``checkpoint_cost`` / ``restart_time``
        Periodic checkpointing knobs; interval 0 (default) disables
        checkpointing entirely.
    ``max_retries`` / ``base_delay``
        Retry policy bounds (defaults 10 and 5 s; jitter stays 0 so only
        the named forks consume randomness).
    ``arrival_gap``
        Seconds between job arrivals (default 60).
    """
    from repro import profiles
    from repro.federation import SiteKind
    from repro.resilience import CheckpointPlan

    jobs = int(params.get("jobs", 24))
    work = float(params.get("work", 900.0))
    arrival_gap = float(params.get("arrival_gap", 60.0))
    interval = float(params.get("checkpoint_interval", 0.0))
    site = profiles.churn_site(
        "churn", SiteKind.ON_PREMISE, int(params.get("nodes", 8))
    )
    run = profiles.run_churn(
        telemetry, rng, site,
        profiles.calibrated_jobs(
            site, "churn", jobs, work=work, arrival_gap=arrival_gap,
            ranks=int(params.get("ranks", 1)),
        ),
        profiles.node_fault_campaign(
            site,
            mtbf=float(params.get("mtbf", 4_000.0)),
            repair_time=float(params.get("repair_time", 120.0)),
            horizon=_horizon(params, jobs, arrival_gap, work),
        ),
        retry_policy=_retry_policy(params),
        checkpoint=CheckpointPlan(
            interval=interval,
            cost=float(params.get("checkpoint_cost", 30.0)),
            restart_time=float(params.get("restart_time", 30.0)),
        ) if interval > 0 else None,
    )
    report = run.report
    return {
        "completed": float(report.completed),
        "dead": float(report.dead),
        "kills": float(report.kills),
        "retries_total": float(report.retries),
        "faults_injected": float(run.injected),
        "goodput": report.goodput,
        "utilization": report.utilization,
        "wasted_device_seconds": report.wasted_device_seconds,
        "makespan_s": report.makespan,
        "fault_time_sum": sum(event.time for event in run.timeline),
    }


@register_target("memory-reliability")
def memory_reliability(
    params: Dict[str, object],
    telemetry: Telemetry,
    rng: RandomSource,
) -> Dict[str, float]:
    """Reliability vs sustainability: ECC/scrub strength under memory errors.

    The churn scenario with memory as the failure domain: a FIT-rate
    upset process over the site's DRAM is classified by the swept ECC
    and patrol-scrub policies; DUEs kill jobs through the
    checkpoint-restart path, and the checkpoint interval itself is
    derived from the FIT rate via :func:`~repro.profiles.memory_plan`.
    Each point is scored in goodput *and* carbon (operational + embodied
    per completed job), so the sweep trades scrub aggressiveness and ECC
    strength against gCO2e directly.  ``upset_time_sum`` lands in the
    metrics so a perturbed upset timeline changes the sweep fingerprint.

    Grid parameters (all optional):

    ``ecc``
        ECC policy name: ``none`` / ``sec-ded`` / ``chipkill``
        (default ``sec-ded``).
    ``scrub_interval``
        Patrol-scrub period in seconds; ``0`` disables scrubbing
        (default 900).
    ``fit_per_gib``
        Accelerated upset rate in FIT/GiB (default 4e6).
    ``nodes`` / ``jobs`` / ``work`` / ``arrival_gap``
        Cluster size, job count, per-job seconds and arrival spacing
        (defaults 8, 24, 900, 60).
    ``node_mtbf``
        Per-node hardware MTBF excluding memory (default 30000 s).
    ``max_retries`` / ``base_delay``
        Retry policy bounds (defaults 10 and 5 s).
    """
    import math

    from repro import profiles
    from repro.federation import SiteKind
    from repro.resilience import MemoryErrorCampaign

    jobs = int(params.get("jobs", 24))
    work = float(params.get("work", 900.0))
    arrival_gap = float(params.get("arrival_gap", 60.0))
    site = profiles.churn_site(
        "memrel", SiteKind.ON_PREMISE, int(params.get("nodes", 8))
    )
    spec, _, plan = profiles.memory_plan(
        site,
        fit_per_gib=float(params.get("fit_per_gib", 4e6)),
        ecc=str(params.get("ecc", "sec-ded")),
        scrub_interval=float(params.get("scrub_interval", 900.0)),
        node_mtbf=float(params.get("node_mtbf", 30_000.0)),
        checkpoint_bytes=2e11,
    )
    run = profiles.run_churn(
        telemetry, rng, site,
        profiles.calibrated_jobs(
            site, "memrel", jobs, work=work, arrival_gap=arrival_gap
        ),
        MemoryErrorCampaign(
            horizon=_horizon(params, jobs, arrival_gap, work),
            memory=(spec,),
        ),
        retry_policy=_retry_policy(params),
        checkpoint=plan,
    )
    report, memory = run.report, run.memory
    carbon = profiles.carbon_report(site, report, spec)
    gco2e_per_job = carbon["gco2e_per_job"]
    return {
        "completed": float(report.completed),
        "dead": float(report.dead),
        "kills": float(report.kills),
        "retries_total": float(report.retries),
        "mem_corrected": float(memory.corrected),
        "mem_due": float(memory.due),
        "mem_silent": float(memory.silent),
        "mem_kills": float(memory.kills),
        "checkpoint_interval_s": plan.interval,
        "goodput": report.goodput,
        "utilization": report.utilization,
        "makespan_s": report.makespan,
        "energy_kwh": carbon["energy_kwh"],
        "carbon_total_kg": carbon["total_kg"],
        # Runs completing nothing have no per-job carbon; JSON cannot
        # carry inf, so the sentinel is 0 alongside completed == 0.
        "gco2e_per_job": 0.0 if math.isinf(gco2e_per_job) else gco2e_per_job,
        "upset_time_sum": sum(event.time for event in run.timeline),
    }


def _horizon(params, jobs: int, arrival_gap: float, work: float) -> float:
    """The fault window: ``horizon`` if given, else twice the arrival
    window plus twenty job lengths."""
    return float(params.get("horizon", 2.0 * (jobs * arrival_gap + 20.0 * work)))


def _retry_policy(params):
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_retries=int(params.get("max_retries", 10)),
        base_delay=float(params.get("base_delay", 5.0)),
        jitter=0.0,
    )


# --- named sweeps -------------------------------------------------------------


def named_sweep(name: str, seed: Optional[int] = None):
    """A ready-made :class:`~repro.sweep.engine.SweepSpec` by name.

    ``"congestion"`` is the 64-point congestion study (4 topologies × 4
    congestion variants × 4 loads); ``"smoke"`` is its 8-point miniature
    for CI; ``"resilience"`` sweeps checkpoint interval × failure rate on
    the churn target; ``"reliability"`` sweeps ECC strength × patrol-scrub
    period on the memory-error target, trading goodput against gCO2e per
    completed job.  Unknown names raise ``KeyError``.
    """
    from repro.sweep.engine import SweepSpec

    if name == "congestion":
        return SweepSpec(
            name="congestion",
            target="fabric-congestion",
            grid={
                "topology": ["dragonfly", "hyperx", "fat-tree", "two-tier"],
                "congestion": list(FABRIC_CONGESTION_VARIANTS),
                "load": [0.25, 0.5, 0.75, 0.95],
                # Single-value rider: enough traffic per point that process
                # fan-out wins (point cost >> pool overhead) on multi-core.
                "flows": [256],
            },
            seed=seed if seed is not None else 424242,
        )
    if name == "smoke":
        return SweepSpec(
            name="smoke",
            target="fabric-congestion",
            grid={
                "topology": ["dragonfly", "two-tier"],
                "congestion": ["none", "flow"],
                "load": [0.5, 0.95],
                "flows": [24],
            },
            seed=seed if seed is not None else 7,
        )
    if name == "resilience":
        return SweepSpec(
            name="resilience",
            target="resilience-churn",
            grid={
                "checkpoint_interval": [0, 120, 360, 720],
                "mtbf": [500, 2_000],
                "jobs": [16],
                "work": [600.0],
            },
            seed=seed if seed is not None else 1031,
        )
    if name == "reliability":
        return SweepSpec(
            name="reliability",
            target="memory-reliability",
            grid={
                "ecc": ["none", "sec-ded", "chipkill"],
                "scrub_interval": [120.0, 900.0, 0.0],
                "fit_per_gib": [4e6],
                "jobs": [16],
                "work": [600.0],
            },
            seed=seed if seed is not None else 2063,
        )
    raise KeyError(
        "unknown named sweep "
        f"{name!r}; known: congestion, smoke, resilience, reliability"
    )


#: Named sweeps available to the CLI (``python -m repro sweep <name>``).
NAMED_SWEEPS = ("congestion", "smoke", "resilience", "reliability")
