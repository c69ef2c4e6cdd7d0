"""Run profiles: traceable, self-contained experiment scenarios.

A *run profile* is a small, deterministic rendition of one of the paper
experiments (see ``python -m repro experiments``) that runs with telemetry
attached, so ``python -m repro trace <id>`` and ``python -m repro metrics
<id>`` can show where simulated time, bytes and dollars go without the
pytest experiment harness. Profiles are sized to finish in seconds — the
full-size experiments stay in ``benchmarks/``.

Profiles are part of the public API: :func:`run` executes one by id with
optional keyword overrides (``run("C1", aggressors=12)``) and returns a
structured :class:`ProfileResult` that both the CLI and the
:mod:`repro.sweep` engine consume — a profile id is a valid sweep target
(``target="profile:C1"``).

This module sits above the subsystems (like :mod:`repro.cli`): it imports
scheduling, interconnect and federation freely, while the
:mod:`repro.observability` package itself depends only on core.  The
fabric-family profiles (C1, C2) import the flow fabric in their bodies, so
a process that runs only the cluster profiles never loads the rate solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.events import Simulation
from repro.core.rng import RandomSource
from repro.economics.energy import EnergyCarbonModel
from repro.federation import Dataset, Federation, Site, SiteKind, WanLink
from repro.federation.bursting import BurstingPolicy
from repro.hardware import Precision, default_catalog
from repro.hardware.power import (
    CoolingTechnology,
    DatacenterPowerModel,
    RackPowerModel,
)
from repro.interconnect.topology import build_topology
from repro.observability import Telemetry, attach_cluster_sampler
from repro.resilience import (
    NO_SCRUB,
    CheckpointPlan,
    FailureProcess,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    MemoryErrorCampaign,
    MemoryErrorSpec,
    MemoryErrorStats,
    NodeFaultSpec,
    ResilienceReport,
    RetryPolicy,
    ScrubPolicy,
    bind_cluster,
    bind_memory,
    cluster_report,
    ecc_policy,
    memory_failure_model,
)
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.scheduling.checkpointing import FailureModel, fabric_pm_target
from repro.scheduling.cluster import ClusterSimulator
from repro.scheduling.runtime import estimate_job
from repro.workloads import JobTraceGenerator, TraceConfig
from repro.workloads.base import Job, JobClass, make_single_kernel_job


@dataclass
class ProfileResult:
    """Outcome of one profiled run: telemetry plus headline numbers."""

    experiment_id: str
    title: str
    telemetry: Telemetry
    summary: List[Tuple[str, object]] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def metrics(self) -> Dict[str, float]:
        """The numeric summary entries, as a flat name -> value dict.

        Non-numeric summary rows (e.g. per-site placement dicts) are
        dropped; this is the record a sweep point stores per scenario.
        """
        numbers: Dict[str, float] = {}
        for name, value in self.summary:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            numbers[name] = float(value)
        return numbers


# --- scheduling-family profiles ------------------------------------------------


def _mixed_federation() -> Federation:
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    tpu = catalog.get("tpu-like")
    federation = Federation(name="profile")
    federation.add_site(
        Site(
            name="core", kind=SiteKind.SUPERCOMPUTER,
            devices={cpu: 48, gpu: 24, tpu: 24},
        )
    )
    return federation


def _profile_f1(
    telemetry: Telemetry,
    *,
    arrival_rate: float = 0.01,
    duration: float = 20_000.0,
    max_jobs: int = 100,
    seed: int = 101,
) -> ProfileResult:
    """F1: mixed simulation/analytics/ML trace on a heterogeneous site."""
    federation = _mixed_federation()
    trace = JobTraceGenerator(
        TraceConfig(arrival_rate=arrival_rate, duration=duration, max_jobs=max_jobs),
        rng=RandomSource(seed=seed),
    ).generate()
    scheduler = MetaScheduler(federation, telemetry=telemetry)
    for pool in scheduler.pools.values():
        attach_cluster_sampler(telemetry, pool, period=500.0)
    records = scheduler.run(trace)
    return ProfileResult(
        "F1", "mixed Big Data/HPC/AI trace on a heterogeneous site", telemetry,
        summary=[
            ("jobs finished", len(records)),
            ("makespan (s)", scheduler.makespan()),
            ("mean completion (s)", scheduler.mean_completion_time()),
            ("kernel events fired", scheduler.simulation.processed),
        ],
    )


def _profile_c8(
    telemetry: Telemetry,
    *,
    arrival_rate: float = 0.02,
    duration: float = 10_000.0,
    max_jobs: int = 120,
    seed: int = 55,
) -> ProfileResult:
    """C8: best-silicon meta-scheduling over a two-site federation."""
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    federation = Federation(name="c8")
    hub = Site(
        name="hub", kind=SiteKind.SUPERCOMPUTER, devices={cpu: 32, gpu: 32}
    )
    campus = Site(name="campus", kind=SiteKind.ON_PREMISE, devices={cpu: 32})
    federation.add_site(hub)
    federation.add_site(campus)
    federation.connect(hub, campus, WanLink(bandwidth=1.25e9, latency=0.01))
    trace = JobTraceGenerator(
        TraceConfig(arrival_rate=arrival_rate, duration=duration, max_jobs=max_jobs),
        rng=RandomSource(seed=seed),
    ).generate()
    scheduler = MetaScheduler(
        federation, policy=PlacementPolicy.BEST_SILICON, telemetry=telemetry
    )
    for pool in scheduler.pools.values():
        attach_cluster_sampler(telemetry, pool, period=250.0)
    records = scheduler.run(trace)
    return ProfileResult(
        "C8", "transparent best-silicon placement over two sites", telemetry,
        summary=[
            ("jobs finished", len(records)),
            ("makespan (s)", scheduler.makespan()),
            ("placements by site", scheduler.placements_by_site()),
            ("placements by kind", scheduler.placements_by_device_kind()),
        ],
    )


def _profile_c9(
    telemetry: Telemetry,
    *,
    datasets: int = 8,
    jobs: int = 16,
    dataset_bytes: float = 100e9,
    gravity_weight: float = 1.0,
) -> ProfileResult:
    """C9: data gravity — datasets pinned at archives, compute at a hub."""
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    federation = Federation(name="c9")
    archive = Site(name="archive", kind=SiteKind.ON_PREMISE, devices={cpu: 8})
    hub = Site(
        name="compute-hub", kind=SiteKind.SUPERCOMPUTER,
        devices={cpu: 64, gpu: 32},
        interconnect_bandwidth=25e9, interconnect_latency=1e-6,
    )
    federation.add_site(archive)
    federation.add_site(hub)
    federation.connect(
        archive, hub, WanLink(bandwidth=1.25e9, latency=0.01, cost_per_gb=0.02)
    )
    for index in range(datasets):
        federation.add_dataset(
            Dataset(
                name=f"ds-{index}", size_bytes=dataset_bytes,
                replicas={"archive"},
            )
        )
    trace = []
    for index in range(jobs):
        job = make_single_kernel_job(
            name=f"scan-{index}",
            job_class=JobClass.ANALYTICS,
            flops=2e13,
            bytes_moved=5e12,
            precision=Precision.FP32,
            ranks=4,
            input_dataset=f"ds-{index % datasets}",
            input_bytes=dataset_bytes,
        )
        job.arrival_time = index * 2.0
        trace.append(job)
    scheduler = MetaScheduler(
        federation, policy=PlacementPolicy.BEST_SILICON,
        gravity_weight=gravity_weight, telemetry=telemetry,
    )
    records = scheduler.run(trace)
    wan_bytes = telemetry.counter("wan.transfer_bytes").total()
    return ProfileResult(
        "C9", "data-gravity-aware placement with pinned datasets", telemetry,
        summary=[
            ("jobs finished", len(records)),
            ("WAN bytes actually staged", wan_bytes),
            ("WAN dollars", telemetry.counter("wan.transfer_dollars").total()),
            (
                "data-local placements",
                sum(1 for d in scheduler.decisions if d.staging_time == 0),
            ),
        ],
    )


def _profile_f3(
    telemetry: Telemetry,
    *,
    arrival_rate: float = 0.5,
    duration: float = 4_000.0,
    max_jobs: int = 120,
    queue_threshold: float = 120.0,
    seed: int = 33,
) -> ProfileResult:
    """F3: stage-1 bursting — overflow from a saturated campus to a cloud."""
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    campus = Site(name="campus", kind=SiteKind.ON_PREMISE, devices={cpu: 16})
    cloud = Site(name="cloud", kind=SiteKind.CLOUD, devices={cpu: 64})
    simulation = Simulation()
    telemetry.bind_simulation(simulation)
    local = ClusterSimulator(
        site=campus, device=cpu, simulation=simulation, telemetry=telemetry
    )
    remote = ClusterSimulator(
        site=cloud, device=cpu, simulation=simulation, telemetry=telemetry
    )
    attach_cluster_sampler(telemetry, local, period=250.0)
    policy = BurstingPolicy(queue_threshold=queue_threshold, telemetry=telemetry)
    trace = JobTraceGenerator(
        TraceConfig(arrival_rate=arrival_rate, duration=duration, max_jobs=max_jobs),
        rng=RandomSource(seed=seed),
    ).generate()
    bursted = [0]

    def placer(job):
        # Decide at arrival, when the campus backlog is actually visible.
        def place() -> None:
            if job.ranks > local.capacity or (
                job.ranks <= remote.capacity
                and policy.should_burst(job, local.estimated_queue_wait)
            ):
                remote.submit(job)
                bursted[0] += 1
            else:
                local.submit(job)

        return place

    simulation.schedule_many(
        (job.arrival_time, placer(job))
        for job in sorted(trace, key=lambda j: j.arrival_time)
    )
    simulation.run()
    records = local.records + remote.records
    return ProfileResult(
        "F3", "delivery models: campus queue bursting to a cloud partner",
        telemetry,
        summary=[
            ("jobs finished", len(records)),
            ("jobs bursted", bursted[0]),
            ("burst rate", policy.burst_rate),
            ("campus utilisation", local.utilization()),
        ],
    )


# --- the cluster-churn scenario ------------------------------------------------
#
# One single-site cluster under a fault campaign with checkpoint-restart,
# optionally memory errors and carbon scoring.  C16, C17 and the
# ``resilience-churn``/``memory-reliability`` sweep targets all build and
# run it through these functions and differ only in the values they pass.


def churn_site(name: str, kind: SiteKind, nodes: int) -> Site:
    """A site of ``nodes`` identical CPU nodes for the churn scenario."""
    if nodes < 1:
        raise ConfigurationError(f"nodes must be at least 1, got {nodes!r}")
    cpu = default_catalog().get("epyc-class-cpu")
    return Site(name=name, kind=kind, devices={cpu: nodes})


def _churn_device(site: Site):
    (device,) = site.devices
    return device


def calibrated_jobs(
    site: Site, prefix: str, count: int, *, work: float, arrival_gap: float,
    ranks: int = 1,
) -> List[Job]:
    """``count`` identical FP64 jobs, ``arrival_gap`` apart, each
    estimated to run ``work`` seconds on ``site``.

    Kernel flops are calibrated from one probe job — compute-bound
    kernels scale linearly, so the runtime estimate hits ``work``.
    """
    device = _churn_device(site)

    def make_job(index: int, flops: float) -> Job:
        job = make_single_kernel_job(
            name=f"{prefix}-{index}", job_class=JobClass.SIMULATION,
            flops=flops, bytes_moved=1e6, precision=Precision.FP64, ranks=ranks,
        )
        job.arrival_time = index * arrival_gap
        return job

    probe_time = estimate_job(make_job(0, 1e15), device, site).time
    flops = 1e15 * work / probe_time
    return [make_job(index, flops) for index in range(count)]


def node_fault_campaign(
    site: Site, *, mtbf: float, repair_time: float, horizon: float
) -> FaultCampaign:
    """Exponential node failures at ``site`` (aggregate ``mtbf``)."""
    faults = NodeFaultSpec(site.name, FailureProcess(mtbf), repair_time=repair_time)
    return FaultCampaign(horizon=horizon, node_faults=(faults,))


def memory_plan(
    site: Site, *, fit_per_gib: float, ecc: str, scrub_interval: float,
    node_mtbf: float, checkpoint_bytes: float,
) -> Tuple[MemoryErrorSpec, FailureModel, CheckpointPlan]:
    """The site's DRAM error process and the checkpoint plan it implies.

    FIT -> MTBF -> Young/Daly: the effective node MTBF folds the memory
    DUE hazard into ``node_mtbf``, and the fabric-PM checkpoint interval
    follows from it rather than from a hand-set MTBF.
    ``scrub_interval=0`` turns patrol scrubbing off (:data:`NO_SCRUB`) —
    a JSON request cannot say ``inf``.
    """
    device = _churn_device(site)
    nodes = site.count(device)
    footprint = device.spec.memory_capacity          # per-node DRAM
    spec = MemoryErrorSpec(
        device=device.name, region=site.name, capacity_bytes=footprint * nodes,
        fit_per_gib=fit_per_gib, ecc=ecc_policy(ecc),
        scrub=NO_SCRUB if scrub_interval == 0 else ScrubPolicy(scrub_interval),
    )
    failures = memory_failure_model(
        footprint, spec, nodes=nodes, node_mtbf=node_mtbf
    )
    plan = CheckpointPlan.from_target(fabric_pm_target(), checkpoint_bytes, failures)
    return spec, failures, plan


@dataclass
class ChurnRun:
    """What one churn run leaves for its caller to report."""

    report: ResilienceReport
    injected: int
    timeline: List[FaultEvent]
    memory: MemoryErrorStats


def run_churn(
    telemetry: Telemetry, rng: RandomSource, site: Site, jobs: Sequence[Job],
    campaign, *, retry_policy: RetryPolicy,
    checkpoint: Optional[CheckpointPlan] = None,
    sampler_period: Optional[float] = None,
) -> ChurnRun:
    """Run ``jobs`` on ``site`` under ``campaign`` and report the outcome.

    ``campaign`` is a :class:`FaultCampaign` or a
    :class:`MemoryErrorCampaign`; node faults kill devices and memory
    DUEs kill jobs, both through the checkpoint-restart and retry path.
    Every draw forks from ``rng`` by name (``cluster``, ``faults``,
    ``memvictim``), so the run is a function of the seed alone.  With a
    ``sampler_period`` the cluster's queue and occupancy are sampled.
    """
    cluster = ClusterSimulator(
        site=site, device=_churn_device(site), telemetry=telemetry,
        retry_policy=retry_policy, checkpoint=checkpoint,
        rng=rng.fork("cluster"),
    )
    telemetry.bind_simulation(cluster.simulation)
    if sampler_period is not None:
        attach_cluster_sampler(telemetry, cluster, period=sampler_period)
    for job in jobs:
        cluster.submit(job)
    faults = rng.fork("faults")
    timeline = campaign.timeline(faults)
    injector = FaultInjector(
        cluster.simulation, campaign, faults,
        telemetry=telemetry, timeline=timeline,
    )
    bind_cluster(injector, cluster)
    memory = bind_memory(
        injector, cluster, rng=rng.fork("memvictim"), region=site.name
    )
    injector.install()
    cluster.run()
    return ChurnRun(cluster_report(cluster), injector.injected, timeline, memory)


def carbon_report(
    site: Site, report: ResilienceReport, memory: MemoryErrorSpec
) -> Dict[str, float]:
    """Energy, dollars and carbon of a finished churn run.

    The site's nodes sit in one direct-liquid-cooled rack; patrol
    scrubbing of ``memory`` adds its standing power.  Adds
    ``energy_cost`` (dollars) to
    :meth:`~repro.economics.energy.EnergyCarbonModel.run_report`'s keys.
    """
    device = _churn_device(site)
    rack = RackPowerModel(
        cooling=CoolingTechnology.DIRECT_LIQUID,
        devices=[device.spec] * site.count(device),
    )
    datacenter = DatacenterPowerModel(racks=[rack])
    carbon = EnergyCarbonModel().run_report(
        it_power=datacenter.it_power(), pue=datacenter.pue(),
        dwell_seconds=report.makespan, completed_jobs=report.completed,
        memory_bytes=memory.capacity_bytes,
        extra_it_power=memory.scrub.scrub_power(memory.capacity_bytes),
    )
    carbon["energy_cost"] = datacenter.energy_cost(carbon["facility_joules"])
    return carbon


# --- resilience-family profiles -------------------------------------------------


#: Both churn profiles requeue killed jobs with the same bounded backoff.
_PROFILE_RETRY = RetryPolicy(max_retries=8, base_delay=5.0)


def _trace_jobs(
    rng: RandomSource, nodes: int, arrival_rate: float, duration: float, max_jobs: int
) -> List[Job]:
    """The mixed trace, less the jobs wider than the cluster."""
    trace = JobTraceGenerator(
        TraceConfig(arrival_rate=arrival_rate, duration=duration, max_jobs=max_jobs),
        rng=rng.fork("trace"),
    ).generate()
    return [job for job in trace if job.ranks <= nodes]


def _churn_summary(
    run: ChurnRun, memory_rows: Sequence[Tuple[str, object]] = ()
) -> List[Tuple[str, object]]:
    report = run.report
    return [
        ("jobs submitted", report.submitted),
        ("jobs finished", report.completed),
        ("jobs dead", report.dead),
        ("job kills", report.kills),
        ("retries", report.retries),
        ("faults injected", run.injected),
        *memory_rows,
        ("goodput", report.goodput),
        ("utilization", report.utilization),
        ("wasted device-seconds", report.wasted_device_seconds),
        # Fault-free runs have infinite MTTI; keep the row readable and
        # out of the numeric metrics dict (JSON cannot carry inf).
        ("MTTI (s)", report.mtti if report.kills else "inf"),
        ("makespan (s)", report.makespan),
    ]


def _profile_c16(
    telemetry: Telemetry,
    *,
    nodes: int = 8,
    node_mtbf: float = 8_000.0,
    repair_time: float = 600.0,
    checkpoint_bytes: float = 2e11,
    arrival_rate: float = 0.2,
    duration: float = 20_000.0,
    horizon: float = 60_000.0,
    max_jobs: int = 120,
    seed: int = 97,
) -> ProfileResult:
    """C16: cluster churn under node faults with fabric-PM checkpoint-restart.

    A single site runs a mixed trace while an exponential node-failure
    process (aggregate MTBF ``node_mtbf / nodes``) kills devices; jobs
    checkpoint to fabric-attached persistent memory at the Young/Daly
    interval and requeue under a bounded-backoff retry policy. The summary
    separates goodput from raw utilisation — the gap is the fault tax.
    """
    site = churn_site("churn", SiteKind.SUPERCOMPUTER, nodes)
    rng = RandomSource(seed=seed, name="c16-profile")
    failures = FailureModel(node_mtbf=node_mtbf, nodes=nodes)
    # The fault window outlives the arrival window: the drain phase is
    # where a busy cluster takes most of its kills.
    run = run_churn(
        telemetry, rng, site,
        _trace_jobs(rng, nodes, arrival_rate, duration, max_jobs),
        node_fault_campaign(
            site, mtbf=failures.system_mtbf, repair_time=repair_time, horizon=horizon
        ),
        retry_policy=_PROFILE_RETRY,
        checkpoint=CheckpointPlan.from_target(
            fabric_pm_target(), checkpoint_bytes, failures
        ),
        sampler_period=500.0,
    )
    return ProfileResult(
        "C16", "fabric-PM checkpoint-restart under node churn", telemetry,
        summary=_churn_summary(run),
    )


def _profile_c17(
    telemetry: Telemetry,
    *,
    nodes: int = 8,
    node_mtbf: float = 30_000.0,
    repair_time: float = 600.0,
    checkpoint_bytes: float = 2e11,
    fit_per_gib: float = 4e6,
    scrub_interval: float = 900.0,
    ecc: str = "sec-ded",
    arrival_rate: float = 0.2,
    duration: float = 20_000.0,
    horizon: float = 60_000.0,
    max_jobs: int = 120,
    seed: int = 131,
) -> ProfileResult:
    """C17: memory-error reliability under ECC/scrub with carbon accounting.

    The C16 churn scenario with memory as a failure domain: a FIT-rate
    upset process over the site's DRAM (``fit_per_gib`` is accelerated
    well above field rates so a 60 ks window shows the statistics) is
    classified by the node ECC and patrol-scrub policy
    (``scrub_interval=0`` turns scrubbing off); DUEs kill the owning job
    through the same checkpoint-restart path node faults use.  The
    checkpoint interval is *derived* from the FIT rate (see
    :func:`memory_plan`) and the run is scored in energy and carbon so
    scrub aggressiveness shows up on both sides of the ledger.
    """
    site = churn_site("memrel", SiteKind.SUPERCOMPUTER, nodes)
    rng = RandomSource(seed=seed, name="c17-profile")
    spec, failures, plan = memory_plan(
        site, fit_per_gib=fit_per_gib, ecc=ecc,
        scrub_interval=scrub_interval, node_mtbf=node_mtbf,
        checkpoint_bytes=checkpoint_bytes,
    )
    campaign = MemoryErrorCampaign(
        horizon=horizon, memory=(spec,),
        base=node_fault_campaign(
            site,
            mtbf=FailureModel(node_mtbf=node_mtbf, nodes=nodes).system_mtbf,
            repair_time=repair_time, horizon=horizon,
        ),
    )
    run = run_churn(
        telemetry, rng, site,
        _trace_jobs(rng, nodes, arrival_rate, duration, max_jobs),
        campaign,
        retry_policy=_PROFILE_RETRY, checkpoint=plan, sampler_period=500.0,
    )
    memory = run.memory
    carbon = carbon_report(site, run.report, spec)
    summary = _churn_summary(run, memory_rows=[
        ("mem upsets", memory.total),
        ("mem corrected", memory.corrected),
        ("mem DUE", memory.due),
        ("mem silent", memory.silent),
        ("mem kills", memory.kills),
        ("effective node MTBF (s)", failures.node_mtbf),
        ("checkpoint interval (s)", plan.interval),
    ])
    summary += [
        ("energy (kWh)", carbon["energy_kwh"]),
        ("energy cost ($)", carbon["energy_cost"]),
        ("carbon total (kg)", carbon["total_kg"]),
        # Idle runs complete nothing; keep inf out of numeric metrics.
        ("gCO2e per job", carbon["gco2e_per_job"] if run.report.completed else "inf"),
        ("carbon per GiB (kg)", carbon["carbon_per_gib"]),
    ]
    return ProfileResult(
        "C17", "memory-error reliability with ECC/scrub and carbon accounting",
        telemetry, summary=summary,
    )


# --- fabric-family profiles ----------------------------------------------------


def incast_flows(topology, aggressors: int) -> list:
    """C1's workload: ``aggressors`` 100 MB elephants from far terminals
    into the first terminal, and one 64 KB victim at 1 ms from each of
    its router neighbours to a far terminal."""
    from repro.interconnect.fabric import Flow

    graph = topology.graph
    hot = topology.terminals[0]
    hot_router = graph.nodes[hot]["attached_to"]
    same_router = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] == hot_router and t != hot
    ]
    far = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] != hot_router
    ]
    flows = [
        Flow(source=far[i], destination=hot, size=100e6, tag="aggressor")
        for i in range(aggressors)
    ]
    for index, source in enumerate(same_router):
        flows.append(
            Flow(
                source=source, destination=far[-(index + 1)],
                size=64e3, start_time=1e-3, tag="victim",
            )
        )
    return flows


def _profile_c1(
    telemetry: Telemetry,
    *,
    aggressors: int = 8,
    groups: int = 6,
    routers_per_group: int = 4,
    terminals: int = 4,
    congestion: str = "flow",
) -> ProfileResult:
    """C1: elephant incast vs latency-sensitive mice under flow-based CM."""
    from repro.interconnect.congestion import congestion_policy
    from repro.interconnect.fabric import FabricSimulator

    topology = build_topology(
        "dragonfly", groups=groups, routers_per_group=routers_per_group,
        terminals=terminals,
    )
    fabric = FabricSimulator(
        topology, congestion=congestion_policy(congestion),
        telemetry=telemetry,
    )
    stats = fabric.run(incast_flows(topology, aggressors=aggressors))
    victims = sorted(
        s.completion_time for s in stats if s.tag == "victim"
    )
    return ProfileResult(
        "C1", "incast congestion with flow-based selective backpressure",
        telemetry,
        summary=[
            ("flows finished", len(stats)),
            ("victim max FCT (s)", victims[-1] if victims else 0.0),
            (
                "congestion onsets",
                telemetry.counter("fabric.congestion_events").total(),
            ),
            ("bytes delivered", telemetry.counter("fabric.flow_bytes").total()),
        ],
    )


def _profile_c2(
    telemetry: Telemetry,
    *,
    flows: int = 120,
    flow_size: float = 4e6,
    seed: int = 17,
) -> ProfileResult:
    """C2: uniform random traffic over a low-diameter dragonfly."""
    from repro.interconnect.fabric import FabricSimulator, Flow

    topology = build_topology(
        "dragonfly", groups=6, routers_per_group=4, terminals=4
    )
    rng = RandomSource(seed=seed, name="c2-profile")
    endpoints = list(topology.terminals)
    trace = []
    for index in range(flows):
        source, destination = rng.sample(endpoints, 2)
        trace.append(
            Flow(
                source=source, destination=destination, size=flow_size,
                start_time=index * 2e-4,
            )
        )
    fabric = FabricSimulator(topology, telemetry=telemetry)
    stats = fabric.run(trace)
    fct = telemetry.metrics.get("fabric.fct_seconds")
    return ProfileResult(
        "C2", "uniform random traffic on a dragonfly", telemetry,
        summary=[
            ("flows finished", len(stats)),
            ("mean FCT (s)", fct.mean(tag="flow")),
            ("bytes delivered", telemetry.counter("fabric.flow_bytes").total()),
        ],
    )


#: Experiment ids that can be run with telemetry attached.
PROFILES: Dict[str, Callable[..., ProfileResult]] = {
    "F1": _profile_f1,
    "F3": _profile_f3,
    "C1": _profile_c1,
    "C2": _profile_c2,
    "C8": _profile_c8,
    "C9": _profile_c9,
    "C16": _profile_c16,
    "C17": _profile_c17,
}


def run(
    name: str, telemetry: Telemetry = None, **overrides: object
) -> ProfileResult:
    """Run one profile and return its structured :class:`ProfileResult`.

    ``name`` must be one of :data:`PROFILES` (case-insensitive); unknown
    names raise ``KeyError`` listing what is runnable.  Keyword
    ``overrides`` are forwarded to the profile function — each profile
    documents its accepted knobs (e.g. ``run("C1", congestion="ecn")``) and
    rejects unknown ones with ``TypeError``.  The overrides used are
    recorded on ``result.params`` so downstream sweeps can tabulate them.
    """
    key = name.upper()
    try:
        profile = PROFILES[key]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(
            f"no run profile for {name!r}; traceable ids: {known}"
        ) from None
    result = profile(
        telemetry if telemetry is not None else Telemetry(), **overrides
    )
    result.params = dict(overrides)
    return result
