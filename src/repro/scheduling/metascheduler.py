"""The federation-wide meta-scheduler.

The paper (§III.F): "Users will have their workloads run across a breadth
of silicon options, ideally with a meta-scheduler that selects the best
available for the job, but in a completely transparent manner to the
applications."

:class:`MetaScheduler` owns one queue (a :class:`ClusterSimulator`) per
(site, device-model) pool, all sharing one simulation clock. At each job's
arrival it scores every feasible pool:

    ``score = staging_time * gravity_weight + queue_wait + runtime``

and submits to the argmin. :class:`PlacementPolicy` provides the baselines
the experiment compares against: static affinity (the "GPU jobs go to the
GPU cluster" convention), random, home-site-only, and compute-only (data
gravity ignored).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SchedulingError
from repro.core.events import Simulation
from repro.core.rng import RandomSource
from repro.federation.federation import Federation
from repro.federation.gravity import transfer_cost
from repro.federation.site import Site
from repro.hardware.device import Device, DeviceKind
from repro.observability.probes import CATEGORY_WAN, Telemetry
from repro.scheduling.cluster import ClusterSimulator, JobRecord
from repro.scheduling.runtime import estimate_job
from repro.workloads.base import Job, JobClass


class PlacementPolicy(Enum):
    """Placement strategies for the C8/C9 experiments."""

    BEST_SILICON = "best_silicon"       # full model: silicon + queue + gravity
    COMPUTE_ONLY = "compute_only"       # ignores data transfer (C9 baseline)
    STATIC_AFFINITY = "static_affinity" # job class -> fixed device kind
    RANDOM = "random"                   # uniform over feasible pools
    HOME_ONLY = "home_only"             # first site only (no federation)
    COST_OPTIMIZED = "cost_optimized"   # cheapest $ placement (deadline aware)
    ENERGY_OPTIMIZED = "energy_optimized"  # fewest joules (deadline aware)


#: Static-affinity convention: which device kind each class "should" use.
_AFFINITY = {
    JobClass.SIMULATION: DeviceKind.CPU,
    JobClass.ANALYTICS: DeviceKind.CPU,
    JobClass.ML_TRAINING: DeviceKind.GPU,
    JobClass.ML_INFERENCE: DeviceKind.GPU,
    JobClass.HYBRID: DeviceKind.GPU,
}


@dataclass(frozen=True)
class PlacementDecision:
    """Where a job was placed and the predicted cost components."""

    job: Job
    site: Site
    device: Device
    runtime: float
    queue_wait_estimate: float
    staging_time: float
    energy: float
    dollar_cost: float = 0.0

    @property
    def predicted_completion(self) -> float:
        return self.staging_time + self.queue_wait_estimate + self.runtime


class MetaScheduler:
    """Places a job trace over a federation and simulates execution."""

    def __init__(
        self,
        federation: Federation,
        policy: PlacementPolicy = PlacementPolicy.BEST_SILICON,
        gravity_weight: float = 1.0,
        rng: Optional[RandomSource] = None,
        home_site: Optional[Site] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if gravity_weight < 0:
            raise ValueError("gravity_weight must be non-negative")
        self.federation = federation
        self.policy = policy
        self.gravity_weight = gravity_weight
        self.rng = rng or RandomSource(seed=5, name="metascheduler")
        self.simulation = Simulation()
        self.telemetry = telemetry
        if telemetry is not None:
            # One telemetry object covers the kernel, the scheduler, every
            # pool and the federation's WAN.
            telemetry.bind_simulation(self.simulation)
            federation.attach_telemetry(telemetry)
        self.home_site = home_site or federation.sites[0]
        self.pools: Dict[Tuple[str, str], ClusterSimulator] = {}
        for site in federation.sites:
            for device in site.devices:
                self.pools[(site.name, device.name)] = ClusterSimulator(
                    site=site,
                    device=device,
                    simulation=self.simulation,
                    telemetry=telemetry,
                )
        self.decisions: List[PlacementDecision] = []
        self.rejected: List[Job] = []

    # --- candidate scoring ------------------------------------------------------

    def _candidates(self, job: Job) -> List[PlacementDecision]:
        """All feasible placements with their predicted cost components."""
        candidates: List[PlacementDecision] = []
        for (site_name, device_name), pool in self.pools.items():
            site = self.federation.site(site_name)
            device = pool.device
            if job.ranks > pool.capacity:
                continue
            estimate = estimate_job(job, device, site)
            if not estimate.feasible:
                continue
            staging = transfer_cost(job, site, self.federation.catalog)
            rental = (estimate.time / 3600.0) * job.ranks * site.hourly_price(device)
            candidates.append(
                PlacementDecision(
                    job=job,
                    site=site,
                    device=device,
                    runtime=estimate.time,
                    queue_wait_estimate=pool.estimated_queue_wait,
                    staging_time=staging,
                    energy=estimate.energy,
                    dollar_cost=rental,
                )
            )
        return candidates

    def _choose(self, job: Job) -> Optional[PlacementDecision]:
        candidates = self._candidates(job)
        if not candidates:
            return None

        if self.policy is PlacementPolicy.HOME_ONLY:
            candidates = [c for c in candidates if c.site is self.home_site]
            if not candidates:
                return None

        if self.policy is PlacementPolicy.RANDOM:
            return self.rng.choice(candidates)

        if self.policy is PlacementPolicy.STATIC_AFFINITY:
            wanted = _AFFINITY.get(job.job_class, DeviceKind.CPU)
            matching = [c for c in candidates if c.device.kind is wanted]
            pool = matching or candidates
            return min(pool, key=lambda c: c.queue_wait_estimate)

        if self.policy is PlacementPolicy.COMPUTE_ONLY:
            return min(candidates, key=lambda c: c.queue_wait_estimate + c.runtime)

        if self.policy in (
            PlacementPolicy.COST_OPTIMIZED,
            PlacementPolicy.ENERGY_OPTIMIZED,
        ):
            # Cheapest (in dollars or joules) placement that still meets
            # the job's deadline, if any; falls back to cheapest overall.
            deadline = job.deadline
            if deadline is not None:
                timely = [c for c in candidates if c.predicted_completion <= deadline]
                if timely:
                    candidates = timely
            if self.policy is PlacementPolicy.COST_OPTIMIZED:
                return min(candidates, key=lambda c: c.dollar_cost)
            return min(candidates, key=lambda c: c.energy)

        # BEST_SILICON: end-to-end completion including weighted staging.
        return min(
            candidates,
            key=lambda c: (
                c.staging_time * self.gravity_weight
                + c.queue_wait_estimate
                + c.runtime
            ),
        )

    # --- execution ---------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobRecord]:
        """Place and simulate a whole trace; returns finished job records."""
        for job in sorted(jobs, key=lambda j: j.arrival_time):
            self.simulation.schedule_at(job.arrival_time, self._make_placer(job))
        self.simulation.run()
        records: List[JobRecord] = []
        for pool in self.pools.values():
            for record in pool.records:
                if record.finish_time is None:
                    if record.dead:
                        continue  # accounted on the pool's dead-job ledger
                    raise SchedulingError(f"{record.job.name} never finished")
                records.append(record)
        return records

    def _make_placer(self, job: Job):
        def place() -> None:
            decision = self._choose(job)
            if decision is None:
                self.rejected.append(job)
                if self.telemetry is not None:
                    self.telemetry.counter("scheduler.rejected").inc()
                return
            self.decisions.append(decision)
            if self.telemetry is not None:
                self._record_placement(decision)
            pool = self.pools[(decision.site.name, decision.device.name)]
            pool.submit(job, transfer_time=decision.staging_time)

        return place

    def _record_placement(self, decision: PlacementDecision) -> None:
        """Account a committed placement: counters plus actual staging."""
        telemetry = self.telemetry
        job = decision.job
        telemetry.counter("scheduler.placements").inc(
            site=decision.site.name, device=decision.device.name
        )
        if decision.site is not self.home_site:
            telemetry.counter("federation.cross_site_placements").inc()
        if decision.staging_time <= 0:
            return
        catalog = self.federation.catalog
        now = self.simulation.now
        if job.input_dataset is not None and job.input_dataset in catalog:
            dataset = catalog.get(job.input_dataset)
            source = catalog.closest_replica(job.input_dataset, decision.site)
            self.federation.wan.record_transfer(
                source, decision.site, dataset.size_bytes, at_time=now
            )
        else:
            # No catalogued dataset: account the fallback staging estimate.
            telemetry.counter("federation.staging_bytes").inc(
                job.input_bytes, site=decision.site.name
            )
            telemetry.tracer.complete(
                f"stage:{job.job_class.value}", CATEGORY_WAN,
                now, now + decision.staging_time,
                job=job.name, site=decision.site.name,
            )

    # --- metrics -------------------------------------------------------------------

    def mean_completion_time(self) -> float:
        records = [
            r for p in self.pools.values() for r in p.records
            if r.finish_time is not None
        ]
        if not records:
            return 0.0
        return sum(r.completion_time for r in records) / len(records)

    def makespan(self) -> float:
        return max((p.makespan() for p in self.pools.values()), default=0.0)

    def total_energy(self) -> float:
        """Total predicted energy over all placements, joules."""
        return sum(d.energy for d in self.decisions)

    def total_dollar_cost(self) -> float:
        """Total predicted rental cost over all placements, dollars."""
        return sum(d.dollar_cost for d in self.decisions)

    def placements_by_site(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for decision in self.decisions:
            counts[decision.site.name] = counts.get(decision.site.name, 0) + 1
        return counts

    def placements_by_device_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for decision in self.decisions:
            kind = decision.device.kind.value
            counts[kind] = counts.get(kind, 0) + 1
        return counts
