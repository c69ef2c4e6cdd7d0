"""Quiet injectors are free: the under-5% gate, proved structurally.

An injector whose campaign draws nothing inside the workload's lifetime
must not slow the cluster down.  A wall-clock A/B cannot resolve a 5%
bound here: on a shared host, back-to-back identical runs spread by up
to 25%.  The cost is therefore pinned exactly.  The timeline is drawn
when the injector is built, before any job is submitted.  If
``install()`` schedules nothing and no handler ever runs, no injector
code executes while the cluster simulates.  The armed run must then fire
exactly the bare run's events and end with the bare run's report.
"""

import pytest

from repro.core.rng import RandomSource
from repro.federation import Site, SiteKind
from repro.hardware import Precision, default_catalog
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultInjector,
    MemoryErrorCampaign,
    MemoryErrorSpec,
    NodeFaultSpec,
    RetryPolicy,
    bind_cluster,
    bind_memory,
    cluster_report,
)
from repro.scheduling.cluster import ClusterSimulator
from repro.scheduling.runtime import estimate_job
from repro.workloads.base import JobClass, make_single_kernel_job

SITE_NAME = "bench"
NODES = 16
JOBS = 3_000
HORIZON = 1e6

DEVICE = default_catalog().get("epyc-class-cpu")
SITE = Site(name=SITE_NAME, kind=SiteKind.ON_PREMISE, devices={DEVICE: NODES})


def _jobs():
    """A seeded trace of single-rank compute-bound jobs, ~100 s each."""
    # Each job's work is drawn at random, which calibrated_jobs cannot do.
    probe = make_single_kernel_job(
        name="probe", job_class=JobClass.SIMULATION, flops=1e15,
        bytes_moved=1e6, precision=Precision.FP64,
    )
    scale = 1e15 / estimate_job(probe, DEVICE, SITE).time
    rng = RandomSource(seed=23, name="bench/resilience")
    jobs = []
    for index in range(JOBS):
        job = make_single_kernel_job(
            name=f"job{index}", job_class=JobClass.SIMULATION,
            flops=scale * rng.uniform(60.0, 140.0),
            bytes_moved=1e6, precision=Precision.FP64,
        )
        job.arrival_time = index * 5.0
        jobs.append(job)
    return jobs


def _run(cluster):
    for job in _jobs():
        cluster.submit(job)
    cluster.run()
    return cluster.simulation.processed, cluster_report(cluster)


def _node_faults(injector, cluster):
    """~30,000 years between node faults: none lands in the horizon."""
    bind_cluster(injector, cluster)
    return lambda: injector.injected


def _memory_errors(injector, cluster):
    """~One upset per 10^9 years over the pool: none lands in the horizon."""
    stats = bind_memory(
        injector, cluster,
        rng=RandomSource(seed=7, name="mem").fork("memvictim"),
        region=SITE_NAME,
    )
    return lambda: injector.injected + stats.total


QUIET = {
    "faults": (
        FaultCampaign(
            horizon=HORIZON,
            node_faults=(
                NodeFaultSpec(SITE_NAME, FailureProcess(mtbf=1e12)),
            ),
        ),
        _node_faults,
    ),
    "memerrors": (
        MemoryErrorCampaign(
            horizon=HORIZON,
            memory=(
                MemoryErrorSpec(
                    region=SITE_NAME,
                    capacity_bytes=NODES * 512e9,
                    fit_per_gib=1e-9,
                ),
            ),
        ),
        _memory_errors,
    ),
}


@pytest.fixture(scope="module")
def bare_run():
    return _run(ClusterSimulator(site=SITE, device=DEVICE))


@pytest.mark.parametrize("name", sorted(QUIET))
def test_quiet_injector_runs_no_code_inside_the_workload(name, bare_run):
    campaign, bind = QUIET[name]
    cluster = ClusterSimulator(
        site=SITE, device=DEVICE, retry_policy=RetryPolicy()
    )
    injector = FaultInjector(
        cluster.simulation, campaign, RandomSource(seed=5, name=name)
    )
    handled = bind(injector, cluster)
    assert injector.timeline == []
    assert injector.install() == 0

    assert _run(cluster) == bare_run
    assert handled() == 0
