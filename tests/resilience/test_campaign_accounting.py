"""A small fault campaign on one cluster keeps its job accounting whole."""

from repro.core.rng import RandomSource
from repro.federation import Site, SiteKind
from repro.hardware import default_catalog
from repro.profiles import calibrated_jobs
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultInjector,
    NodeFaultSpec,
    RetryPolicy,
    check_conservation,
    cluster_report,
)
from repro.resilience.recovery import bind_cluster
from repro.scheduling.cluster import ClusterSimulator


def test_twelve_jobs_under_node_churn_are_all_accounted_for():
    device = default_catalog().get("epyc-class-cpu")
    site = Site(name="smoke", kind=SiteKind.ON_PREMISE, devices={device: 4})
    cluster = ClusterSimulator(
        site=site, device=device,
        retry_policy=RetryPolicy(max_retries=50, base_delay=5.0),
    )
    campaign = FaultCampaign(
        horizon=20_000.0,
        node_faults=(
            NodeFaultSpec("smoke", FailureProcess(mtbf=600.0), repair_time=30.0),
        ),
    )
    injector = FaultInjector(
        cluster.simulation, campaign, RandomSource(seed=3, name="faults")
    )
    bind_cluster(injector, cluster)
    injector.install()
    for job in calibrated_jobs(site, "job", 12, work=400.0, arrival_gap=100.0):
        cluster.submit(job)
    cluster.run()

    report = cluster_report(cluster)
    check_conservation(cluster)  # raises if a job is lost
    assert report.submitted == 12
    assert report.completed + report.dead == 12
    assert report.goodput <= report.utilization + 1e-12
    assert injector.injected > 0, "campaign fired no faults"
