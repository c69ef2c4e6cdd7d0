"""Tests that the instrumented subsystems emit the expected telemetry."""

import pytest

from repro.federation.bursting import BurstingPolicy
from repro.federation.site import Site, SiteKind
from repro.federation.wan import WanLink, WanNetwork
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology
from repro.observability.probes import (
    CATEGORY_JOB,
    CATEGORY_QUEUE,
    CATEGORY_WAN,
    Telemetry,
    attach_cluster_sampler,
)
from repro.scheduling.cluster import ClusterSimulator
from repro.workloads.base import JobClass, make_single_kernel_job


def make_job(name, flops=1e13, ranks=1, arrival=0.0):
    job = make_single_kernel_job(
        name=name, job_class=JobClass.ANALYTICS,
        flops=flops, bytes_moved=flops / 10, ranks=ranks,
    )
    job.arrival_time = arrival
    return job


@pytest.fixture
def cluster(catalog):
    cpu = catalog.get("epyc-class-cpu")
    site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 4})
    telemetry = Telemetry()
    sim_cluster = ClusterSimulator(site=site, device=cpu, telemetry=telemetry)
    telemetry.bind_simulation(sim_cluster.simulation)
    return sim_cluster


class TestClusterTelemetry:
    def test_lifecycle_counters(self, cluster):
        cluster.submit(make_job("a"))
        cluster.submit(make_job("b"))
        cluster.run()
        metrics = cluster.telemetry.metrics
        assert metrics.get("cluster.jobs.submitted").total() == 2
        assert metrics.get("cluster.jobs.started").total() == 2
        assert metrics.get("cluster.jobs.finished").total() == 2

    def test_run_span_per_job_with_args(self, cluster):
        record = cluster.submit(make_job("solo"))
        cluster.run()
        (span,) = list(cluster.telemetry.tracer.spans_in(CATEGORY_JOB))
        assert span.name == "run:analytics"
        assert span.args["job"] == "solo"
        assert span.start == record.start_time
        assert span.end == record.finish_time

    def test_wait_span_only_when_job_queued(self, cluster):
        # Two 4-wide jobs serialise: the second waits, the first does not.
        cluster.submit(make_job("first", ranks=4))
        second = cluster.submit(make_job("second", ranks=4))
        cluster.run()
        waits = list(cluster.telemetry.tracer.spans_in(CATEGORY_QUEUE))
        assert [w.args["job"] for w in waits] == ["second"]
        assert waits[0].duration == pytest.approx(second.queue_wait)

    def test_queue_depth_sampler(self, cluster):
        attach_cluster_sampler(cluster.telemetry, cluster, period=1.0)
        cluster.submit(make_job("first", ranks=4))
        cluster.submit(make_job("second", ranks=4))
        cluster.run()
        depth = cluster.telemetry.metrics.get("cluster.queue_depth")
        assert depth.value(site="s", device=cluster.device.name) == 0.0
        sampled = [
            c.values["depth"]
            for c in cluster.telemetry.tracer.counters
            if c.name.startswith("queue_depth:")
        ]
        assert 1 in sampled  # the backlog was visible while "second" waited


class TestWanTelemetry:
    def test_record_transfer_accounts_bytes_and_dollars(self):
        telemetry = Telemetry()
        wan = WanNetwork(telemetry=telemetry)
        a = Site(name="a", kind=SiteKind.ON_PREMISE)
        b = Site(name="b", kind=SiteKind.ON_PREMISE)
        wan.connect(a, b, WanLink(bandwidth=1e9, latency=0.02, cost_per_gb=0.1))
        elapsed = wan.record_transfer(a, b, 2e9, at_time=5.0)
        assert elapsed == pytest.approx(2.02)
        assert telemetry.metrics.get("wan.transfer_bytes").value(
            src="a", dst="b"
        ) == 2e9
        assert telemetry.metrics.get("wan.transfer_dollars").total() == (
            pytest.approx(0.2)
        )
        (span,) = list(telemetry.tracer.spans_in(CATEGORY_WAN))
        assert span.start == 5.0
        assert span.end == pytest.approx(7.02)

    def test_same_site_transfer_records_nothing(self):
        telemetry = Telemetry()
        wan = WanNetwork(telemetry=telemetry)
        a = Site(name="a", kind=SiteKind.ON_PREMISE)
        wan.add_site(a)
        assert wan.record_transfer(a, a, 1e12) == 0.0
        assert len(telemetry.tracer) == 0

    def test_query_methods_stay_pure(self):
        telemetry = Telemetry()
        wan = WanNetwork(telemetry=telemetry)
        a = Site(name="a", kind=SiteKind.ON_PREMISE)
        b = Site(name="b", kind=SiteKind.ON_PREMISE)
        wan.connect(a, b, WanLink(bandwidth=1e9, latency=0.02))
        wan.transfer_time(a, b, 1e9)  # placement scoring: no accounting
        assert len(telemetry.tracer) == 0
        assert "wan.transfer_bytes" not in telemetry.metrics


class TestBurstingTelemetry:
    def test_decisions_are_counted_with_reasons(self):
        telemetry = Telemetry()
        policy = BurstingPolicy(
            queue_threshold=100.0, max_burst_fraction=1.0, telemetry=telemetry
        )
        job = make_job("j")
        assert not policy.should_burst(job, estimated_local_wait=10.0)
        assert policy.should_burst(job, estimated_local_wait=500.0)
        metrics = telemetry.metrics
        assert metrics.get("federation.burst.considered").total() == 2
        assert metrics.get("federation.burst.refused").value(
            reason="below_threshold"
        ) == 1
        assert metrics.get("federation.burst.bursted").total() == 1


class TestFabricTelemetry:
    def test_flow_spans_fct_histogram_and_link_bytes(self):
        topology = build_topology("fat-tree", k=4)
        telemetry = Telemetry()
        fabric = FabricSimulator(topology, telemetry=telemetry)
        terminals = topology.terminals
        stats = fabric.run(
            [
                Flow(source=terminals[0], destination=terminals[-1], size=1e6),
                Flow(source=terminals[1], destination=terminals[-2], size=2e6),
            ]
        )
        assert len(stats) == 2
        spans = list(telemetry.tracer.spans_in("flow"))
        assert len(spans) == 2
        fct = telemetry.metrics.get("fabric.fct_seconds")
        assert fct.count(tag="flow") == 2
        assert telemetry.metrics.get("fabric.flow_bytes").total() == 3e6
        # Interval accounting conserves bytes: each flow's size appears on
        # every link of its path, so the total is at least the flow bytes.
        assert telemetry.metrics.get("fabric.link_bytes").total() >= 3e6

    def test_untelemetered_fabric_matches_telemetered_results(self):
        topology = build_topology("fat-tree", k=4)
        terminals = topology.terminals
        flows = lambda: [  # noqa: E731 - tiny local factory
            Flow(source=terminals[0], destination=terminals[-1], size=1e6),
            Flow(source=terminals[2], destination=terminals[-3], size=5e5),
        ]
        plain = FabricSimulator(topology).run(flows())
        traced = FabricSimulator(topology, telemetry=Telemetry()).run(flows())
        assert [s.completion_time for s in plain] == (
            [s.completion_time for s in traced]
        )
