"""Tests for the event-driven cluster simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchedulingError
from repro.federation.site import Site, SiteKind
from repro.hardware.catalog import default_catalog
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
    return ClusterSimulator(site=site, device=cpu)


class TestSubmission:
    def test_oversized_job_rejected(self, cluster):
        with pytest.raises(SchedulingError):
            cluster.submit(make_job("wide", ranks=100))

    def test_infeasible_job_rejected(self, catalog):
        tpu = catalog.get("tpu-like")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={tpu: 4})
        cluster = ClusterSimulator(site=site, device=tpu)
        from repro.workloads.hpc import stencil
        with pytest.raises(SchedulingError):
            cluster.submit(stencil(grid_points=1000))  # FP64 on a TPU

    def test_single_job_runs(self, cluster):
        record = cluster.submit(make_job("solo"))
        cluster.run()
        assert record.finish_time is not None
        assert record.queue_wait == 0.0
        assert record.completion_time == pytest.approx(record.predicted_runtime)


class TestQueueing:
    def test_fcfs_order(self, cluster):
        # 4 devices; two 4-rank jobs must serialise.
        first = cluster.submit(make_job("first", ranks=4, arrival=0.0))
        second = cluster.submit(make_job("second", ranks=4, arrival=0.0))
        cluster.run()
        assert second.start_time >= first.finish_time

    def test_parallel_when_capacity_allows(self, cluster):
        a = cluster.submit(make_job("a", ranks=2))
        b = cluster.submit(make_job("b", ranks=2))
        cluster.run()
        assert a.start_time == b.start_time == 0.0

    def test_transfer_time_delays_start(self, cluster):
        record = cluster.submit(make_job("staged"), transfer_time=100.0)
        cluster.run()
        assert record.start_time >= 100.0

    def test_arrival_time_respected(self, cluster):
        record = cluster.submit(make_job("late", arrival=50.0))
        cluster.run()
        assert record.start_time >= 50.0


class TestFcfs:
    """The dispatch rule on hand-built queues."""

    def test_empty_queue(self, cluster):
        assert cluster.run() == []
        assert cluster.queue_depth == 0
        assert cluster.free_devices == cluster.capacity

    def test_head_fits(self, cluster):
        record = cluster.submit(make_job("head", ranks=4, arrival=7.0))
        cluster.run()
        assert record.start_time == 7.0

    def test_head_blocked_blocks_everything(self, cluster):
        # One device stays free behind the 3-wide blocker; the 4-wide head
        # waits for it, and the 1-wide job behind the head may not pass.
        blocker = cluster.submit(make_job("blocker", ranks=3, flops=1e14))
        head = cluster.submit(make_job("head", ranks=4, arrival=1.0))
        small = cluster.submit(make_job("small", ranks=1, arrival=2.0))
        cluster.simulation.run(until=2.0)
        assert cluster.queue_depth == 2 and cluster.free_devices == 1
        cluster.run()
        assert head.start_time == blocker.finish_time
        assert small.start_time >= head.start_time

    def test_next_head_starts_at_the_finish_instant(self, cluster):
        first = cluster.submit(make_job("first", ranks=4, flops=1e14))
        second = cluster.submit(make_job("second", ranks=4, arrival=1.0))
        cluster.run()
        assert second.start_time == first.finish_time

    def test_same_instant_ties_keep_submission_order(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 1})
        cluster = ClusterSimulator(site=site, device=cpu)
        records = [cluster.submit(make_job(f"j{i}")) for i in range(4)]
        cluster.run()
        starts = [record.start_time for record in records]
        assert starts == sorted(starts) and len(set(starts)) == 4

    def test_later_arrivals_queue_behind_the_running_job(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 1})
        cluster = ClusterSimulator(site=site, device=cpu)
        first = cluster.submit(make_job("first", arrival=0.0, flops=1e14))
        second = cluster.submit(make_job("second", arrival=10.0))
        third = cluster.submit(make_job("third", arrival=20.0))
        cluster.run()
        assert first.finish_time == second.start_time
        assert second.finish_time == third.start_time


class TestJobRecord:
    def test_queue_wait_of_unstarted_job_raises(self, cluster):
        record = cluster.submit(make_job("queued", arrival=5.0))
        with pytest.raises(SchedulingError):
            record.queue_wait

    def test_completion_time_of_unfinished_job_raises(self, cluster):
        record = cluster.submit(make_job("queued"))
        with pytest.raises(SchedulingError):
            record.completion_time


#: (arrival, ranks, flops) per job: arrivals on a coarse grid so that
#: several jobs often become ready at the same instant.
_JOBS = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda tick: tick * 5.0),
        st.integers(1, 4),
        st.sampled_from([1e12, 3e12, 1e13, 4e13, 1e14]),
    ),
    min_size=1, max_size=25,
)


class TestFcfsDefinition:
    """First come, first served, checked against its definition on the
    records alone: no job passes an earlier-ready one, and the queue never
    waits while its head fits."""

    CAPACITY = 4

    @given(jobs=_JOBS, width=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_ready_order_and_no_idle_head(self, jobs, width):
        cpu = default_catalog().get("epyc-class-cpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE,
                    devices={cpu: self.CAPACITY})
        cluster = ClusterSimulator(site=site, device=cpu)
        for index, (arrival, ranks, flops) in enumerate(jobs):
            # At width 1 every job is one device wide, and (ii) below
            # becomes: no device idles while a job waits.
            cluster.submit(make_job(
                f"j{index}", flops=flops, ranks=min(ranks, width),
                arrival=arrival,
            ))
        # Ready order: ready time, then submission order (the kernel
        # fires same-instant events first in, first out).
        ready = sorted(cluster.run(), key=lambda r: r.ready_time)

        # (i) Jobs start in ready order.
        starts = [r.start_time for r in ready]
        assert starts == sorted(starts)

        # (ii) At every start or finish instant, once it settles, the
        # queue is empty or its head needs more devices than are free.
        instants = {r.start_time for r in ready} | {r.finish_time for r in ready}
        for now in sorted(instants):
            busy = sum(
                r.job.ranks for r in ready
                if r.start_time <= now < r.finish_time
            )
            waiting = [
                r for r in ready if r.ready_time <= now < r.start_time
            ]
            if waiting:
                assert waiting[0].job.ranks > self.CAPACITY - busy, now


class TestMetrics:
    def test_utilization_bounds(self, cluster):
        for index in range(6):
            cluster.submit(make_job(f"j{index}", ranks=2))
        cluster.run()
        assert 0.0 < cluster.utilization() <= 1.0

    def test_makespan_is_last_finish(self, cluster):
        records = [cluster.submit(make_job(f"j{i}", ranks=4)) for i in range(3)]
        cluster.run()
        assert cluster.makespan() == max(r.finish_time for r in records)

    def test_estimated_queue_wait_grows_with_backlog(self, cluster):
        assert cluster.estimated_queue_wait == 0.0
        for index in range(8):
            cluster.submit(make_job(f"j{index}", ranks=4))
        # Before running, everything is queued at t=0... submit schedules
        # enqueue events; run one step to let them queue.
        cluster.simulation.run(until=0.0)
        assert cluster.estimated_queue_wait > 0.0

    def test_empty_cluster_metrics(self, cluster):
        assert cluster.makespan() == 0.0
        assert cluster.utilization() == 0.0
