"""Tests for the federation meta-scheduler (C8/C9)."""

import pytest

from repro.core.rng import RandomSource
from repro.federation import Dataset
from repro.resilience.metrics import check_conservation
from repro.scheduling.metascheduler import MetaScheduler, PlacementPolicy
from repro.workloads.ai import build_mlp
from repro.workloads.base import JobClass, make_single_kernel_job
from repro.workloads.hpc import stencil
from repro.workloads.traces import JobTraceGenerator, TraceConfig


def small_trace(max_jobs=60, seed=11):
    return JobTraceGenerator(
        TraceConfig(arrival_rate=0.02, duration=20_000.0, max_jobs=max_jobs),
        rng=RandomSource(seed=seed),
    ).generate()


class TestPlacement:
    def test_all_jobs_finish(self, small_federation):
        scheduler = MetaScheduler(small_federation)
        records = scheduler.run(small_trace())
        assert len(records) + len(scheduler.rejected) == 60
        assert all(r.finish_time is not None for r in records)

    def test_best_silicon_uses_accelerators(self, small_federation):
        scheduler = MetaScheduler(small_federation)
        scheduler.run(small_trace())
        kinds = scheduler.placements_by_device_kind()
        assert "gpu" in kinds or "systolic" in kinds

    def test_home_only_stays_home(self, small_federation):
        home = small_federation.site("onprem")
        scheduler = MetaScheduler(
            small_federation, policy=PlacementPolicy.HOME_ONLY, home_site=home
        )
        scheduler.run(small_trace())
        assert set(scheduler.placements_by_site()) <= {"onprem"}

    def test_best_silicon_beats_home_only(self, small_federation):
        """§III.F: the federation-wide meta-scheduler must dominate the
        single-site baseline on mean completion time."""
        trace = small_trace(max_jobs=80)
        best = MetaScheduler(small_federation, policy=PlacementPolicy.BEST_SILICON)
        best.run([j for j in trace])
        home = MetaScheduler(
            small_federation,
            policy=PlacementPolicy.HOME_ONLY,
            home_site=small_federation.site("onprem"),
        )
        home.run([j for j in trace])
        assert best.mean_completion_time() < home.mean_completion_time()

    def test_best_silicon_beats_random(self, small_federation):
        trace = small_trace(max_jobs=80)
        best = MetaScheduler(small_federation, policy=PlacementPolicy.BEST_SILICON)
        best.run(list(trace))
        random_policy = MetaScheduler(small_federation, policy=PlacementPolicy.RANDOM)
        random_policy.run(list(trace))
        assert best.mean_completion_time() <= random_policy.mean_completion_time()

    def test_rejects_impossible_jobs(self, small_federation):
        scheduler = MetaScheduler(small_federation)
        impossible = stencil(grid_points=10**8, ranks=100_000)
        records = scheduler.run([impossible])
        assert records == []
        assert scheduler.rejected == [impossible]


class TestDataGravity:
    def add_pinned_dataset(self, federation, site_name="super", size=200e9):
        federation.add_dataset(
            Dataset(name="pinned", size_bytes=size, replicas={site_name})
        )

    def make_data_job(self, arrival=0.0):
        job = make_single_kernel_job(
            name="data-job",
            job_class=JobClass.ANALYTICS,
            flops=1e12,
            bytes_moved=1e11,
            precision=__import__("repro.hardware.precision", fromlist=["Precision"]).Precision.FP32,
            input_dataset="pinned",
            input_bytes=200e9,
        )
        job.arrival_time = arrival
        return job

    def test_gravity_pulls_job_to_data(self, small_federation):
        """C9: with gravity on, the job runs where the data lives."""
        self.add_pinned_dataset(small_federation)
        scheduler = MetaScheduler(
            small_federation, policy=PlacementPolicy.BEST_SILICON, gravity_weight=1.0
        )
        scheduler.run([self.make_data_job()])
        [decision] = scheduler.decisions
        assert decision.site.name == "super"
        assert decision.staging_time == 0.0

    def test_compute_only_ignores_data(self, small_federation):
        """The baseline may well move 200 GB across the WAN."""
        self.add_pinned_dataset(small_federation)
        compute_only = MetaScheduler(
            small_federation, policy=PlacementPolicy.COMPUTE_ONLY
        )
        gravity = MetaScheduler(
            small_federation, policy=PlacementPolicy.BEST_SILICON, gravity_weight=1.0
        )
        job_a = self.make_data_job()
        job_b = self.make_data_job()
        records_a = compute_only.run([job_a])
        records_b = gravity.run([job_b])
        # End-to-end completion with gravity must be no worse.
        assert records_b[0].completion_time <= records_a[0].completion_time


class TestStaticAffinity:
    def test_training_lands_on_gpus(self, small_federation):
        scheduler = MetaScheduler(
            small_federation, policy=PlacementPolicy.STATIC_AFFINITY
        )
        job = build_mlp().training_job(batch=64, steps=5)
        scheduler.run([job])
        [decision] = scheduler.decisions
        assert decision.device.kind.value == "gpu"


class TestMetrics:
    def test_energy_accounted(self, small_federation):
        scheduler = MetaScheduler(small_federation)
        scheduler.run(small_trace(max_jobs=20))
        assert scheduler.total_energy() > 0

    def test_gravity_weight_validation(self, small_federation):
        with pytest.raises(ValueError):
            MetaScheduler(small_federation, gravity_weight=-1.0)


class TestEveryPolicy:
    """Every placement policy places each feasible job on a pool of the
    federation, every placed job finishes, and each pool's job ledger
    balances (placement never strands a job)."""

    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_places_and_finishes_every_job(self, small_federation, policy):
        scheduler = MetaScheduler(
            small_federation, policy=policy, rng=RandomSource(seed=4)
        )
        trace = small_trace(max_jobs=20)
        records = scheduler.run(trace)
        assert len(records) + len(scheduler.rejected) == len(trace)
        assert len(scheduler.decisions) == len(records)
        for decision in scheduler.decisions:
            assert (decision.site.name, decision.device.name) in scheduler.pools
        for pool in scheduler.pools.values():
            tally = check_conservation(pool)
            assert tally["in_flight"] == 0 and tally["dead"] == 0
