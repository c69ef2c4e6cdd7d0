"""Tests for kill/retry/checkpoint-restart and node churn in the cluster."""

import math

import pytest

from repro.core.rng import RandomSource
from repro.observability import Telemetry
from repro.resilience import (
    CheckpointPlan,
    FailureProcess,
    FaultCampaign,
    FaultEvent,
    FaultInjector,
    FaultKind,
    NodeFaultSpec,
    RetryPolicy,
    check_conservation,
    cluster_report,
)
from repro.resilience.recovery import bind_cluster
from repro.validate.invariants import InvariantChecker
from tests.resilience.conftest import make_cluster, make_job


def _run_with_kill(cluster, job, kill_at):
    record = cluster.submit(job)
    cluster.simulation.schedule_at(
        kill_at, lambda: cluster.fail_job(job.job_id)
    )
    cluster.run()
    return record


class TestFailJob:
    def test_kill_requeues_and_finishes(self):
        cluster = make_cluster(nodes=1)
        job = make_job(600.0)
        record = _run_with_kill(cluster, job, kill_at=100.0)
        runtime = record.predicted_runtime
        assert record.failures == 1
        assert record.retries == 1
        assert record.finish_time == pytest.approx(100.0 + runtime)
        assert record.wasted_time == pytest.approx(100.0)
        check_conservation(cluster)

    def test_backoff_delays_the_restart(self):
        policy = RetryPolicy(
            max_retries=3, base_delay=50.0, multiplier=2.0
        )
        cluster = make_cluster(nodes=1, retry_policy=policy)
        job = make_job(600.0)
        record = _run_with_kill(cluster, job, kill_at=100.0)
        assert record.finish_time == pytest.approx(
            100.0 + 50.0 + record.predicted_runtime
        )

    def test_retry_budget_exhaustion_declares_dead(self):
        policy = RetryPolicy(max_retries=0, base_delay=1.0)
        cluster = make_cluster(nodes=1, retry_policy=policy)
        job = make_job(600.0)
        record = _run_with_kill(cluster, job, kill_at=100.0)
        assert record.dead
        assert record.finish_time is None
        assert cluster.dead_jobs == [record]
        tally = check_conservation(cluster)
        assert tally["dead"] == 1
        assert tally["completed"] == 0
        cluster_report(cluster)  # dead jobs are an outcome, not an error

    def test_useful_work_counted_once_despite_retries(self):
        cluster = make_cluster(nodes=1)
        job = make_job(600.0)
        record = _run_with_kill(cluster, job, kill_at=200.0)
        assert cluster.useful_device_seconds == pytest.approx(
            record.predicted_runtime
        )
        assert cluster.wasted_device_seconds == pytest.approx(200.0)

    def test_goodput_never_exceeds_utilization(self):
        cluster = make_cluster(nodes=2)
        for index in range(3):
            cluster.submit(make_job(300.0, name=f"j{index}", arrival=index * 10.0))
        cluster.simulation.schedule_at(
            150.0, lambda: cluster.fail_node()
        )
        cluster.run()
        assert cluster.goodput() <= cluster.utilization() + 1e-12
        check_conservation(cluster)

    def test_fault_free_run_has_equal_goodput_and_utilization(self):
        cluster = make_cluster(nodes=2)
        cluster.submit(make_job(300.0))
        cluster.run()
        assert cluster.goodput() == pytest.approx(cluster.utilization())


class TestCheckpointRestart:
    def test_attempt_pays_checkpoint_writes(self):
        plan = CheckpointPlan(interval=100.0, cost=10.0, restart_time=5.0)
        cluster = make_cluster(nodes=1, checkpoint=plan)
        job = make_job(350.0)
        record = cluster.submit(job)
        cluster.run()
        runtime = record.predicted_runtime
        expected = runtime + (math.ceil(runtime / 100.0) - 1) * 10.0
        assert record.finish_time == pytest.approx(expected)

    def test_kill_resumes_from_last_checkpoint(self):
        plan = CheckpointPlan(interval=100.0, cost=10.0, restart_time=5.0)
        cluster = make_cluster(nodes=1, checkpoint=plan)
        job = make_job(350.0)
        record = _run_with_kill(cluster, job, kill_at=250.0)
        runtime = record.predicted_runtime
        # At elapsed 250 the job has banked floor(250/110)=2 checkpoints,
        # i.e. 200 s of work; 50 s is lost.
        assert record.wasted_time == pytest.approx(50.0)
        left = runtime - 200.0
        expected_attempt = (
            5.0 + left + (math.ceil(left / 100.0) - 1) * 10.0
        )
        assert record.finish_time == pytest.approx(250.0 + expected_attempt)
        check_conservation(cluster)

    def test_checkpointing_beats_rerun_from_scratch_under_faults(self):
        def final_makespan(checkpoint):
            cluster = make_cluster(nodes=1, checkpoint=checkpoint)
            job = make_job(1_000.0)
            record = cluster.submit(job)
            for kill_at in (400.0, 900.0):
                cluster.simulation.schedule_at(
                    kill_at, lambda: cluster.fail_job(job.job_id)
                )
            cluster.run()
            return record.finish_time

        plan = CheckpointPlan(interval=100.0, cost=1.0, restart_time=2.0)
        assert final_makespan(plan) < final_makespan(None)

    def test_restart_prefix_not_charged_on_first_attempt(self):
        plan = CheckpointPlan(interval=1_000.0, cost=0.0, restart_time=500.0)
        cluster = make_cluster(nodes=1, checkpoint=plan)
        record = cluster.submit(make_job(300.0))
        cluster.run()
        assert record.finish_time == pytest.approx(record.predicted_runtime)


class TestNodeChurn:
    def test_fault_on_idle_device_kills_nothing(self):
        cluster = make_cluster(nodes=4)
        record = cluster.submit(make_job(300.0))
        cluster.simulation.schedule_at(10.0, lambda: cluster.fail_node())
        cluster.run()
        assert record.failures == 0
        assert cluster.capacity == 3
        assert cluster.nominal_capacity == 4
        check_conservation(cluster)

    def test_fault_on_busy_cluster_kills_a_victim(self):
        cluster = make_cluster(nodes=1)
        record = cluster.submit(make_job(300.0))
        victims = []
        cluster.simulation.schedule_at(
            10.0, lambda: victims.append(cluster.fail_node())
        )
        cluster.simulation.schedule_at(20.0, lambda: cluster.repair_node())
        cluster.run()
        assert victims == [record]
        assert record.failures == 1
        assert record.finish_time is not None
        check_conservation(cluster)

    def test_repair_restores_capacity(self):
        cluster = make_cluster(nodes=2)
        cluster.simulation.schedule_at(5.0, lambda: cluster.fail_node())
        cluster.simulation.schedule_at(15.0, lambda: cluster.repair_node())
        cluster.submit(make_job(100.0, ranks=2, arrival=20.0))
        cluster.run()
        assert cluster.capacity == 2
        assert cluster.free_devices == 2
        assert cluster.failed_nodes == 0

    def test_wide_job_waits_out_a_node_outage(self):
        """A 2-rank job cannot start while one of 2 nodes is down."""
        cluster = make_cluster(nodes=2)
        cluster.simulation.schedule_at(0.0, lambda: cluster.fail_node())
        cluster.simulation.schedule_at(500.0, lambda: cluster.repair_node())
        record = cluster.submit(make_job(100.0, ranks=2))
        cluster.run()
        assert record.start_time == pytest.approx(500.0)

    def test_all_nodes_failed_is_a_noop_beyond_zero(self):
        cluster = make_cluster(nodes=1)
        cluster.simulation.schedule_at(0.0, lambda: cluster.fail_node())
        cluster.simulation.schedule_at(1.0, lambda: cluster.fail_node())
        cluster.run()
        assert cluster.capacity == 0

    def test_victim_selection_weighted_by_footprint_is_seeded(self):
        def victim_name(seed):
            cluster = make_cluster(
                nodes=4, rng=RandomSource(seed=seed, name="victims")
            )
            wide = make_job(300.0, name="wide", ranks=3)
            narrow = make_job(300.0, name="narrow", ranks=1)
            cluster.submit(wide)
            cluster.submit(narrow)
            killed = []
            cluster.simulation.schedule_at(
                10.0, lambda: killed.append(cluster.fail_node())
            )
            cluster.run()
            return killed[0].job.name

        assert victim_name(8) == victim_name(8)
        names = {victim_name(seed) for seed in range(12)}
        assert "wide" in names  # 3x the footprint, should dominate


class TestBoundFaults:
    """Through ``bind_cluster`` a node comes back only at the repair of
    the fault that took it down."""

    def test_a_fault_finding_every_node_down_repairs_none(self):
        telemetry = Telemetry()
        cluster = make_cluster(nodes=1, telemetry=telemetry)
        injector = FaultInjector(
            cluster.simulation, FaultCampaign(horizon=1_000.0),
            RandomSource(seed=1, name="faults"), telemetry=telemetry,
            timeline=[
                FaultEvent(10.0, FaultKind.NODE, "testsite", 100.0),
                FaultEvent(20.0, FaultKind.NODE, "testsite", 5.0),
            ],
        )
        bind_cluster(injector, cluster)
        injector.install()
        capacity = {}
        for at in (15.0, 24.0, 26.0, 109.0, 111.0):
            cluster.simulation.schedule_at(
                at, lambda at=at: capacity.__setitem__(at, cluster.capacity),
                daemon=True,
            )
        record = cluster.submit(make_job(50.0, arrival=100.0))
        cluster.run()
        # The second fault is dropped: its repair at t=25 brings nothing
        # back, and the node stays down until the first one's at t=110.
        assert capacity == {15.0: 0, 24.0: 0, 26.0: 0, 109.0: 0, 111.0: 1}
        assert record.start_time == pytest.approx(110.0)
        # Only the fault that took the node counts a repair.
        assert injector.injected == 2
        assert injector.repaired == 1
        assert cluster.failed_nodes == 0
        metrics = telemetry.metrics
        assert metrics.get("resilience.faults.repaired").total() == 1.0
        assert metrics.get("cluster.nodes.repaired").total() == 1.0


class TestReport:
    def test_report_totals_match_ledgers(self):
        policy = RetryPolicy(max_retries=2, base_delay=1.0)
        cluster = make_cluster(nodes=2, retry_policy=policy)
        jobs = [make_job(400.0, name=f"j{i}", arrival=i * 5.0) for i in range(3)]
        for job in jobs:
            cluster.submit(job)
        for kill_at in (100.0, 300.0):
            cluster.simulation.schedule_at(kill_at, lambda: cluster.fail_node())
            cluster.simulation.schedule_at(
                kill_at + 50.0, lambda: cluster.repair_node()
            )
        cluster.run()
        report = cluster_report(cluster)
        assert report.submitted == 3
        assert report.completed + report.dead == 3
        assert report.kills == len(cluster.kill_times)
        assert sum(report.retry_histogram.values()) == 3
        assert report.goodput <= report.utilization + 1e-12
        if report.kills:
            assert report.mtti == pytest.approx(report.makespan / report.kills)


class TestConservationUnderChurn:
    """The job ledger balances at every instant of a churn run, not only
    at its end: a daemon probe checks it every 25 simulated seconds."""

    SPECS = (NodeFaultSpec(
        "testsite", FailureProcess(mtbf=300.0), repair_time=60.0,
    ),)

    @classmethod
    def _churn(cls, seed, telemetry=None, node_faults=SPECS):
        """A two-node cluster, six jobs and a node-fault campaign."""
        cluster = make_cluster(
            nodes=2, telemetry=telemetry,
            retry_policy=RetryPolicy(max_retries=3, base_delay=5.0),
            rng=RandomSource(seed=seed, name="victims"),
        )
        if telemetry is not None:
            telemetry.bind_simulation(cluster.simulation)
        campaign = FaultCampaign(horizon=5_000.0, node_faults=node_faults)
        injector = FaultInjector(
            cluster.simulation, campaign, RandomSource(seed=seed, name="faults")
        )
        bind_cluster(injector, cluster)
        injector.install()
        for index in range(6):
            cluster.submit(make_job(400.0, name=f"j{index}",
                                    arrival=index * 100.0))
        return cluster, injector

    @pytest.mark.parametrize("seed", range(5))
    def test_ledger_balances_throughout(self, seed):
        cluster, injector = self._churn(seed)
        checks = []
        for tick in range(1, 200):
            cluster.simulation.schedule_at(
                tick * 25.0,
                lambda: checks.append(check_conservation(cluster)),
                daemon=True,
            )
        cluster.run()
        final = check_conservation(cluster)
        assert checks and final["in_flight"] == 0
        assert final["completed"] + final["dead"] == final["submitted"] == 6
        assert injector.injected > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_run_invariants_hold(self, seed):
        telemetry = Telemetry()
        cluster, injector = self._churn(seed, telemetry)
        cluster.run()
        checker = InvariantChecker()
        checker.check_cluster(cluster)
        checker.check_telemetry(telemetry, drained=True)
        checker.assert_clean()
        metrics = telemetry.metrics
        assert metrics.get("cluster.jobs.submitted").total() == 6
        # A fault finding every node already down takes none.
        failed = metrics.get("cluster.nodes.failed").total()
        assert 0 < failed <= injector.injected
        assert metrics.get("cluster.nodes.repaired").total() == failed

    def test_nodes_down_follow_the_faults_that_took_them(self):
        # After every fault and repair, the nodes down are the faults
        # that took a node and are not yet repaired; a fault that found
        # both nodes down holds none.  Short and long repairs mix, so a
        # dropped fault's repair can come before a held one's.
        specs = (
            NodeFaultSpec("testsite", FailureProcess(mtbf=300.0),
                          repair_time=400.0),
            NodeFaultSpec("testsite", FailureProcess(mtbf=300.0),
                          repair_time=20.0),
        )
        dropped = 0
        for seed in range(5):
            telemetry = Telemetry()
            cluster, injector = self._churn(seed, telemetry, specs)
            holding = set()
            took = []
            mismatches = []

            def audit(event, repaired, cluster=cluster, holding=holding,
                      took=took, mismatches=mismatches):
                if repaired:
                    holding.discard(id(event))
                elif cluster.failed_nodes > len(holding):
                    holding.add(id(event))
                    took.append(event)
                if cluster.failed_nodes != len(holding):
                    mismatches.append((event.time, repaired))

            injector.on(FaultKind.NODE, audit)
            cluster.run()
            assert mismatches == []
            failed = telemetry.metrics.get("cluster.nodes.failed").total()
            assert failed == len(took)
            repaired = telemetry.metrics.get("cluster.nodes.repaired").total()
            assert repaired == failed
            # The injector counts the repairs of the faults that took one.
            assert injector.repaired == repaired
            dropped += injector.injected - len(took)
        assert dropped > 0  # the seeds reach the dropped-fault case
