"""Determinism: identical seeds must reproduce faults and outcomes bit-for-bit."""

from repro.core.rng import RandomSource
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultInjector,
    FaultKind,
    MemoryErrorCampaign,
    MemoryErrorSpec,
    NodeFaultSpec,
    RetryPolicy,
)
from repro.resilience.recovery import bind_cluster
from repro.sweep import SweepSpec, named_sweep, run_sweep
from tests.resilience.conftest import make_cluster, make_job


def _node_campaign():
    return FaultCampaign(
        horizon=20_000.0,
        node_faults=(
            NodeFaultSpec(
                "testsite", FailureProcess(mtbf=1_500.0), repair_time=50.0
            ),
        ),
    )


def _campaign():
    """Node faults here, plus memory upsets in a region nothing binds."""
    return MemoryErrorCampaign(
        horizon=20_000.0,
        memory=(
            MemoryErrorSpec(
                region="other", fit_per_gib=5e6, capacity_bytes=64 * 2**30
            ),
        ),
        base=_node_campaign(),
    )


def _ledger(seed):
    """Run a churn scenario and return a comparable outcome tuple."""
    cluster = make_cluster(
        nodes=2,
        retry_policy=RetryPolicy(max_retries=50, base_delay=5.0),
        rng=RandomSource(seed=seed, name="victims"),
    )
    injector = FaultInjector(
        cluster.simulation,
        _campaign(),
        RandomSource(seed=seed, name="faults"),
    )
    bind_cluster(injector, cluster)
    injector.install()
    records = [
        cluster.submit(make_job(800.0, name=f"j{i}", arrival=i * 300.0))
        for i in range(8)
    ]
    cluster.run()
    timeline = tuple(
        (e.time, e.kind.value, e.target, e.duration) for e in injector.timeline
    )
    ledger = tuple(
        (
            r.job.name,
            r.start_time,
            r.finish_time,
            r.failures,
            r.retries,
            r.wasted_time,
            r.dead,
        )
        for r in records
    )
    return timeline, ledger


class TestReplays:
    def test_same_seed_reproduces_timeline_and_ledger(self):
        assert _ledger(42) == _ledger(42)

    def test_different_seed_differs(self):
        timeline_a, _ = _ledger(42)
        timeline_b, _ = _ledger(43)
        assert timeline_a != timeline_b

    def test_memory_specs_leave_the_node_timeline_alone(self):
        # Each spec draws from its own named fork: the node faults of the
        # merged campaign are the base campaign's, event for event.
        merged = _campaign().timeline(RandomSource(seed=42, name="faults"))
        alone = _node_campaign().timeline(RandomSource(seed=42, name="faults"))
        kinds = {event.kind for event in merged}
        assert kinds == {FaultKind.NODE, FaultKind.MEMORY}
        assert [e for e in merged if e.kind is FaultKind.NODE] == alone


class TestSweepDeterminism:
    def _spec(self):
        """A 4-point miniature of the named resilience sweep."""
        return SweepSpec(
            name="resilience-determinism",
            target="resilience-churn",
            grid={
                "checkpoint_interval": [0.0, 300.0],
                "mtbf": [200.0],
                "jobs": [8],
                "work": [400.0],
                "seed_axis": [0, 1],
            },
            seed=2161,
        )

    def test_worker_count_does_not_change_results(self):
        serial = run_sweep(self._spec(), workers=1)
        parallel = run_sweep(self._spec(), workers=4)
        assert serial.fingerprint() == parallel.fingerprint()
        for a, b in zip(serial.points, parallel.points):
            assert a.index == b.index
            assert a.params == b.params
            assert a.metrics == b.metrics
            assert a.counters == b.counters

    def test_fault_timeline_is_in_the_fingerprint(self):
        result = run_sweep(self._spec(), workers=1)
        for point in result.points:
            assert point.metrics["faults_injected"] > 0
            assert point.metrics["fault_time_sum"] > 0.0

    def test_named_resilience_sweep_is_seed_stable(self):
        base = run_sweep(named_sweep("resilience", seed=9), workers=1)
        again = run_sweep(named_sweep("resilience", seed=9), workers=2)
        other = run_sweep(named_sweep("resilience", seed=10), workers=1)
        assert base.fingerprint() == again.fingerprint()
        assert base.fingerprint() != other.fingerprint()
