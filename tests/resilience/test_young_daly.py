"""Acceptance: the live simulation reproduces the Young/Daly shape.

A single long job on a one-node cluster, hammered by an exponential fault
process, is checkpointed at a grid of intervals around the analytical
optimum tau* = sqrt(2*M*C). Goodput must peak at the grid point closest
to tau* (the grid's neighbours sit well outside the 20% acceptance
band), and a faster checkpoint target must dominate a slower one under
the identical fault timeline (common random numbers).
"""

import pytest

from repro.core.rng import RandomSource
from repro.resilience import (
    CheckpointPlan,
    FailureProcess,
    FaultCampaign,
    FaultInjector,
    NodeFaultSpec,
    RetryPolicy,
    check_conservation,
)
from repro.resilience.recovery import bind_cluster
from repro.scheduling.checkpointing import (
    FailureModel,
    fabric_pm_target,
    parallel_filesystem_target,
    young_daly_interval,
)
from tests.resilience.conftest import make_cluster, make_job

MTBF = 2_000.0
COST = 120.0
WORK = 100_000.0
SEED = 353
#: Fixed seed panel for the shape test: one timeline is too noisy to
#: localise the optimum, the five-seed average is cleanly unimodal.
SEEDS = (353, 7, 101, 999, 2024)
HORIZON = 30_000_000.0


def goodput_at(plan, seed=SEED):
    """Run the canonical rig under a fixed fault timeline with ``plan``."""
    cluster = make_cluster(
        nodes=1,
        retry_policy=RetryPolicy(
            max_retries=100_000, base_delay=1.0, multiplier=1.0
        ),
        checkpoint=plan,
    )
    campaign = FaultCampaign(
        horizon=HORIZON,
        node_faults=(
            NodeFaultSpec(
                site=cluster.site.name,
                process=FailureProcess(mtbf=MTBF),
                repair_time=1.0,
            ),
        ),
    )
    injector = FaultInjector(
        cluster.simulation, campaign, RandomSource(seed=seed, name="yd")
    )
    bind_cluster(injector, cluster)
    injector.install()
    record = cluster.submit(make_job(WORK))
    cluster.run()
    assert record.finish_time is not None
    check_conservation(cluster)
    return cluster.goodput()


class TestYoungDalyShape:
    def test_goodput_peaks_at_the_analytical_optimum(self):
        tau = young_daly_interval(MTBF, COST)
        grid = [0.45 * tau, 0.7 * tau, tau, 1.45 * tau, 2.1 * tau]
        goodputs = [
            sum(
                goodput_at(
                    CheckpointPlan(interval=i, cost=COST, restart_time=COST),
                    seed=seed,
                )
                for seed in SEEDS
            )
            / len(SEEDS)
            for i in grid
        ]
        best = grid[goodputs.index(max(goodputs))]
        assert best == pytest.approx(tau, rel=0.2)
        # The averaged curve is unimodal: both grid extremes lose to tau*.
        assert goodputs[2] > goodputs[0]
        assert goodputs[2] > goodputs[-1]

    def test_checkpointing_beats_none_under_faults(self):
        tau = young_daly_interval(MTBF, COST)
        with_plan = goodput_at(
            CheckpointPlan(interval=tau, cost=COST, restart_time=COST)
        )
        without = goodput_at(None)
        assert with_plan > without


class TestStorageTierOrdering:
    def test_fabric_pm_beats_parallel_fs(self):
        """The paper's fabric-attached PM tier checkpoints ~40x faster
        than a parallel filesystem, so under the same fault timeline it
        must deliver strictly better goodput."""
        failures = FailureModel(node_mtbf=MTBF, nodes=1)
        bytes_per_node = 2e11  # 200 GB of state
        fast = CheckpointPlan.from_target(
            fabric_pm_target(), bytes_per_node, failures
        )
        slow = CheckpointPlan.from_target(
            parallel_filesystem_target(), bytes_per_node, failures
        )
        assert fast.cost < slow.cost
        assert goodput_at(fast) > goodput_at(slow)
