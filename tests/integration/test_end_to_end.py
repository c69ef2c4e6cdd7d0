"""Integration tests spanning multiple subsystems.

These exercise the paper's end-to-end stories rather than single modules:
an edge-to-supercomputer workflow with provenance, a federated trace run
with bursting, and a market-backed allocation round.
"""

import pytest

from repro.core.rng import RandomSource
from repro.datafoundation import (
    DataEntry,
    GovernanceLabel,
    LineageGraph,
    MetadataCatalog,
    Transformation,
    TransferPlanner,
)
from repro.federation import Dataset, Federation, Site, SiteKind, WanLink
from repro.federation.bursting import BurstingPolicy
from repro.hardware import default_catalog
from repro.market import (
    ComputeExchange,
    MarketSimulation,
    ResourceClass,
)
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.scheduling.cluster import ClusterSimulator
from repro.workloads import (
    DetectorPreset,
    InstrumentStream,
    JobTraceGenerator,
    TraceConfig,
)
from repro.workloads.ai import build_mlp
from repro.workloads.base import JobClass, make_single_kernel_job


class TestEdgeToSupercomputerWorkflow:
    """§III.A's heavy-edge story: filter at the edge, train at the core,
    with full provenance."""

    def test_full_workflow(self, small_federation, catalog):
        # 1. An edge site with an NPU joins the federation.
        npu = catalog.get("edge-npu")
        edge = Site(name="beamline", kind=SiteKind.EDGE, devices={npu: 8})
        small_federation.add_site(edge)
        small_federation.connect(
            edge, small_federation.site("super"),
            WanLink(bandwidth=1.25e9, latency=0.005),
        )

        # 2. The instrument produces a stream; edge inference filters it.
        stream = InstrumentStream(
            preset=DetectorPreset.LIGHT_SOURCE_IMAGING,
            interesting_fraction=0.02,
            duration=60.0,
        )
        kept = stream.filtered_bytes_with_recall(recall=0.98, false_positive_rate=0.01)
        assert kept < stream.total_bytes / 10

        # 3. The filtered dataset is registered and governed.
        small_federation.add_dataset(
            Dataset(name="filtered-events", size_bytes=kept, replicas={"beamline"})
        )
        metadata = MetadataCatalog()
        metadata.register(
            DataEntry(
                name="filtered-events",
                size_bytes=kept,
                governance=GovernanceLabel.INSTITUTIONAL,
                home_site="beamline",
                tags={"beamline", "filtered"},
            )
        )

        # 4. Provenance records the edge filtering step.
        lineage = LineageGraph()
        lineage.add_source("raw-stream")
        lineage.record(
            Transformation(
                "edge-inference-filter",
                inputs=("raw-stream",),
                outputs=("filtered-events",),
                site="beamline",
            )
        )

        # 5. A transfer plan stages the data at the supercomputer.
        planner = TransferPlanner(small_federation.catalog, metadata)
        plan = planner.plan(["filtered-events"], small_federation.site("super"))
        assert plan.total_time > 0

        # 6. Training runs at the core, pulled there by data gravity once
        # the replica lands.
        small_federation.catalog.get("filtered-events").add_replica(
            small_federation.site("super")
        )
        training = build_mlp(hidden_dim=2048).training_job(
            batch=256, steps=50, ranks=4,
            input_dataset="filtered-events", input_bytes=kept,
        )
        scheduler = MetaScheduler(small_federation, policy=PlacementPolicy.BEST_SILICON)
        records = scheduler.run([training])
        assert len(records) == 1
        assert scheduler.decisions[0].site.name == "super"
        assert scheduler.decisions[0].staging_time == 0.0

        # 7. Provenance closes the loop.
        lineage.record(
            Transformation(
                "train-surrogate",
                inputs=("filtered-events",),
                outputs=("surrogate-model",),
                site="super",
            )
        )
        assert lineage.sources_of("surrogate-model") == {"raw-stream"}


class TestBurstingIntegration:
    """Stage-1 bursting on a real queue backlog."""

    def test_burst_decision_from_queue_state(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        site = Site(name="onprem", kind=SiteKind.ON_PREMISE, devices={cpu: 2})
        cluster = ClusterSimulator(site=site, device=cpu)
        # Fill the queue with heavy jobs.
        for index in range(10):
            job = make_single_kernel_job(
                name=f"heavy-{index}", job_class=JobClass.ANALYTICS,
                flops=1e15, bytes_moved=1e12, ranks=2,
            )
            cluster.submit(job)
        cluster.simulation.run(until=0.0)
        policy = BurstingPolicy(queue_threshold=60.0)
        newcomer = make_single_kernel_job(
            name="newcomer", job_class=JobClass.ANALYTICS,
            flops=1e12, bytes_moved=1e9,
        )
        assert policy.should_burst(newcomer, cluster.estimated_queue_wait)


class TestMarketBackedFederation:
    """C10's setting: providers sell idle federation capacity on the
    exchange; cash stays conserved and prices converge."""

    def test_market_over_federation_capacity(self, small_federation):
        exchange = ComputeExchange([ResourceClass("cpu-hour")])
        suppliers = []
        for site in small_federation.sites:
            for device in site.devices:
                if device.kind.value != "cpu":
                    continue
                cost = site.hourly_price(device) * 0.8
                capacity = site.count(device) / 4.0
                exchange.register(
                    ProviderAgent(
                        f"{site.name}-{device.name}",
                        marginal_cost=max(cost, 0.05),
                        capacity_per_round=capacity,
                    )
                )
                suppliers.append((max(cost, 0.05), capacity))
        for index in range(6):
            exchange.register(
                ConsumerAgent(
                    f"user{index}", valuation=0.3 + 0.1 * index, demand_per_round=10
                )
            )
        exchange.register(BrokerAgent("maker"))
        simulation = MarketSimulation(exchange, "cpu-hour", rng=RandomSource(seed=2))
        cash_before = exchange.total_cash()
        simulation.run(50)
        assert exchange.total_cash() == pytest.approx(cash_before)
        assert simulation.price_history  # trades happened


class TestHeterogeneousTraceAcrossFederation:
    def test_mixed_trace_exploits_heterogeneity(self, small_federation):
        """The Figure 1 mix lands on at least three device kinds."""
        trace = JobTraceGenerator(
            TraceConfig(arrival_rate=0.02, duration=30_000, max_jobs=100),
            rng=RandomSource(seed=21),
        ).generate()
        scheduler = MetaScheduler(small_federation)
        records = scheduler.run(trace)
        assert len(records) >= 95  # nearly everything placed
        kinds = scheduler.placements_by_device_kind()
        assert len(kinds) >= 2
        # Federation used more than one site.
        assert len(scheduler.placements_by_site()) >= 2
