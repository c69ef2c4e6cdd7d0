"""Determinism guarantees: identical seeds produce identical simulations.

Reproducibility is a first-class deliverable — every experiment cites its
seed, so two runs of any subsystem with the same inputs must agree bit for
bit (within floating-point determinism, which Python guarantees for a
fixed operation order).
"""

import pytest

from repro.core.rng import RandomSource
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.workloads import JobTraceGenerator, TraceConfig


class TestSchedulerDeterminism:
    def test_metascheduler_runs_identically(self, small_federation, catalog):
        from repro.federation import Federation, Site, SiteKind, WanLink

        def build_federation():
            federation = Federation()
            cpu = catalog.get("epyc-class-cpu")
            gpu = catalog.get("hpc-gpu")
            a = Site(name="a", kind=SiteKind.ON_PREMISE, devices={cpu: 16})
            b = Site(name="b", kind=SiteKind.SUPERCOMPUTER, devices={cpu: 32, gpu: 16})
            federation.add_site(a)
            federation.add_site(b)
            federation.connect(a, b, WanLink(bandwidth=1.25e9, latency=0.01))
            return federation

        def run():
            trace = JobTraceGenerator(
                TraceConfig(arrival_rate=0.02, duration=8_000, max_jobs=40),
                rng=RandomSource(seed=9),
            ).generate()
            scheduler = MetaScheduler(
                build_federation(), policy=PlacementPolicy.BEST_SILICON,
                rng=RandomSource(seed=3),
            )
            records = scheduler.run(trace)
            return [
                (r.job.name, r.start_time, r.finish_time)
                for r in sorted(records, key=lambda r: r.job.name)
            ]

        assert run() == run()


class TestFabricDeterminism:
    def test_fabric_runs_identically(self):
        def run():
            topology = build_topology(
                "dragonfly", groups=5, routers_per_group=3, terminals=2
            )
            terminals = topology.terminals
            flows = [
                Flow(source=terminals[i], destination=terminals[-(i + 1)],
                     size=1e7 * (i + 1))
                for i in range(8)
            ]
            simulator = FabricSimulator(
                topology, routing="valiant", rng=RandomSource(seed=5)
            )
            return sorted(
                (s.size, s.finish_time) for s in simulator.run(flows)
            )

        assert run() == run()


class TestMarketDeterminism:
    def test_market_price_history_identical(self):
        def run():
            exchange = ComputeExchange([ResourceClass("x")])
            for index in range(4):
                exchange.register(ProviderAgent(
                    f"p{index}", marginal_cost=0.8 + 0.2 * index,
                    capacity_per_round=10,
                ))
            for index in range(4):
                exchange.register(ConsumerAgent(
                    f"c{index}", valuation=1.2 + 0.3 * index, demand_per_round=8,
                ))
            exchange.register(BrokerAgent("b"))
            simulation = MarketSimulation(exchange, "x", rng=RandomSource(seed=13))
            simulation.run(25)
            return simulation.price_history

        assert run() == run()
