"""Seed-robustness checks for the headline experiment orderings.

The benchmark harness runs each experiment once with a fixed seed; these
tests re-run scaled-down versions across several seeds and assert the
*orderings* (who wins) survive — the claims must not depend on a lucky
seed.
"""

import numpy as np
import pytest

from repro.core.rng import RandomSource
from repro.federation import Federation, Site, SiteKind, WanLink
from repro.hardware import default_catalog
from repro.interconnect.congestion import (
    FlowBasedCongestionControl,
    NoCongestionControl,
)
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.workloads import JobTraceGenerator, TraceConfig

SEEDS = (1, 7, 42)


class TestCongestionOrderingAcrossSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flow_based_beats_none_for_victims(self, seed):
        topology = build_topology(
            "dragonfly", groups=5, routers_per_group=3, terminals=4
        )
        graph = topology.graph
        rng = RandomSource(seed=seed, name="robust-c1")
        hot = rng.choice(topology.terminals)
        hot_router = graph.nodes[hot]["attached_to"]
        same_router = [
            t for t in topology.terminals
            if graph.nodes[t]["attached_to"] == hot_router and t != hot
        ]
        far = [
            t for t in topology.terminals
            if graph.nodes[t]["attached_to"] != hot_router
        ]

        def workload():
            flows = [
                Flow(source=source, destination=hot, size=100e6, tag="aggressor")
                for source in rng.sample(far, 8)
            ]
            for index, source in enumerate(same_router):
                flows.append(Flow(
                    source=source, destination=far[-(index + 1)],
                    size=64e3, start_time=1e-3, tag="victim",
                ))
            return flows

        def victim_p99(policy):
            stats = FabricSimulator(topology, congestion=policy).run(workload())
            victims = [s.completion_time for s in stats if s.tag == "victim"]
            return float(np.percentile(victims, 99))

        assert victim_p99(NoCongestionControl()) > victim_p99(
            FlowBasedCongestionControl()
        ) * 2


class TestSchedulerOrderingAcrossSeeds:
    def build_federation(self):
        catalog = default_catalog()
        cpu = catalog.get("epyc-class-cpu")
        gpu = catalog.get("hpc-gpu")
        federation = Federation()
        onprem = Site(name="onprem", kind=SiteKind.ON_PREMISE, devices={cpu: 32})
        hub = Site(
            name="hub", kind=SiteKind.SUPERCOMPUTER, devices={cpu: 64, gpu: 32}
        )
        federation.add_site(onprem)
        federation.add_site(hub)
        federation.connect(onprem, hub, WanLink(bandwidth=1.25e9, latency=0.01))
        return federation

    @pytest.mark.parametrize("seed", SEEDS)
    def test_federation_beats_home_only(self, seed):
        trace = JobTraceGenerator(
            TraceConfig(arrival_rate=0.02, duration=10_000, max_jobs=50),
            rng=RandomSource(seed=seed),
        ).generate()

        federated = MetaScheduler(
            self.build_federation(), policy=PlacementPolicy.BEST_SILICON
        )
        federated.run(list(trace))

        home_federation = self.build_federation()
        home = MetaScheduler(
            home_federation,
            policy=PlacementPolicy.HOME_ONLY,
            home_site=home_federation.site("onprem"),
        )
        home.run(list(trace))
        assert federated.mean_completion_time() <= home.mean_completion_time()
