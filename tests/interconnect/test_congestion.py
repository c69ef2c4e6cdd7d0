"""Tests for congestion-management policies — the Slingshot claim (C1)."""

import numpy as np
import pytest

from repro.interconnect.congestion import (
    EcnCongestionControl,
    FlowBasedCongestionControl,
    NoCongestionControl,
    congestion_policy,
)
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology


def incast_workload(topology, aggressors=10, victims=3):
    """Elephants incast into one terminal; mice source from the hot router."""
    graph = topology.graph
    hot = topology.terminals[0]
    hot_router = graph.nodes[hot]["attached_to"]
    same_router = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] == hot_router and t != hot
    ]
    far = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] != hot_router
    ]
    flows = [
        Flow(source=far[i], destination=hot, size=100e6, tag="aggressor")
        for i in range(aggressors)
    ]
    for i, source in enumerate(same_router[:victims]):
        flows.append(
            Flow(
                source=source,
                destination=far[-(i + 1)],
                size=64e3,
                start_time=1e-3,
                tag="victim",
            )
        )
    return flows


@pytest.fixture
def topology():
    return build_topology("dragonfly", groups=5, routers_per_group=3, terminals=4)


def victim_p99(topology, congestion):
    flows = incast_workload(topology)
    stats = FabricSimulator(topology, congestion=congestion).run(flows)
    victims = [s.completion_time for s in stats if s.tag == "victim"]
    return float(np.percentile(victims, 99))


class TestPolicyParameters:
    def test_no_cm_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            NoCongestionControl(spread_penalty=1.0)

    def test_ecn_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            EcnCongestionControl(convergence_efficiency=0.0)

    def test_flow_based_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            FlowBasedCongestionControl(identification_efficiency=1.5)

    def test_victim_factors(self):
        none = NoCongestionControl(spread_penalty=0.5)
        assert none.victim_rate_factor(2) == pytest.approx(0.25)
        flow_based = FlowBasedCongestionControl()
        assert flow_based.victim_rate_factor(5) == 1.0
        assert flow_based.victim_extra_latency(5) == 0.0

    def test_no_cm_rejects_negative_drain_time(self):
        with pytest.raises(ValueError):
            NoCongestionControl(buffer_drain_time=-1e-6)

    def test_ecn_rejects_bad_residual_penalty(self):
        with pytest.raises(ValueError):
            EcnCongestionControl(residual_spread_penalty=1.0)

    def test_aggressor_factors(self):
        # Without control aggressors keep their share; ECN's sawtooth and
        # flow-based identification each cost them a configured fraction.
        assert NoCongestionControl().aggressor_rate_factor() == 1.0
        assert EcnCongestionControl(
            convergence_efficiency=0.7).aggressor_rate_factor() == 0.7
        assert FlowBasedCongestionControl(
            identification_efficiency=0.9).aggressor_rate_factor() == 0.9

    def test_victim_latency_is_per_hot_switch(self):
        none = NoCongestionControl(buffer_drain_time=40e-6)
        ecn = EcnCongestionControl(residual_queue_delay=8e-6)
        assert none.victim_extra_latency(3) == pytest.approx(120e-6)
        assert ecn.victim_extra_latency(3) == pytest.approx(24e-6)
        assert none.victim_extra_latency(0) == ecn.victim_extra_latency(0) == 0.0

    @pytest.mark.parametrize("hot_switches", [0, 1, 2, 3])
    def test_victims_fare_best_under_flow_based(self, hot_switches):
        none, ecn, flow = (
            congestion_policy(name) for name in ("none", "ecn", "flow")
        )
        assert (flow.victim_rate_factor(hot_switches)
                >= ecn.victim_rate_factor(hot_switches)
                >= none.victim_rate_factor(hot_switches))
        assert (flow.victim_extra_latency(hot_switches)
                <= ecn.victim_extra_latency(hot_switches)
                <= none.victim_extra_latency(hot_switches))


class TestPolicyNames:
    @pytest.mark.parametrize("name, kind", [
        ("none", NoCongestionControl),
        ("off", NoCongestionControl),
        ("ecn", EcnCongestionControl),
        ("flow", FlowBasedCongestionControl),
        (" Slingshot ", FlowBasedCongestionControl),
        ("flow-based", FlowBasedCongestionControl),
    ])
    def test_names_and_aliases(self, name, kind):
        assert type(congestion_policy(name)) is kind

    def test_fresh_manager_per_call(self):
        assert congestion_policy("ecn") is not congestion_policy("ecn")

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="known: none, ecn, flow"):
            congestion_policy("pfc")


class TestPaperClaim:
    def test_flow_based_protects_victim_tail_latency(self, topology):
        """§II.B: flow-based CM preserves tail latency under load.

        Ordering must be: none >> ecn > flow-based, with no-CM at least
        3x worse than flow-based.
        """
        p99_none = victim_p99(topology, NoCongestionControl())
        p99_ecn = victim_p99(topology, EcnCongestionControl())
        p99_flow = victim_p99(topology, FlowBasedCongestionControl())
        assert p99_none > p99_ecn > p99_flow
        assert p99_none / p99_flow > 3.0

    def test_aggressors_keep_throughput_under_flow_based(self, topology):
        """Selective backpressure pins aggressors to fair share — it must
        not collapse their throughput (within 15% of uncontrolled)."""
        flows_none = incast_workload(topology)
        flows_flow = incast_workload(topology)
        none_stats = FabricSimulator(topology, congestion=NoCongestionControl()).run(
            flows_none
        )
        flow_stats = FabricSimulator(
            topology, congestion=FlowBasedCongestionControl()
        ).run(flows_flow)
        none_mean = np.mean(
            [s.completion_time for s in none_stats if s.tag == "aggressor"]
        )
        flow_mean = np.mean(
            [s.completion_time for s in flow_stats if s.tag == "aggressor"]
        )
        assert flow_mean <= none_mean * 1.15

    def test_no_congestion_means_no_difference(self, topology):
        """With uncongested traffic all three policies agree exactly."""
        terminals = topology.terminals
        flows = [
            (terminals[0], terminals[-1]),
            (terminals[5], terminals[10]),
        ]
        results = []
        for policy in (
            NoCongestionControl(),
            EcnCongestionControl(),
            FlowBasedCongestionControl(),
        ):
            stats = FabricSimulator(topology, congestion=policy).run(
                [Flow(source=s, destination=d, size=1e6) for s, d in flows]
            )
            results.append(sorted(s.completion_time for s in stats))
        assert results[0] == pytest.approx(results[1])
        assert results[1] == pytest.approx(results[2])
