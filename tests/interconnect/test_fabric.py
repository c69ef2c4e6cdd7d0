"""Tests for the flow-level fabric simulator."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.congestion import (
    FlowBasedCongestionControl,
    NoCongestionControl,
)
from repro.interconnect.fabric import FabricSimulator, Flow, FlowStats
from repro.interconnect.topology import (
    DEFAULT_LINK_BANDWIDTH,
    build_topology,
)
from repro.observability import Telemetry
from repro.validate.invariants import InvariantChecker


@pytest.fixture
def topology():
    return build_topology("two-tier", leaves=4, spines=2, terminals=4)


class TestFlow:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            Flow(source="a", destination="b", size=0.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            Flow(source="a", destination="b", size=1.0, start_time=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["size", "start_time"])
    def test_rejects_non_finite_fields(self, field, value):
        # Caught at construction: otherwise the run fails much later with
        # a deadlock or max_iterations error that names no field.
        kwargs = {"size": 1.0, "start_time": 0.0, field: value}
        with pytest.raises(ConfigurationError, match=field):
            Flow(source="a", destination="b", **kwargs)

    def test_rejects_loopback(self):
        # A loopback flow never finishes: the run used to end in
        # "fabric deadlock: no progress possible".
        with pytest.raises(ConfigurationError, match="source and destination"):
            Flow(source="a", destination="a", size=1.0)

    def test_flow_ids_unique(self):
        a = Flow(source="a", destination="b", size=1.0)
        b = Flow(source="a", destination="b", size=1.0)
        assert a.flow_id != b.flow_id


class TestSingleFlow:
    def test_ideal_completion_time(self, topology):
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        size = 1e9
        [stats] = sim.run([Flow(source=terminals[0], destination=terminals[-1], size=size)])
        # Alone on the network: line rate plus propagation.
        expected = size / DEFAULT_LINK_BANDWIDTH + stats.propagation_delay
        assert stats.completion_time == pytest.approx(expected, rel=1e-6)

    def test_empty_flow_list(self, topology):
        assert FabricSimulator(topology).run([]) == []

    def test_duplicate_flow_ids_are_rejected_before_admission(self):
        # Results are keyed by flow id: the second flow used to replace
        # the first, whose bytes the offered ledger had already counted.
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        terminals = topology.terminals
        telemetry = Telemetry()
        sim = FabricSimulator(topology, telemetry=telemetry)
        flows = [
            Flow(source=terminals[0], destination=terminals[-1], size=1e6,
                 flow_id=7),
            Flow(source=terminals[1], destination=terminals[-2], size=1e6,
                 start_time=1e-6, flow_id=7),
        ]
        with pytest.raises(ConfigurationError, match="flow_id 7"):
            sim.run(flows)
        assert telemetry.metrics.counter("fabric.flow_bytes_offered").total() == 0
        flows[1] = Flow(source=terminals[1], destination=terminals[-2],
                        size=1e6, start_time=1e-6, flow_id=8)
        assert [s.flow_id for s in sim.run(flows)] == [7, 8]

    def test_slowdown_is_one_when_alone(self, topology):
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        [stats] = sim.run([Flow(source=terminals[0], destination=terminals[-1], size=1e9)])
        assert stats.slowdown(DEFAULT_LINK_BANDWIDTH) == pytest.approx(1.0, rel=1e-6)


def cut_off_run(telemetry=None):
    """Flows on a two-tier fabric whose last terminal was cut off before
    the run: the two flows into it have no path and are dead on arrival."""
    topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
    t0, t1, t2, t3 = topology.terminals
    [leaf] = topology.graph.adj[t3]
    topology.graph.remove_edge(t3, leaf)
    flows = [
        Flow(source=t0, destination=t2, size=1e9, flow_id=1, tag="done"),
        Flow(source=t0, destination=t3, size=1e9, flow_id=2, tag="doa"),
        Flow(source=t1, destination=t3, size=2.5e8, start_time=2e-6,
             flow_id=3, tag="doa"),
    ]
    return FabricSimulator(topology, telemetry=telemetry).run(flows)


class TestFlowStatsContract:
    """The run loop's ``FlowStats`` behave like constructor-built ones:
    completed flows and flows dead on arrival."""

    @pytest.fixture
    def stats(self):
        stats = cut_off_run()
        assert sorted((s.tag, s.dropped) for s in stats) == [
            ("doa", True), ("doa", True), ("done", False),
        ]
        return stats

    def test_fields_are_frozen(self, stats):
        for record in stats:
            for field in dataclasses.fields(FlowStats):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, 0)

    def test_equal_to_a_constructor_built_twin(self, stats):
        for record in stats:
            twin = FlowStats(**dataclasses.asdict(record))
            assert record == twin and hash(record) == hash(twin)
            assert repr(record) == repr(twin)
            assert list(vars(record).items()) == list(vars(twin).items())
            assert pickle.dumps(record) == pickle.dumps(twin)
            assert pickle.loads(pickle.dumps(record)) == twin


class TestDeadOnArrival:
    """A flow with no path at admission is dropped, delivers nothing and
    is booked as lost, so the conservation ledger still balances."""

    def test_stats_deliver_nothing(self):
        dropped = {s.flow_id: s for s in cut_off_run() if s.dropped}
        assert sorted(dropped) == [2, 3]
        for stats in dropped.values():
            assert stats.delivered == 0.0 and stats.delivered_bytes == 0.0
            assert stats.finish_time == stats.start_time
            assert (stats.path_hops, stats.propagation_delay,
                    stats.extra_queueing) == (0, 0.0, 0.0)

    def test_counted_as_dropped_and_lost(self):
        telemetry = Telemetry()
        cut_off_run(telemetry)
        metrics = telemetry.metrics
        assert metrics.get("fabric.flows.dropped").value(tag="doa") == 2
        assert metrics.get("fabric.flow_bytes_lost").value(tag="doa") == 1.25e9
        assert metrics.get("fabric.flow_bytes").value(tag="done") == 1e9
        assert "doa" not in {
            labels["tag"]
            for labels in metrics.get("fabric.flow_bytes").label_sets()
        }
        dropped_spans = [
            span for span in telemetry.tracer.spans if span.args.get("dropped")
        ]
        assert [span.args["bytes"] for span in dropped_spans] == [0.0, 0.0]

    def test_conservation_ledger_balances(self):
        telemetry = Telemetry()
        stats = cut_off_run(telemetry)
        metrics = telemetry.metrics
        offered = metrics.get("fabric.flow_bytes_offered").total()
        assert offered == 2.25e9
        assert offered == (metrics.get("fabric.flow_bytes").total()
                           + metrics.get("fabric.flow_bytes_lost").total())
        checker = InvariantChecker()
        checker.check_fabric(stats)
        checker.check_telemetry(telemetry)
        checker.assert_clean()


class TestSharing:
    def test_two_flows_share_bottleneck(self, topology):
        """Two flows into the same terminal halve each other's rate."""
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        size = 1e9
        flows = [
            Flow(source=terminals[0], destination=terminals[-1], size=size),
            Flow(source=terminals[1], destination=terminals[-1], size=size),
        ]
        stats = sim.run(flows)
        for s in stats:
            assert s.completion_time >= 2 * size / DEFAULT_LINK_BANDWIDTH * 0.99

    def test_disjoint_flows_do_not_interact(self, topology):
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        size = 1e9
        flows = [
            Flow(source=terminals[0], destination=terminals[1], size=size),
            Flow(source=terminals[4], destination=terminals[5], size=size),
        ]
        stats = sim.run(flows)
        ideal = size / DEFAULT_LINK_BANDWIDTH
        for s in stats:
            assert s.completion_time == pytest.approx(
                ideal + s.propagation_delay, rel=1e-6
            )

    def test_staggered_arrivals(self, topology):
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        flows = [
            Flow(source=terminals[0], destination=terminals[1], size=1e9),
            Flow(source=terminals[2], destination=terminals[3], size=1e9, start_time=5.0),
        ]
        stats = {s.flow_id: s for s in sim.run(flows)}
        assert stats[flows[1].flow_id].start_time == 5.0
        assert stats[flows[1].flow_id].finish_time > 5.0


class TestConservation:
    @given(
        sizes=st.lists(
            st.floats(min_value=1e6, max_value=1e9), min_size=1, max_size=10
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_all_flows_complete_with_all_bytes(self, sizes):
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=4)
        terminals = topology.terminals
        sim = FabricSimulator(topology)
        flows = [
            Flow(
                source=terminals[i % 8],
                destination=terminals[(i + 5) % 8 + 8],
                size=size,
            )
            for i, size in enumerate(sizes)
        ]
        stats = sim.run(flows)
        assert len(stats) == len(flows)
        assert all(s.finish_time >= s.start_time for s in stats)

    def test_fct_never_beats_line_rate(self, topology):
        """No flow can finish faster than its size at line rate."""
        terminals = topology.terminals
        sim = FabricSimulator(topology, congestion=FlowBasedCongestionControl())
        flows = [
            Flow(source=terminals[i], destination=terminals[15 - i], size=1e8)
            for i in range(6)
        ]
        for s in sim.run(flows):
            assert s.completion_time >= s.size / DEFAULT_LINK_BANDWIDTH


class TestRouting:
    def test_valiant_routing_runs(self, topology):
        terminals = topology.terminals
        sim = FabricSimulator(topology, routing="valiant")
        stats = sim.run([Flow(source=terminals[0], destination=terminals[-1], size=1e8)])
        assert len(stats) == 1

    def test_unknown_routing_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            FabricSimulator(topology, routing="magic")

    def test_adaptive_rerouting_on_dragonfly(self):
        topology = build_topology("dragonfly", groups=4, routers_per_group=2, terminals=2)
        terminals = topology.terminals
        sim = FabricSimulator(topology, reroute_adaptively=True)
        flows = [
            Flow(source=terminals[i], destination=terminals[-1], size=50e6)
            for i in range(5)
        ]
        stats = sim.run(flows)
        assert len(stats) == 5


class TestInvalidInputs:
    """Bad flow and simulator inputs fail early, naming the field."""

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("source", {"source": ""}),
            ("source", {"source": None}),
            ("source", {"source": 3}),
            ("destination", {"destination": ""}),
            ("destination", {"destination": None}),
            ("size", {"size": "1e6"}),
            ("size", {"size": None}),
            ("size", {"size": -1.0}),
            ("start_time", {"start_time": "0"}),
            ("start_time", {"start_time": None}),
        ],
    )
    def test_flow_field_rejected(self, field, kwargs):
        arguments = {"source": "a", "destination": "b", "size": 1.0, **kwargs}
        with pytest.raises(ConfigurationError, match=field):
            Flow(**arguments)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("congestion", {"congestion": "flow"}),
            ("congestion", {"congestion": 1.0}),
            ("rng", {"rng": 5}),
            ("rng", {"rng": "seed"}),
            ("routing", {"routing": "adaptive"}),
            ("solver", {"solver": "indexed"}),
        ],
    )
    def test_simulator_field_rejected(self, topology, field, kwargs):
        with pytest.raises(ConfigurationError, match=field):
            FabricSimulator(topology, **kwargs)

    @pytest.mark.parametrize("size", [
        np.float32(1e6), np.float64(1e6), np.int64(10**6), 10**6,
    ])
    def test_numeric_scalars_are_accepted(self, topology, size):
        terminals = topology.terminals
        flow = Flow(source=terminals[0], destination=terminals[1], size=size,
                    start_time=np.float64(0.0))
        [stats] = FabricSimulator(topology).run([flow])
        assert stats.delivered_bytes == size and not stats.dropped

    @pytest.mark.parametrize("policy, name", [
        ("none", "none"), ("ecn", "ecn"), ("flow", "flow-based"),
    ])
    def test_every_named_policy_is_accepted(self, topology, policy, name):
        from repro.interconnect.congestion import congestion_policy

        simulator = FabricSimulator(
            topology, congestion=congestion_policy(policy),
            rng=RandomSource(seed=1),
        )
        assert simulator.congestion.name == name

    @pytest.mark.parametrize("bad", [None, "two-tier", {"graph": None}])
    def test_topology_must_be_a_topology(self, bad):
        with pytest.raises(ConfigurationError, match="topology"):
            FabricSimulator(bad)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "10", None])
    def test_max_iterations_must_be_a_positive_integer(self, topology, bad):
        terminals = topology.terminals
        flows = [Flow(source=terminals[0], destination=terminals[1], size=1e6)]
        with pytest.raises(ConfigurationError, match="max_iterations"):
            FabricSimulator(topology).run(flows, max_iterations=bad)


class TestDegradedFabricLedger:
    """On every sweep topology with one terminal cut off before the run,
    the flows into it are dropped at admission, every other flow
    completes, and offered bytes equal delivered plus lost bytes under
    every congestion policy."""

    @pytest.mark.parametrize("policy", ["none", "ecn", "flow"])
    @pytest.mark.parametrize("kind", ["dragonfly", "fat-tree", "hyperx",
                                      "torus", "two-tier"])
    def test_dropped_flows_balance_the_ledger(self, kind, policy):
        from repro.interconnect.congestion import congestion_policy
        from repro.sweep.targets import _FABRIC_TOPOLOGIES

        topology = build_topology(kind, **_FABRIC_TOPOLOGIES[kind])
        terminals = topology.terminals
        victim = terminals[-1]
        [switch] = topology.graph.adj[victim]
        topology.graph.remove_edge(victim, switch)
        flows = [
            Flow(source=terminals[index], destination=(
                victim if index % 3 == 0 else terminals[index + 1]
            ), size=1e6 * (1 + index), start_time=index * 1e-6, flow_id=index)
            for index in range(12)
        ]
        telemetry = Telemetry()
        stats = FabricSimulator(
            topology, congestion=congestion_policy(policy), telemetry=telemetry
        ).run(flows)
        dropped = {s.flow_id for s in stats if s.dropped}
        assert dropped == {0, 3, 6, 9}
        metrics = telemetry.metrics
        lost = metrics.get("fabric.flow_bytes_lost").total()
        assert lost == sum(flows[i].size for i in dropped)
        assert metrics.get("fabric.flow_bytes_offered").total() == (
            metrics.get("fabric.flow_bytes").total() + lost
        )
        checker = InvariantChecker()
        checker.check_fabric(stats)
        checker.check_telemetry(telemetry)
        checker.assert_clean()
