"""Epochs in which no link has two users skip the rate solve.

The fabric counts each link's users per traversal and keeps each flow's
path bottleneck as flows arrive, finish and reroute.  When no link
has two users, max-min fairness gives every flow its path's smallest
capacity, so the epoch takes those bottlenecks as its rates and calls no
solver.  The property below checks that against the definition and the
reference solver; the digests pin whole runs that move between solved
and unsolved epochs to the ``FlowStats`` the fabric gave before it kept
any count: a Valiant detour that crosses one link twice, and a run after
an in-place ``bandwidth`` edit.
"""

import hashlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RandomSource
from repro.interconnect import fabric
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.graph import DiGraph, Graph
from repro.interconnect.ratesolver import IndexedSolver, ReferenceSolver
from repro.interconnect.topology import Topology, build_topology
from tests.interconnect._maxmin import assert_max_min_fair


def stats_digest(stats) -> str:
    return hashlib.sha256(repr(stats).encode()).hexdigest()[:16]


class CountingSolver(IndexedSolver):
    """The fabric's solver, counting its solves by epoch size."""

    def __init__(self):
        super().__init__()
        self.solves = []

    def solve(self, flow_links, remaining_bytes=None):
        self.solves.append(len(flow_links))
        return super().solve(flow_links, remaining_bytes)


# --- pinned runs ---------------------------------------------------------------


def _add_link(graph, u, v, bandwidth):
    graph.add_edge(u, v, bandwidth=bandwidth, latency=1e-6, optical=False)


def directed_ring():
    """Four switches in a one-way ring, a terminal on each: a Valiant
    detour past its destination goes round again, so it crosses the
    link out of its source switch twice."""
    graph = DiGraph()
    for index in range(4):
        graph.add_node(f"s{index}", role="switch")
    for index in range(4):
        switch, terminal = f"s{index}", f"t{index}"
        graph.add_node(terminal, role="terminal", attached_to=switch)
        _add_link(graph, terminal, switch, 40e9)
        _add_link(graph, switch, terminal, 40e9)
        _add_link(graph, switch, f"s{(index + 1) % 4}", 10e9 + 5e9 * index)
    return Topology(name="directed-ring", graph=graph)


def valiant_run(solver=None):
    """(a) Valiant routing over the ring, one flow at a time."""
    simulator = FabricSimulator(
        directed_ring(), routing="valiant", solver=solver,
        rng=RandomSource(seed=5, name="valiant-ring"),
    )
    flows = [
        Flow(f"t{index % 4}", f"t{(index + 1 + index // 4) % 4}", 1e8,
             start_time=index * 2e-2, flow_id=index)
        for index in range(12)
    ]
    return simulator.run(flows)


def edited_bandwidth_runs(solver=None):
    """(b) Two runs of one simulator; between them a link the second
    run's flow crosses has its ``bandwidth`` halved in place."""
    topology = build_topology("two-tier", leaves=4, spines=2, terminals=2)
    simulator = FabricSimulator(topology, solver=solver)
    terminals = topology.terminals

    def flows():
        return [
            Flow(terminals[0], terminals[7], 5e8, start_time=0.0, flow_id=0),
            Flow(terminals[2], terminals[5], 5e8, start_time=0.01, flow_id=1),
        ]

    first = simulator.run(flows())
    leaf = topology.graph.nodes[terminals[0]]["attached_to"]
    spine = simulator._route_cache.minimal_route(terminals[0], terminals[7])[2]
    topology.graph.edges[leaf, spine]["bandwidth"] /= 2
    return first, simulator.run(flows())


@pytest.fixture
def epochs(monkeypatch):
    """Counts every fabric epoch's rates step."""
    counts = Counter()
    set_rates = fabric._Epoch.set_rates

    def counting_set_rates(epoch):
        counts["epochs"] += 1
        set_rates(epoch)

    monkeypatch.setattr(fabric._Epoch, "set_rates", counting_set_rates)
    return counts


def test_valiant_run_is_pinned(epochs):
    solver = CountingSolver()
    assert stats_digest(valiant_run(solver)) == "5ebc131d06bbe40c"
    # Every epoch holds one flow: those solved cross a link twice.
    assert set(solver.solves) == {1}
    assert len(solver.solves) < epochs["epochs"], (solver.solves, epochs)


def test_runs_after_an_in_place_bandwidth_edit_are_pinned():
    first, second = edited_bandwidth_runs()
    assert (stats_digest(first), stats_digest(second)) == (
        "bb62f5069baa9b03", "419f6d82530df1e2",
    )


# --- the definition on link-disjoint flow sets -------------------------------

BANDWIDTHS = st.sampled_from((10e9, 25e9, 40e9)) | st.floats(
    min_value=1e9, max_value=100e9
)


@st.composite
def disjoint_workloads(draw):
    """Lines of switches between two terminals, some through one shared
    hub switch, with at most one flow each way along a line: no two
    flows share a directed link, though opposing flows share edges and
    lines share the hub."""
    graph = Graph()
    graph.add_node("hub", role="switch")
    flows = []
    for line in range(draw(st.integers(1, 5))):
        hops = draw(st.integers(1, 3))
        switches = [f"s{line}.{index}" for index in range(hops)]
        if draw(st.booleans()):
            switches.insert(draw(st.integers(0, hops)), "hub")
        for switch in switches:
            graph.add_node(switch, role="switch")
        ends = (f"a{line}", f"b{line}")
        for terminal in ends:
            graph.add_node(terminal, role="terminal")
        chain = [ends[0], *switches, ends[1]]
        for u, v in zip(chain, chain[1:]):
            _add_link(graph, u, v, draw(BANDWIDTHS))
        for source, destination in (ends, ends[::-1]):
            if draw(st.booleans()):
                flows.append(Flow(
                    source, destination,
                    draw(st.floats(min_value=1e5, max_value=1e9)),
                    start_time=draw(st.sampled_from((0.0, 1e-3, 2e-2))),
                    flow_id=len(flows),
                ))
    if not flows:
        flows.append(Flow("a0", "b0", 1e6, flow_id=0))
    return Topology(name="disjoint-lines", graph=graph), flows


class RefusingSolver(ReferenceSolver):
    def solve(self, flow_links, remaining_bytes=None):
        raise AssertionError("a link-disjoint epoch called the solver")


@settings(max_examples=60, deadline=None)
@given(disjoint_workloads())
def test_disjoint_epochs_take_each_path_bottleneck(workload):
    topology, flows = workload
    seen = []
    set_rates = fabric._Epoch.set_rates

    def checking_set_rates(epoch):
        set_rates(epoch)
        capacities = epoch.capacities
        flow_links = epoch.flow_links
        bottlenecks = {
            flow_id: min(capacities[link] for link in links)
            for flow_id, links in flow_links.items()
        }
        reference = ReferenceSolver()
        reference.bind(capacities)
        assert epoch.rates == bottlenecks
        assert reference.solve(dict(flow_links)) == (bottlenecks, set())
        assert_max_min_fair(capacities, flow_links, epoch.fair_rates)
        assert not epoch.saturated and not epoch.hot_exposure
        seen.append(len(flow_links))

    with mock.patch.object(fabric._Epoch, "set_rates", checking_set_rates):
        stats = FabricSimulator(topology, solver=RefusingSolver()).run(flows)
    assert sorted(s.flow_id for s in stats) == list(range(len(flows)))
    assert seen and not any(s.dropped for s in stats)
