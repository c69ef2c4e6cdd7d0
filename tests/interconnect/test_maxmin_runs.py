"""The max-min definition, checked on every epoch of real fabric runs.

The property suite checks the definition on random epochs.  Here a
solver that wraps the fabric's own asserts it on every solve of a
synchronized 200-flow dragonfly burst with adaptive rerouting, and of the
fabric epochs of the C1 and C2 profiles, on the rates the solver hands
back before any congestion-policy adjustment.
"""

import pytest

from repro import profiles
from repro.core.rng import RandomSource
from repro.interconnect import fabric
from repro.interconnect.congestion import congestion_policy
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.ratesolver import IndexedSolver
from repro.interconnect.topology import build_topology
from tests.interconnect._maxmin import assert_max_min_fair


class DefinitionCheckingSolver(IndexedSolver):
    """The fabric's solver, asserting the definition on each result."""

    instances = []

    def __init__(self):
        super().__init__()
        self.epochs = 0
        self.contended = 0
        DefinitionCheckingSolver.instances.append(self)

    def solve(self, flow_links, remaining_bytes=None):
        rates, saturated = super().solve(flow_links, remaining_bytes)
        assert_max_min_fair(self._capacities, flow_links, rates)
        self.epochs += 1
        traversals = sum(map(len, flow_links.values()))
        if len(set().union(*flow_links.values())) < traversals:
            self.contended += 1
        return rates, saturated


@pytest.fixture
def checking_solvers(monkeypatch):
    """Every solver a fabric builds by default checks the definition."""
    monkeypatch.setattr(DefinitionCheckingSolver, "instances", [])
    monkeypatch.setattr(fabric, "IndexedSolver", DefinitionCheckingSolver)
    return DefinitionCheckingSolver.instances


def test_every_epoch_of_a_200_flow_burst_is_max_min_fair(checking_solvers):
    topology = build_topology(
        "dragonfly", groups=8, routers_per_group=4, terminals=2
    )
    rng = RandomSource(seed=3, name="maxmin-burst")
    terminals = list(topology.terminals)
    flows = []
    for index in range(200):
        source, destination = rng.sample(terminals, 2)
        flows.append(Flow(
            source=source, destination=destination, size=2e6,
            start_time=index * 1e-6, flow_id=index,
        ))
    simulator = FabricSimulator(
        topology, congestion=congestion_policy("flow"),
        reroute_adaptively=True,
    )
    stats = simulator.run(flows)
    assert len(stats) == 200
    (solver,) = checking_solvers
    assert solver.contended > 100, (solver.epochs, solver.contended)


@pytest.mark.parametrize(
    "profile, shares_links", [("C1", True), ("C2", False)]
)
def test_every_fabric_epoch_of_the_profile_is_max_min_fair(
    checking_solvers, profile, shares_links
):
    # C1's incast shares links; C2's flows, 200 us apart, barely overlap.
    profiles.run(profile)
    assert sum(solver.epochs for solver in checking_solvers) > 0
    contended = sum(solver.contended for solver in checking_solvers)
    assert contended > 0 or not shares_links
