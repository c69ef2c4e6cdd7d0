"""The max-min definition, checked on every epoch of real fabric runs.

The property suite checks the definition on random epochs.  Here the
fabric's rates step asserts it on every epoch of a synchronized 200-flow
dragonfly burst with adaptive rerouting, of the fabric epochs of the C1
and C2 profiles, and of a congestion-sweep point.  It checks the
epoch's max-min rates before any congestion-policy adjustment: the
solver's on a contended epoch, each path's bottleneck on an epoch in
which no link has two users (those call no solver).
"""

from collections import Counter

import pytest

from repro import profiles
from repro.core.rng import RandomSource
from repro.interconnect import fabric
from repro.interconnect.congestion import congestion_policy
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.ratesolver import IndexedSolver
from repro.interconnect.topology import build_topology
from repro.observability import Telemetry
from repro.sweep.targets import fabric_congestion
from tests.interconnect._maxmin import assert_max_min_fair


@pytest.fixture
def epochs(monkeypatch):
    """Every fabric epoch checks the definition; counts epochs, contended
    epochs and solves."""
    counts = Counter()
    set_rates = fabric._Epoch.set_rates

    def checking_set_rates(epoch):
        set_rates(epoch)
        assert_max_min_fair(
            epoch.capacities, epoch.flow_links, epoch.fair_rates
        )
        counts["epochs"] += 1
        traversals = sum(map(len, epoch.flow_links.values()))
        if len(set().union(*epoch.flow_links.values())) < traversals:
            counts["contended"] += 1

    class CountingSolver(IndexedSolver):
        def solve(self, flow_links, remaining_bytes=None):
            counts["solves"] += 1
            return super().solve(flow_links, remaining_bytes)

    monkeypatch.setattr(fabric._Epoch, "set_rates", checking_set_rates)
    monkeypatch.setattr(fabric, "IndexedSolver", CountingSolver)
    return counts


def test_every_epoch_of_a_200_flow_burst_is_max_min_fair(epochs):
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
    assert epochs["contended"] > 100, epochs


@pytest.mark.parametrize(
    "profile, shares_links", [("C1", True), ("C2", False)]
)
def test_every_fabric_epoch_of_the_profile_is_max_min_fair(
    epochs, profile, shares_links
):
    # C1's incast shares links; C2's flows, 200 us apart, barely overlap.
    profiles.run(profile)
    assert epochs["epochs"] > 0
    assert epochs["contended"] > 0 or not shares_links
    if not shares_links:
        assert epochs["solves"] < epochs["epochs"], epochs


def test_every_epoch_of_a_congestion_sweep_point_is_max_min_fair(epochs):
    fabric_congestion(
        {"topology": "dragonfly", "congestion": "flow-adaptive",
         "load": 0.95, "flows": 256},
        Telemetry(), RandomSource(seed=424242, name="maxmin-point"),
    )
    assert epochs["contended"] > 0, epochs
    assert 0 < epochs["solves"] < epochs["epochs"], epochs
