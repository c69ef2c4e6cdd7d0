"""Experiment C1 — §II.B: flow-based congestion management at scale.

"Slingshot tackles congestion management at scale for the first time. It
uses a novel flow-based approach in which congesting flows are identified
and network hardware applies selective back pressure. ... a focus on
sustained performance under load — with global bandwidth and tail latency
the key metrics."

Workload: an elephant incast congests one endpoint of a dragonfly while
latency-sensitive mice ("victims") traverse the hot switch. We sweep the
incast degree and report victim p99 FCT and aggressor goodput under three
policies: none, ECN-style endpoint control, and flow-based selective
backpressure.

Expected shape: victim p99 — none >> ecn > flow-based (3-10x between the
extremes), aggressor goodput roughly preserved by flow-based CM.

Ablation (DESIGN.md §4): the incast-degree sweep doubles as the load
ablation; the ECN row is the "standards are expected to emerge" baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import Table
from repro.interconnect.congestion import (
    EcnCongestionControl,
    FlowBasedCongestionControl,
    NoCongestionControl,
)
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology

POLICIES = (
    NoCongestionControl(),
    EcnCongestionControl(),
    FlowBasedCongestionControl(),
)
INCAST_DEGREES = (4, 8, 16)


def incast_workload(topology, aggressors):
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
    for index, source in enumerate(same_router):
        flows.append(
            Flow(
                source=source,
                destination=far[-(index + 1)],
                size=64e3,
                start_time=1e-3,
                tag="victim",
            )
        )
    return flows


def run_experiment():
    topology = build_topology("dragonfly", groups=6, routers_per_group=4, terminals=4)
    rows = []
    for degree in INCAST_DEGREES:
        for policy in POLICIES:
            flows = incast_workload(topology, degree)
            stats = FabricSimulator(topology, congestion=policy).run(flows)
            victims = [s.completion_time for s in stats if s.tag == "victim"]
            aggressors = [s for s in stats if s.tag == "aggressor"]
            goodput = sum(s.size for s in aggressors) / max(
                s.finish_time for s in aggressors
            )
            rows.append(
                (
                    degree,
                    policy.name,
                    float(np.percentile(victims, 99)) * 1e6,
                    float(np.mean(victims)) * 1e6,
                    goodput / 1e9,
                )
            )
    return rows


def test_c1_congestion_management(record):
    rows = run_experiment()

    table = Table(
        "C1 (SII.B): victim tail latency under incast, by congestion policy",
        ["incast degree", "policy", "victim p99 (us)", "victim mean (us)",
         "aggressor goodput (GB/s)"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C1_congestion_management",
        table,
        notes=(
            "Paper claim: flow-based CM identifies congesting flows and\n"
            "applies selective backpressure, preserving victim tail latency\n"
            "under load. Expected: none >> ecn > flow-based on victim p99."
        ),
    )

    by_key = {(degree, policy): p99 for degree, policy, p99, _, _ in rows}
    for degree in INCAST_DEGREES:
        assert by_key[(degree, "none")] > by_key[(degree, "ecn")]
        assert by_key[(degree, "ecn")] > by_key[(degree, "flow-based")]
        assert by_key[(degree, "none")] / by_key[(degree, "flow-based")] > 3.0
