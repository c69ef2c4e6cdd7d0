"""Experiment C2 — §II.B: low-diameter topologies.

"Low-diameter networks such as dragonfly and Hyper-X provide a path to low
system latency and high global bandwidth."

We build dragonfly, HyperX, fat-tree and torus instances at comparable
terminal counts and compare: diameter, average switch-to-switch hop count
(latency proxy), bisection bandwidth per dollar, and network cost per
terminal.

Expected shape: dragonfly/HyperX achieve diameter <= 3 (vs 6 for fat-tree's
3-tier Clos edge-to-edge and more for the torus) at competitive
cost/terminal; the torus is cheapest but its diameter (latency) grows with
machine size.

Ablation (DESIGN.md §4): adversarial-traffic worst link load under
minimal vs Valiant vs adaptive routing on the dragonfly.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.analysis.tables import Table
from repro.core.rng import RandomSource
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.routing import route_demands
from repro.interconnect.topology import build_topology


def build_instances():
    """Four topologies in the 120-160 terminal range."""
    return {
        "dragonfly": build_topology(
            "dragonfly", groups=9, routers_per_group=4, terminals=4
        ),  # 144 terminals
        "hyperx": build_topology("hyperx", dims=(6, 6), terminals=4),  # 144
        "fat-tree": build_topology("fat-tree", k=8),  # 128
        "torus": build_topology("torus", dims=(6, 6, 4), terminals=1),  # 144
    }


def uniform_mean_fct(topology, flows=60, seed=41):
    """Mean flow-completion time of uniform-random 10 MB flows — the
    dynamic (under-load) counterpart of the static hop metrics."""
    rng = RandomSource(seed=seed, name="c2-fct")
    terminals = topology.terminals
    flow_list = []
    for _ in range(flows):
        source, destination = rng.sample(terminals, 2)
        flow_list.append(Flow(source=source, destination=destination, size=10e6))
    stats = FabricSimulator(topology).run(flow_list)
    return float(np.mean([s.completion_time for s in stats]))


def run_experiment():
    rows = []
    for name, topology in build_instances().items():
        cost = topology.cost()
        rows.append(
            (
                name,
                topology.terminal_count,
                topology.switch_count,
                topology.diameter(),
                topology.average_shortest_path(),
                topology.bisection_bandwidth() / 1e12,
                topology.bisection_bandwidth() / 1e6 / cost,  # MB/s per $
                topology.cost_per_terminal(),
                uniform_mean_fct(topology) * 1e3,
            )
        )
    return rows


def routing_ablation():
    topology = build_topology("dragonfly", groups=6, routers_per_group=3, terminals=2)
    graph = topology.graph
    group_of = {
        t: graph.nodes[graph.nodes[t]["attached_to"]]["group"]
        for t in topology.terminals
    }
    group_a = [t for t, g in group_of.items() if g == 0]
    group_b = [t for t, g in group_of.items() if g == 1]
    demands = [(a, b, 1.0) for a, b in zip(group_a, group_b)]
    rows = []
    for algorithm in ("minimal", "valiant", "adaptive"):
        _, load = route_demands(topology, demands, algorithm=algorithm)
        switch_links = {
            key: value
            for key, value in load.items()
            if graph.nodes[key[0]].get("role") == "switch"
            and graph.nodes[key[1]].get("role") == "switch"
        }
        rows.append((algorithm, max(switch_links.values())))
    return rows


def test_c2_topology_comparison(record):
    rows = run_experiment()

    table = Table(
        "C2 (SII.B): topology family comparison at ~140 terminals",
        ["topology", "terminals", "switches", "diameter", "avg hops",
         "bisection (TB/s)", "bisection MB/s per $", "cost per terminal ($)",
         "uniform-traffic mean FCT (ms)"],
    )
    for row in rows:
        table.add_row(*row)

    ablation = routing_ablation()
    ablation_table = Table(
        "C2 ablation: adversarial group-to-group traffic, worst link load",
        ["routing", "max switch-link load"],
    )
    for row in ablation:
        ablation_table.add_row(*row)

    record(
        "C2_topology_comparison",
        table,
        notes=(
            "Paper claim: low-diameter networks (dragonfly, HyperX) give low\n"
            "latency and high global bandwidth. FCT column uses single-path\n"
            "minimal routing: the fat-tree's poor showing reflects its\n"
            "reliance on ECMP spreading, which dragonfly/HyperX need less.\n"
            "The torus trades its FCT showing for 4x the switch count (and\n"
            "cost) at equal terminals.\n\n" + ablation_table.render()
        ),
    )

    metrics = {row[0]: row for row in rows}
    assert metrics["dragonfly"][3] <= 3
    assert metrics["hyperx"][3] <= 2
    assert metrics["fat-tree"][3] > metrics["dragonfly"][3]
    assert metrics["torus"][3] > metrics["hyperx"][3]
    # Low-diameter families also have fewer average hops than the torus.
    assert metrics["dragonfly"][4] < metrics["torus"][4]
    # And the dynamic view agrees: mean FCT under uniform load is best on
    # the low-diameter families.
    assert metrics["hyperx"][8] <= metrics["torus"][8]
    assert metrics["dragonfly"][8] <= metrics["torus"][8] * 1.2
    # Valiant/adaptive must beat minimal on adversarial traffic.
    loads = dict(ablation)
    assert loads["valiant"] < loads["minimal"]
    assert loads["adaptive"] <= loads["minimal"]
