"""A fabric run's complete telemetry, pinned bit for bit.

:class:`~repro.interconnect.fabric.FabricSimulator` accumulates its
per-tag and per-link series in plain locals and publishes them once per
run.  These digests were taken from the per-event recording that came
before, so they pin the whole observable result: every metric's kind,
name, description and label-set order, the ``repr`` of every value
(histogram counts and sums included), and every tracer record in order.
``repro validate --check`` compares at ``rtol=1e-6`` and cannot see a
last-bit change; these can.

The shared-telemetry case uses non-integer flow sizes on two runs over
one :class:`~repro.observability.Telemetry`, so a series that restarted
from 0.0 in the second run and was added to the first run's total
afterwards would round differently from the same additions made in
order.  Its topology has a terminal cut off and two router links
removed before the runs, so flows to or from that terminal are dropped
at admission and others take longer routes.  (It ran on mid-run link
flaps until those were removed from the fabric; its digests were then
taken anew, from the code before that removal.)
"""

import hashlib
import itertools

import pytest

from repro import profiles
from repro.core.errors import SimulationError
from repro.core.rng import RandomSource
from repro.interconnect import fabric
from repro.interconnect.congestion import congestion_policy
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology
from repro.observability import Telemetry
from repro.sweep import named_sweep, run_sweep


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def registry_digest(telemetry: Telemetry) -> str:
    """Kind, name, description, label-set order and every value's repr."""
    parts = []
    for metric in telemetry.metrics:
        series = []
        for labels in metric.label_sets():
            if metric.kind == "histogram":
                value = (metric.counts(**labels), repr(metric.sum(**labels)))
            else:
                value = repr(metric.value(**labels))
            series.append((sorted(labels.items()), value))
        buckets = getattr(metric, "buckets", None)
        parts.append((metric.kind, metric.name, metric.description,
                      buckets, series))
    return _digest(parts)


def tracer_digest(telemetry: Telemetry) -> str:
    """Every span, instant and counter sample, in recording order."""
    tracer = telemetry.tracer
    return _digest([
        [repr(record) for record in tracer.spans],
        [repr(record) for record in tracer.instants],
        [repr(record) for record in tracer.counters],
    ])


@pytest.fixture(autouse=True)
def fresh_flow_ids(monkeypatch):
    """Flow ids come from a process-wide counter and land in span args."""
    monkeypatch.setattr(fabric, "_flow_ids", itertools.count())


def _traffic(topology, rng, run: int):
    """Mice between random pairs and an elephant incast on one terminal."""
    terminals = topology.terminals
    hot = terminals[-1]
    flows = []
    for index in range(48):
        source, destination = rng.sample(terminals[:-1], 2)
        if index % 4 == 0:
            destination, size, tag = hot, 1.2e7 * (1 + index * 0.0137), "elephant"
        else:
            size, tag = 1e5 * (1.37 + (index % 7) * 0.113) + run * 0.3, "mice"
        flows.append(Flow(source=source, destination=destination, size=size,
                          start_time=index * 2e-5, tag=tag))
    return flows


def shared_telemetry_runs() -> Telemetry:
    """Two runs on a degraded dragonfly, two tags and adaptive reroute
    on one Telemetry."""
    telemetry = Telemetry()
    topology = build_topology(
        "dragonfly", groups=4, routers_per_group=3, terminals=2
    )
    graph = topology.graph
    cut = topology.terminals[0]
    graph.remove_edge(cut, graph.nodes[cut]["attached_to"])
    graph.remove_edge("s1", "s6")
    graph.remove_edge("s2", "s9")
    simulator = FabricSimulator(
        topology, congestion=congestion_policy("flow"),
        reroute_adaptively=True, telemetry=telemetry,
    )
    rng = RandomSource(seed=5, name="run-telemetry")
    for run in range(2):
        simulator.run(_traffic(topology, rng, run))
    return telemetry


def max_iterations_run() -> Telemetry:
    """A C2-shaped run cut short: the partial totals are published."""
    telemetry = Telemetry()
    topology = build_topology(
        "dragonfly", groups=6, routers_per_group=4, terminals=4
    )
    rng = RandomSource(seed=17, name="c2-profile")
    flows = [
        Flow(source=source, destination=destination, size=4e6,
             start_time=index * 2e-4)
        for index, (source, destination) in enumerate(
            rng.sample(list(topology.terminals), 2) for _ in range(40)
        )
    ]
    simulator = FabricSimulator(topology, telemetry=telemetry)
    with pytest.raises(SimulationError, match="max_iterations"):
        simulator.run(flows, max_iterations=30)
    return telemetry


#: ``(registry_digest, tracer_digest)`` per case.
PINNED = {
    "C1": ("00698a881079e526", "ca8cd6e6c2135281"),
    "C2": ("58769508cd49d76d", "4f1f7317aab92d3b"),
    "shared": ("909463529c892ce8", "2f659acfa9e7d834"),
    "max_iterations": ("7edb924fb91a5704", "4af38abc226b4fa6"),
}

#: ``_digest`` of the merged ``collect_telemetry`` summary of the
#: 64-point congestion sweep (default seed), at any worker count.
SWEEP_SUMMARY = "8492aab1101a7098"


@pytest.mark.parametrize("case", ["C1", "C2"])
def test_profile_telemetry_is_pinned(case):
    telemetry = profiles.run(case).telemetry
    assert (registry_digest(telemetry), tracer_digest(telemetry)) \
        == PINNED[case]


def test_shared_telemetry_runs_are_pinned():
    telemetry = shared_telemetry_runs()
    for name in ("fabric.flows.dropped", "fabric.flow_bytes_lost",
                 "fabric.congestion_events"):
        assert telemetry.metrics.get(name).total() > 0, name
    assert {labels["tag"] for labels in
            telemetry.metrics.get("fabric.flow_bytes").label_sets()} \
        == {"mice", "elephant"}
    assert (registry_digest(telemetry), tracer_digest(telemetry)) \
        == PINNED["shared"]


def test_max_iterations_publishes_before_raising():
    telemetry = max_iterations_run()
    assert telemetry.metrics.get("fabric.link_bytes").total() > 0
    assert (registry_digest(telemetry), tracer_digest(telemetry)) \
        == PINNED["max_iterations"]


@pytest.mark.parametrize("workers", [1, 2])
def test_congestion_sweep_summary_is_pinned(workers):
    result = run_sweep(
        named_sweep("congestion"), workers=workers, collect_telemetry=True
    )
    assert result.ok
    assert _digest(result.telemetry) == SWEEP_SUMMARY
