"""Link/switch failure injection and topology resilience metrics.

Large fabrics run degraded all the time: optical links flap, switches get
drained for service. A topology family's value includes how gracefully it
degrades — low-diameter networks buy their small hop counts with path
diversity, which is exactly what failure tolerance consumes. This module
injects random link or switch failures into a
:class:`~repro.interconnect.topology.Topology` and measures:

* terminal connectivity (fraction of terminal pairs still connected),
* path stretch (average shortest-path inflation among surviving pairs),
* the disconnection threshold (failure fraction where connectivity first
  drops below a target).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.graph import (
    Graph,
    NetworkXNoPath,
    connected_components,
    shortest_path_length,
)
from repro.interconnect.topology import Topology

#: Seed behind every default rng in this module. All public functions accept
#: an explicit ``rng`` — pass a fork of the run seed for reproducible
#: experiments. When omitted, draws come from :func:`default_failure_rng`,
#: a per-purpose named fork of this one seed, so repeated calls are stable
#: and the purposes stay statistically independent.
DEFAULT_SEED = 1729


def default_failure_rng(purpose: str) -> RandomSource:
    """Named fork of the module default seed (see :data:`DEFAULT_SEED`)."""
    return RandomSource(seed=DEFAULT_SEED, name="failures").fork(purpose)


@dataclass(frozen=True)
class DegradedFabric:
    """A topology after failure injection."""

    topology: Topology
    failed_links: Tuple[Tuple[str, str], ...]
    failed_switches: Tuple[str, ...]

    @property
    def graph(self) -> Graph:
        return self.topology.graph


def fail_links(
    topology: Topology,
    fraction: float,
    rng: Optional[RandomSource] = None,
) -> DegradedFabric:
    """Remove a random fraction of switch-to-switch links.

    Terminal attachment links never fail here (a dead NIC is a node
    failure, not a fabric failure).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must be in [0, 1]")
    rng = rng or default_failure_rng("links")
    graph = topology.graph.copy()
    switch_links = [
        (u, v)
        for u, v in graph.edges()
        if graph.nodes[u].get("role") == "switch"
        and graph.nodes[v].get("role") == "switch"
    ]
    count = int(round(fraction * len(switch_links)))
    failed = rng.sample(switch_links, count) if count else []
    graph.remove_edges_from(failed)
    degraded = Topology(f"{topology.name}[-{count}links]", graph)
    return DegradedFabric(
        topology=degraded,
        failed_links=tuple(failed),
        failed_switches=(),
    )


def fail_switches(
    topology: Topology,
    count: int,
    rng: Optional[RandomSource] = None,
) -> DegradedFabric:
    """Remove ``count`` random switches (and everything attached to them)."""
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    rng = rng or default_failure_rng("switches")
    switches = topology.switches
    if count >= len(switches):
        raise ConfigurationError("cannot fail every switch")
    victims = rng.sample(switches, count) if count else []
    graph = topology.graph.copy()
    for switch in victims:
        # Terminals attached to a dead switch die with it.
        terminals = [
            n for n in graph.neighbors(switch)
            if graph.nodes[n].get("role") == "terminal"
        ]
        graph.remove_nodes_from(terminals)
        graph.remove_node(switch)
    degraded = Topology(f"{topology.name}[-{count}switches]", graph)
    return DegradedFabric(
        topology=degraded,
        failed_links=(),
        failed_switches=tuple(victims),
    )


def terminal_connectivity(fabric: DegradedFabric, sample: int = 200,
                          rng: Optional[RandomSource] = None) -> float:
    """Fraction of sampled surviving terminal pairs still connected.

    Convention for degenerate fabrics: exactly one surviving terminal is
    trivially connected (1.0 — there is nothing left to partition), while
    zero surviving terminals means the fabric is gone (0.0). This keeps a
    trivially-small fabric distinct from a fully-failed one.
    """
    rng = rng or default_failure_rng("connectivity")
    terminals = fabric.topology.terminals
    if len(terminals) == 0:
        return 0.0
    if len(terminals) == 1:
        return 1.0
    graph = fabric.graph
    components = list(connected_components(graph))
    component_of = {}
    for index, component in enumerate(components):
        for node in component:
            component_of[node] = index
    pairs = list(itertools.combinations(terminals, 2))
    if len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    connected = sum(
        1 for a, b in pairs if component_of.get(a) == component_of.get(b)
    )
    return connected / len(pairs)


def path_stretch(
    original: Topology,
    fabric: DegradedFabric,
    sample: int = 100,
    rng: Optional[RandomSource] = None,
) -> float:
    """Mean shortest-path inflation among still-connected sampled pairs.

    1.0 means failures cost no extra hops; higher values measure the
    detour tax. Pairs disconnected by the failures are excluded (they are
    counted by :func:`terminal_connectivity` instead).
    """
    rng = rng or default_failure_rng("stretch")
    terminals = [
        t for t in original.terminals if t in fabric.graph
    ]
    pairs = list(itertools.combinations(terminals, 2))
    if len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    stretches: List[float] = []
    for a, b in pairs:
        try:
            degraded_hops = shortest_path_length(fabric.graph, a, b)
        except NetworkXNoPath:
            continue
        original_hops = shortest_path_length(original.graph, a, b)
        if original_hops > 0:
            stretches.append(degraded_hops / original_hops)
    if not stretches:
        return float("inf")
    return sum(stretches) / len(stretches)


@dataclass(frozen=True)
class ConnectivityCurve:
    """Sampled terminal connectivity as link failures accumulate.

    Produced by :func:`connectivity_curve`: one random failure *order* is
    drawn, links are removed cumulatively, and the same sampled terminal
    pairs are re-tested at every step — so ``connectivity`` is monotone
    non-increasing by construction (removing a link can only disconnect
    more of a fixed pair set, never reconnect it).
    """

    fractions: Tuple[float, ...]
    connectivity: Tuple[float, ...]

    def threshold(self, target_connectivity: float) -> float:
        """Smallest sampled fraction with connectivity below target.

        Returns 1.0 if connectivity stays at or above target through the
        whole curve.
        """
        if not 0.0 < target_connectivity <= 1.0:
            raise ConfigurationError("target_connectivity must be in (0, 1]")
        for fraction, value in zip(self.fractions, self.connectivity):
            if value < target_connectivity:
                return fraction
        return 1.0


def connectivity_curve(
    topology: Topology,
    step: float = 0.05,
    sample: int = 200,
    rng: Optional[RandomSource] = None,
) -> ConnectivityCurve:
    """Sample terminal connectivity along one cumulative failure order.

    Shuffles the switch-to-switch links once, then removes them in that
    order, pausing at each multiple of ``step`` (starting at the intact
    fabric, fraction 0.0) to measure connectivity of a fixed terminal-pair
    sample. One draw of the failure process serves the whole curve, so
    successive points share their failures instead of being independent
    re-rolls — the curve cannot wiggle upward.
    """
    if not 0.0 < step <= 0.5:
        raise ConfigurationError("step must be in (0, 0.5]")
    rng = rng or default_failure_rng("threshold")
    graph = topology.graph.copy()
    switch_links = [
        (u, v)
        for u, v in graph.edges()
        if graph.nodes[u].get("role") == "switch"
        and graph.nodes[v].get("role") == "switch"
    ]
    order = list(switch_links)
    rng.fork("order").shuffle(order)
    terminals = topology.terminals
    pairs = list(itertools.combinations(terminals, 2))
    if len(pairs) > sample:
        pairs = rng.fork("pairs").sample(pairs, sample)
    fractions: List[float] = []
    connectivity: List[float] = []
    removed = 0
    steps = int(round(1.0 / step))
    for index in range(0, steps + 1):
        fraction = min(index * step, 1.0)
        target_removed = int(round(fraction * len(order)))
        while removed < target_removed:
            graph.remove_edge(*order[removed])
            removed += 1
        component_of = {}
        for comp_index, component in enumerate(connected_components(graph)):
            for node in component:
                component_of[node] = comp_index
        if pairs:
            connected = sum(
                1 for a, b in pairs
                if component_of.get(a) == component_of.get(b)
            )
            connectivity.append(connected / len(pairs))
        else:
            # Degenerate fabrics follow the terminal_connectivity convention:
            # one terminal is trivially connected, zero means nothing is left.
            connectivity.append(1.0 if len(terminals) == 1 else 0.0)
        fractions.append(fraction)
    return ConnectivityCurve(
        fractions=tuple(fractions), connectivity=tuple(connectivity)
    )


def disconnection_threshold(
    topology: Topology,
    target_connectivity: float = 0.99,
    step: float = 0.05,
    rng: Optional[RandomSource] = None,
) -> float:
    """Smallest failed-link fraction where connectivity drops below target.

    A thin wrapper over :func:`connectivity_curve` — failures accumulate
    across steps along one sampled order, so the underlying curve is
    monotone and the threshold is well defined (no fresh fabric re-roll per
    step that could let connectivity bounce back above target). Returns 1.0
    if the topology survives every step up to full failure (practically
    impossible for real targets). Call :func:`connectivity_curve` directly
    to inspect the curve the threshold came from.
    """
    if not 0.0 < target_connectivity <= 1.0:
        raise ConfigurationError("target_connectivity must be in (0, 1]")
    curve = connectivity_curve(topology, step=step, rng=rng)
    return curve.threshold(target_connectivity)
