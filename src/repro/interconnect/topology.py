"""Network topology generators and structural metrics.

The paper (§II.B): "low-diameter networks such as dragonfly and HyperX
provide a path to low system latency and high global bandwidth." This module
builds those topologies (plus fat-tree, two-tier leaf/spine and torus
baselines) as :class:`~repro.interconnect.graph.Graph` objects wrapped in a
:class:`Topology` object that computes the structural metrics the paper
argues about: diameter, average shortest-path length, bisection bandwidth,
switch/link counts and a cost estimate split into electrical and optical
links.

Nodes are strings: switches are ``'s<index>'`` (with topology-specific
attributes) and terminals (compute endpoints) are ``'t<index>'``. Edges
carry a ``bandwidth`` (bytes/s), ``latency`` (s) and ``optical`` flag.

Every family builds through one entry point, :func:`build_topology`,
which takes a :class:`TopologySpec` (or its fields as keywords).
``terminals`` is the one terminal-count field: the endpoints per
attachment switch, whatever the family calls that switch.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.interconnect.graph import (
    Graph,
    average_shortest_path_length,
    diameter,
    kernighan_lin_bisection,
)

#: Default per-link bandwidth: a 200 Gbps link in bytes/s ("the
#: current-generation 200 Gbps links", §II.B).
DEFAULT_LINK_BANDWIDTH = 25e9
#: Default per-hop switch + wire latency.
DEFAULT_LINK_LATENCY = 300e-9
#: Electrical reach limit in metres at 56G PAM-4 signalling; links longer
#: than this must be optical (§II.B "increases in link speed have brought
#: reductions in electrical reach").
DEFAULT_ELECTRICAL_REACH = 3.0


class Topology:
    """A network topology with switches and terminal (compute) nodes.

    Wrapping a graph freezes it for good (:meth:`Graph.freeze`).
    """

    #: The canonical spec key of a topology that :func:`build_topology`
    #: built, ``None`` otherwise: the route cache shares searches and link
    #: maps between the topologies of one spec.
    _built_as: Optional[object] = None

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph
        self._switches = [n for n, d in graph.nodes(data=True) if d.get("role") == "switch"]
        self._terminals = [n for n, d in graph.nodes(data=True) if d.get("role") == "terminal"]
        if not self._switches:
            raise ConfigurationError(f"{name}: topology has no switches")
        graph.freeze()

    def __setstate__(self, state: dict) -> None:
        # A copied graph comes back editable; the topology's stays frozen.
        self.__dict__.update(state)
        self.graph.freeze()

    # --- structure ----------------------------------------------------------

    @property
    def switches(self) -> List[str]:
        return list(self._switches)

    @property
    def terminals(self) -> List[str]:
        return list(self._terminals)

    @property
    def switch_count(self) -> int:
        return len(self._switches)

    @property
    def terminal_count(self) -> int:
        return len(self._terminals)

    @property
    def link_count(self) -> int:
        """Switch-to-switch links (terminal attachments excluded)."""
        return sum(
            1
            for u, v in self.graph.edges()
            if self.graph.nodes[u].get("role") == "switch"
            and self.graph.nodes[v].get("role") == "switch"
        )

    def switch_graph(self) -> Graph:
        """The switch-only subgraph, its nodes in build order (Kernighan-Lin
        in ``bisection_bandwidth`` follows node order)."""
        return self.graph.subgraph(self._switches)

    def max_switch_degree(self) -> int:
        """Largest switch radix consumed (switch-to-switch + terminal ports)."""
        return max(self.graph.degree(s) for s in self._switches)

    # --- metrics ------------------------------------------------------------

    def diameter(self) -> int:
        """Hop diameter of the switch-only graph."""
        return diameter(self.switch_graph())

    def average_shortest_path(self) -> float:
        """Mean switch-to-switch hop count."""
        return average_shortest_path_length(self.switch_graph())

    def bisection_bandwidth(self) -> float:
        """Approximate worst-equal-cut bandwidth in bytes/s.

        Uses a Kernighan-Lin bisection of the switch graph (exact min-cut
        bisection is NP-hard); adequate for comparing topology families.
        """
        switch_graph = self.switch_graph()
        if switch_graph.number_of_nodes() < 2:
            return 0.0
        part_a, part_b = kernighan_lin_bisection(switch_graph, seed=7)
        crossing = 0.0
        for u, v, data in switch_graph.edges(data=True):
            if (u in part_a) != (v in part_a):
                crossing += data.get("bandwidth", DEFAULT_LINK_BANDWIDTH)
        return crossing

    def cost(
        self,
        switch_cost: float = 20_000.0,
        electrical_link_cost: float = 300.0,
        optical_link_cost: float = 2_000.0,
    ) -> float:
        """Total dollar cost: switches plus electrical/optical links.

        Optical links are an order of magnitude more expensive ("pressure to
        move to optical interconnect is increasing, but costs remain high").
        """
        cost = self.switch_count * switch_cost
        for u, v, data in self.graph.edges(data=True):
            if (
                self.graph.nodes[u].get("role") == "switch"
                and self.graph.nodes[v].get("role") == "switch"
            ):
                cost += optical_link_cost if data.get("optical") else electrical_link_cost
        return cost

    def cost_per_terminal(self, **kwargs: float) -> float:
        """Network cost divided by attached terminals."""
        if self.terminal_count == 0:
            raise ConfigurationError(f"{self.name}: no terminals attached")
        return self.cost(**kwargs) / self.terminal_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, switches={self.switch_count}, "
            f"terminals={self.terminal_count})"
        )


def _add_switch(graph: Graph, index: int, **attrs: object) -> str:
    node = f"s{index}"
    graph.add_node(node, role="switch", **attrs)
    return node


def _attach_terminals(
    graph: Graph,
    switch: str,
    count: int,
    start_index: int,
    bandwidth: float,
    latency: float,
) -> int:
    """Attach ``count`` terminals to a switch; returns next free index."""
    for offset in range(count):
        terminal = f"t{start_index + offset}"
        graph.add_node(terminal, role="terminal", attached_to=switch)
        graph.add_edge(
            terminal, switch, bandwidth=bandwidth, latency=latency, optical=False
        )
    return start_index + count


def _link(
    graph: Graph,
    u: str,
    v: str,
    bandwidth: float,
    latency: float,
    optical: bool,
) -> None:
    graph.add_edge(u, v, bandwidth=bandwidth, latency=latency, optical=optical)


def _dragonfly(
    groups: int,
    routers_per_group: int,
    terminals: int,
    link_bandwidth: float,
    link_latency: float,
    global_links_per_router: Optional[int],
) -> Topology:
    """A dragonfly (Kim et al., ISCA 2008 — the paper's ref [11]).

    Routers within a group are fully connected (electrical, short reach);
    groups are connected by optical global links distributed round-robin
    across routers. A balanced dragonfly has ``groups <= a*h + 1`` where
    ``a`` is routers/group and ``h`` global links per router.
    """
    if groups < 2 or routers_per_group < 1 or terminals < 1:
        raise ConfigurationError("dragonfly needs >=2 groups and >=1 router/terminal")
    h = global_links_per_router
    if h is None:
        h = max(1, math.ceil((groups - 1) / routers_per_group))
    if routers_per_group * h < groups - 1:
        raise ConfigurationError(
            f"dragonfly cannot reach all groups: a*h = {routers_per_group * h} "
            f"< groups-1 = {groups - 1}"
        )

    graph = Graph()
    routers: Dict[int, List[str]] = {}
    index = 0
    for group in range(groups):
        routers[group] = []
        for _ in range(routers_per_group):
            routers[group].append(_add_switch(graph, index, group=group))
            index += 1

    # Intra-group: full electrical mesh.
    for group_routers in routers.values():
        for u, v in itertools.combinations(group_routers, 2):
            _link(graph, u, v, link_bandwidth, link_latency, optical=False)

    # Inter-group: one optical link per group pair, assigned round-robin to
    # routers so global links spread across the group.
    assignment = {group: 0 for group in range(groups)}
    for ga, gb in itertools.combinations(range(groups), 2):
        ra = routers[ga][assignment[ga] % routers_per_group]
        rb = routers[gb][assignment[gb] % routers_per_group]
        assignment[ga] += 1
        assignment[gb] += 1
        _link(graph, ra, rb, link_bandwidth, link_latency * 2, optical=True)

    terminal_index = 0
    for group_routers in routers.values():
        for router in group_routers:
            terminal_index = _attach_terminals(
                graph, router, terminals, terminal_index,
                link_bandwidth, link_latency,
            )
    return Topology(f"dragonfly(g={groups},a={routers_per_group})", graph)


def _hyperx(
    dims: Tuple[int, ...],
    terminals: int,
    link_bandwidth: float,
    link_latency: float,
) -> Topology:
    """A HyperX (Ahn et al., SC 2009 — the paper's ref [12]).

    Switches sit on an integer lattice; along every dimension, all
    switches sharing the other coordinates are fully connected. Diameter
    equals the number of dimensions.
    """
    if not dims or any(d < 2 for d in dims):
        raise ConfigurationError("hyperx dims must each be >= 2")
    graph = Graph()
    coords = list(itertools.product(*(range(d) for d in dims)))
    switch_of: Dict[Tuple[int, ...], str] = {}
    for index, coordinate in enumerate(coords):
        switch_of[coordinate] = _add_switch(graph, index, coordinate=coordinate)

    for coordinate in coords:
        for axis in range(len(dims)):
            for other in range(coordinate[axis] + 1, dims[axis]):
                neighbour = list(coordinate)
                neighbour[axis] = other
                # Links along the highest dimension model longer (optical) reach.
                optical = axis == len(dims) - 1 and dims[axis] > 2
                _link(
                    graph,
                    switch_of[coordinate],
                    switch_of[tuple(neighbour)],
                    link_bandwidth,
                    link_latency * (2 if optical else 1),
                    optical=optical,
                )

    terminal_index = 0
    for coordinate in coords:
        terminal_index = _attach_terminals(
            graph, switch_of[coordinate], terminals, terminal_index,
            link_bandwidth, link_latency,
        )
    return Topology(f"hyperx{dims}", graph)


def _fat_tree(
    k: int,
    link_bandwidth: float,
    link_latency: float,
) -> Topology:
    """A k-ary fat-tree (classic 3-tier Clos), the datacenter baseline.

    ``k`` must be even: k pods, each with k/2 edge and k/2 aggregation
    switches; ``(k/2)^2`` core switches; ``k^3/4`` terminals.
    """
    if k < 2 or k % 2:
        raise ConfigurationError("fat-tree k must be even and >= 2")
    half = k // 2
    graph = Graph()
    index = 0

    core = []
    for _ in range(half * half):
        core.append(_add_switch(graph, index, tier="core"))
        index += 1

    terminal_index = 0
    for pod in range(k):
        edge = []
        aggregation = []
        for _ in range(half):
            aggregation.append(_add_switch(graph, index, tier="aggregation", pod=pod))
            index += 1
        for _ in range(half):
            edge.append(_add_switch(graph, index, tier="edge", pod=pod))
            index += 1
        for e in edge:
            for a in aggregation:
                _link(graph, e, a, link_bandwidth, link_latency, optical=False)
            terminal_index = _attach_terminals(
                graph, e, half, terminal_index, link_bandwidth, link_latency
            )
        for a_index, a in enumerate(aggregation):
            for c_offset in range(half):
                c = core[a_index * half + c_offset]
                _link(graph, a, c, link_bandwidth, link_latency * 2, optical=True)

    return Topology(f"fat-tree(k={k})", graph)


def _two_tier(
    leaves: int,
    spines: int,
    terminals: int,
    link_bandwidth: float,
    link_latency: float,
) -> Topology:
    """A leaf-spine Clos, the rack/row-scale building block of Figure 2."""
    if leaves < 1 or spines < 1:
        raise ConfigurationError("need at least one leaf and one spine")
    graph = Graph()
    index = 0
    leaf_nodes = []
    for _ in range(leaves):
        leaf_nodes.append(_add_switch(graph, index, tier="leaf"))
        index += 1
    spine_nodes = []
    for _ in range(spines):
        spine_nodes.append(_add_switch(graph, index, tier="spine"))
        index += 1
    for leaf in leaf_nodes:
        for spine in spine_nodes:
            _link(graph, leaf, spine, link_bandwidth, link_latency, optical=False)
    terminal_index = 0
    for leaf in leaf_nodes:
        terminal_index = _attach_terminals(
            graph, leaf, terminals, terminal_index,
            link_bandwidth, link_latency,
        )
    return Topology(f"leaf-spine({leaves}x{spines})", graph)


def _torus(
    dims: Tuple[int, ...],
    terminals: int,
    link_bandwidth: float,
    link_latency: float,
) -> Topology:
    """A k-ary n-cube torus, the classic pre-dragonfly HPC topology.

    High diameter but cheap, short, fully electrical links — the foil for
    the low-diameter argument.
    """
    if not dims or any(d < 2 for d in dims):
        raise ConfigurationError("torus dims must each be >= 2")
    graph = Graph()
    coords = list(itertools.product(*(range(d) for d in dims)))
    switch_of: Dict[Tuple[int, ...], str] = {}
    for index, coordinate in enumerate(coords):
        switch_of[coordinate] = _add_switch(graph, index, coordinate=coordinate)

    for coordinate in coords:
        for axis, size in enumerate(dims):
            neighbour = list(coordinate)
            neighbour[axis] = (coordinate[axis] + 1) % size
            u, v = switch_of[coordinate], switch_of[tuple(neighbour)]
            if not graph.has_edge(u, v):
                _link(graph, u, v, link_bandwidth, link_latency, optical=False)

    terminal_index = 0
    for coordinate in coords:
        terminal_index = _attach_terminals(
            graph, switch_of[coordinate], terminals, terminal_index,
            link_bandwidth, link_latency,
        )
    return Topology(f"torus{dims}", graph)


# --- unified entry point --------------------------------------------------------

#: Canonical topology kinds accepted by :func:`build_topology`.
TOPOLOGY_KINDS = ("dragonfly", "hyperx", "fat-tree", "two-tier", "torus")

_KIND_ALIASES = {
    "fat_tree": "fat-tree",
    "fattree": "fat-tree",
    "clos": "fat-tree",
    "two_tier": "two-tier",
    "leaf-spine": "two-tier",
    "leaf_spine": "two-tier",
    "leafspine": "two-tier",
}

#: Spec fields meaningful per kind (beyond the link parameters, which apply
#: everywhere). Setting any other field for that kind is an error.
_KIND_FIELDS = {
    "dragonfly": ("terminals", "groups", "routers_per_group",
                  "global_links_per_router"),
    "hyperx": ("terminals", "dims"),
    "fat-tree": ("k",),
    "two-tier": ("terminals", "leaves", "spines"),
    "torus": ("terminals", "dims"),
}

#: Per-kind defaults: what ``build_topology(kind)`` builds with no fields.
_KIND_DEFAULTS = {
    "dragonfly": {"terminals": 4, "groups": 9, "routers_per_group": 4,
                  "global_links_per_router": None},
    "hyperx": {"terminals": 4, "dims": (4, 4)},
    "fat-tree": {"k": 4},
    "two-tier": {"terminals": 8, "leaves": 8, "spines": 4},
    "torus": {"terminals": 1, "dims": (4, 4, 4)},
}


@dataclass(frozen=True)
class TopologySpec:
    """A declarative description of one topology scenario point.

    Only ``kind`` is required; every other field is optional and defaults
    to the family's entry in ``_KIND_DEFAULTS``. ``terminals`` is the unified
    endpoints-per-attachment-switch count (router for dragonfly, lattice
    switch for HyperX/torus, leaf for two-tier); fat-tree derives it from
    ``k`` and rejects an explicit value. Fields irrelevant to the chosen
    kind must stay unset.
    """

    kind: str
    terminals: Optional[int] = None
    groups: Optional[int] = None
    routers_per_group: Optional[int] = None
    global_links_per_router: Optional[int] = None
    dims: Optional[Tuple[int, ...]] = None
    k: Optional[int] = None
    leaves: Optional[int] = None
    spines: Optional[int] = None
    link_bandwidth: float = DEFAULT_LINK_BANDWIDTH
    link_latency: float = DEFAULT_LINK_LATENCY

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", normalize_topology_kind(self.kind))
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _whole(name, value))
        if self.terminals is not None and self.terminals < 1:
            raise ConfigurationError(
                f"topology terminals must be >= 1: {self.terminals}"
            )
        if self.dims is not None:
            if not isinstance(self.dims, (list, tuple)):
                raise ConfigurationError(
                    f"topology dims must be a sequence of whole numbers: "
                    f"{self.dims!r}"
                )
            object.__setattr__(
                self, "dims", tuple(_whole("dims", d) for d in self.dims)
            )
        # Checked here because every builder goes through a spec: a bad
        # link either fails mid-run ("no progress possible") or gives
        # negative completion times.
        if not (_real(self.link_bandwidth) and self.link_bandwidth > 0):
            raise ConfigurationError(
                "link_bandwidth must be positive and finite: "
                f"{self.link_bandwidth!r}"
            )
        if not (_real(self.link_latency) and self.link_latency >= 0):
            raise ConfigurationError(
                "link_latency must be non-negative and finite: "
                f"{self.link_latency!r}"
            )


#: Spec fields that count switches, links or endpoints.
_COUNT_FIELDS = ("terminals", "groups", "routers_per_group",
                 "global_links_per_router", "k", "leaves", "spines")


def _real(value: object) -> bool:
    """Whether ``value`` is a finite real number."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _whole(name: str, value: object) -> int:
    """``value`` as an ``int``; anything but a whole number raises naming
    ``name`` (a builder would otherwise truncate it or fail mid-build)."""
    if _real(value) and not isinstance(value, bool) and value == int(value):
        return int(value)
    raise ConfigurationError(
        f"topology {name} must be a whole number: {value!r}"
    )


def normalize_topology_kind(kind: str) -> str:
    """Canonical kind name (aliases resolved); unknown kinds raise."""
    name = _KIND_ALIASES.get(str(kind).strip().lower(),
                             str(kind).strip().lower())
    if name not in TOPOLOGY_KINDS:
        known = ", ".join(TOPOLOGY_KINDS)
        raise ConfigurationError(
            f"unknown topology kind {kind!r}; known kinds: {known}"
        )
    return name


def _spec_key(name: str, values: Dict[str, object]):
    return (
        name,
        tuple(
            (key, tuple(value) if isinstance(value, (list, tuple)) else value)
            for key, value in sorted(values.items())
        ),
    )


def build_topology(kind: Union[str, TopologySpec], **spec: object) -> Topology:
    """Build any topology family from one declarative description.

    ``kind`` is a family name (``'dragonfly'``, ``'hyperx'``,
    ``'fat-tree'``, ``'two-tier'``, ``'torus'``, or an alias such as
    ``'leaf-spine'``) or a ready :class:`TopologySpec`; keyword arguments
    override spec fields, e.g.
    ``build_topology("dragonfly", groups=6, terminals=4)``.
    """
    try:
        if isinstance(kind, TopologySpec):
            resolved = dataclasses.replace(kind, **spec) if spec else kind
        else:
            resolved = TopologySpec(kind=kind, **spec)
    except TypeError as error:
        raise ConfigurationError(f"bad topology parameters: {error}") from None
    name = resolved.kind
    allowed = _KIND_FIELDS[name]
    for field_name in ("terminals", "groups", "routers_per_group",
                       "global_links_per_router", "dims", "k", "leaves",
                       "spines"):
        if field_name not in allowed and getattr(resolved, field_name) is not None:
            raise ConfigurationError(
                f"{name} topology does not take {field_name!r}"
            )
    values = dict(_KIND_DEFAULTS[name])
    for field_name in allowed:
        given = getattr(resolved, field_name)
        if given is not None:
            values[field_name] = given
    values["link_bandwidth"] = resolved.link_bandwidth
    values["link_latency"] = resolved.link_latency
    builder = {
        "dragonfly": _dragonfly,
        "hyperx": _hyperx,
        "fat-tree": _fat_tree,
        "two-tier": _two_tier,
        "torus": _torus,
    }[name]
    built = builder(**values)
    built._built_as = _spec_key(name, values)
    return built

