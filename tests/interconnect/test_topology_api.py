"""Tests for build_topology, the one topology constructor."""

import networkx as nx
import pytest

from repro.core.errors import ConfigurationError
from repro.interconnect.topology import (
    TOPOLOGY_KINDS,
    TopologySpec,
    build_topology,
    normalize_topology_kind,
)


def _same_topology(a, b) -> bool:
    return (
        a.name == b.name
        and sorted(a.graph.nodes()) == sorted(b.graph.nodes())
        and nx.utils.graphs_equal(a.graph, b.graph)
        and a.terminals == b.terminals
    )


#: (switches, terminals, switch-to-switch links) of ``build_topology(kind)``.
DEFAULT_COUNTS = {
    "dragonfly": (36, 144, 90),
    "hyperx": (16, 64, 48),
    "fat-tree": (20, 16, 32),
    "two-tier": (12, 64, 32),
    "torus": (64, 64, 192),
}


class TestDefaults:
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_default_counts_are_pinned(self, kind):
        topology = build_topology(kind)
        assert (
            topology.switch_count, topology.terminal_count, topology.link_count
        ) == DEFAULT_COUNTS[kind]


class TestKindNormalisation:
    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [
            ("fat_tree", "fat-tree"),
            ("fattree", "fat-tree"),
            ("clos", "fat-tree"),
            ("leaf-spine", "two-tier"),
            ("two_tier", "two-tier"),
            ("Dragonfly", "dragonfly"),
            (" torus ", "torus"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_topology_kind(alias) == canonical

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ConfigurationError, match="dragonfly"):
            normalize_topology_kind("mesh")


class TestFieldValidation:
    def test_irrelevant_field_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take"):
            build_topology("fat-tree", groups=4)

    def test_fat_tree_rejects_terminals(self):
        with pytest.raises(ConfigurationError):
            build_topology("fat-tree", terminals=4)

    def test_unknown_parameter_rejected(self):
        for kind in ("dragonfly", TopologySpec(kind="dragonfly")):
            with pytest.raises(ConfigurationError, match="bad topology parameters"):
                build_topology(kind, wings=2)

    def test_old_terminal_spelling_rejected(self):
        with pytest.raises(ConfigurationError, match="bad topology parameters"):
            build_topology("dragonfly", terminals_per_router=4)


#: Link parameters every builder must reject, with the field each names.
BAD_LINKS = [
    ("link_bandwidth", 0.0),
    ("link_bandwidth", -1e9),
    ("link_bandwidth", float("nan")),
    ("link_bandwidth", float("inf")),
    ("link_latency", -1e-3),
    ("link_latency", float("nan")),
    ("link_latency", float("inf")),
]


class TestLinkValidation:
    """Bad links fail at build time, naming the field, not mid-run."""

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    @pytest.mark.parametrize("field,value", BAD_LINKS)
    def test_build_topology_rejects(self, kind, field, value):
        with pytest.raises(ConfigurationError, match=field):
            build_topology(kind, **{field: value})

    @pytest.mark.parametrize("field,value", BAD_LINKS)
    def test_spec_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TopologySpec(kind="torus", **{field: value})

    @pytest.mark.parametrize("field,value", BAD_LINKS)
    def test_spec_override_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            build_topology(TopologySpec(kind="dragonfly"), **{field: value})

    def test_zero_latency_allowed(self):
        topology = build_topology("two-tier", link_latency=0.0)
        _, _, data = next(iter(topology.graph.edges(data=True)))
        assert data["latency"] == 0.0


class TestTopologySpec:
    def test_spec_builds(self):
        spec = TopologySpec(kind="two-tier", leaves=4, spines=2, terminals=4)
        assert _same_topology(
            build_topology(spec),
            build_topology("two-tier", leaves=4, spines=2, terminals=4),
        )

    def test_spec_normalises_kind_and_dims(self):
        spec = TopologySpec(kind="leaf_spine")
        assert spec.kind == "two-tier"
        spec = TopologySpec(kind="hyperx", dims=[3, 3])
        assert spec.dims == (3, 3)

    def test_spec_with_overrides(self):
        spec = TopologySpec(kind="dragonfly", groups=6)
        bigger = build_topology(spec, groups=9)
        assert _same_topology(bigger, build_topology("dragonfly", groups=9))

    def test_link_parameters_flow_through(self):
        topology = build_topology("two-tier", link_bandwidth=1e9, link_latency=1e-6)
        _, _, data = next(iter(topology.graph.edges(data=True)))
        assert data["bandwidth"] == 1e9
        assert data["latency"] == 1e-6
