"""Tests for the unified build_topology API and its legacy wrappers."""

import networkx as nx
import pytest

from repro.core.errors import ConfigurationError
from repro.interconnect.topology import (
    TOPOLOGY_KINDS,
    TopologySpec,
    build_dragonfly,
    build_fat_tree,
    build_hyperx,
    build_topology,
    build_torus,
    build_two_tier,
    normalize_topology_kind,
)


def _same_topology(a, b) -> bool:
    return (
        a.name == b.name
        and sorted(a.graph.nodes()) == sorted(b.graph.nodes())
        and nx.utils.graphs_equal(a.graph, b.graph)
        and a.terminals == b.terminals
    )


class TestLegacyEquivalence:
    """Every legacy builder call builds exactly what build_topology builds."""

    def test_dragonfly(self):
        legacy = build_dragonfly(groups=6, routers_per_group=4, terminals_per_router=2)
        unified = build_topology(
            "dragonfly", groups=6, routers_per_group=4, terminals=2
        )
        assert _same_topology(legacy, unified)

    def test_hyperx(self):
        legacy = build_hyperx(dims=(3, 4), terminals_per_switch=2)
        unified = build_topology("hyperx", dims=(3, 4), terminals=2)
        assert _same_topology(legacy, unified)

    def test_fat_tree(self):
        assert _same_topology(build_fat_tree(k=6), build_topology("fat-tree", k=6))

    def test_two_tier(self):
        legacy = build_two_tier(leaves=6, spines=3, terminals_per_leaf=4)
        unified = build_topology("two-tier", leaves=6, spines=3, terminals=4)
        assert _same_topology(legacy, unified)

    def test_torus(self):
        legacy = build_torus(dims=(3, 3), terminals_per_switch=2)
        unified = build_topology("torus", dims=(3, 3), terminals=2)
        assert _same_topology(legacy, unified)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_defaults_match_legacy_defaults(self, kind):
        legacy = {
            "dragonfly": build_dragonfly,
            "hyperx": build_hyperx,
            "fat-tree": build_fat_tree,
            "two-tier": build_two_tier,
            "torus": build_torus,
        }[kind]()
        assert _same_topology(legacy, build_topology(kind))


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


class TestTerminalAliases:
    def test_legacy_spellings_accepted(self):
        a = build_topology("dragonfly", groups=6, terminals_per_router=2)
        b = build_topology("dragonfly", groups=6, terminals=2)
        assert _same_topology(a, b)

    def test_conflicting_terminal_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicting"):
            build_topology("dragonfly", terminals=2, terminals_per_router=4)

    def test_agreeing_duplicates_tolerated(self):
        topology = build_topology("torus", terminals=2, terminals_per_switch=2)
        assert topology.terminal_count > 0


class TestFieldValidation:
    def test_irrelevant_field_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take"):
            build_topology("fat-tree", groups=4)

    def test_fat_tree_rejects_terminals(self):
        with pytest.raises(ConfigurationError):
            build_topology("fat-tree", terminals=4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="bad topology parameters"):
            build_topology("dragonfly", wings=2)


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
    def test_legacy_wrapper_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            build_dragonfly(**{field: value})

    @pytest.mark.parametrize("field,value", BAD_LINKS)
    def test_spec_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TopologySpec(kind="torus", **{field: value})

    def test_zero_latency_allowed(self):
        topology = build_topology("two-tier", link_latency=0.0)
        _, _, data = next(iter(topology.graph.edges(data=True)))
        assert data["latency"] == 0.0


class TestTopologySpec:
    def test_spec_builds(self):
        spec = TopologySpec(kind="two-tier", leaves=4, spines=2, terminals=4)
        assert _same_topology(
            spec.build(), build_two_tier(leaves=4, spines=2, terminals_per_leaf=4)
        )

    def test_spec_normalises_kind_and_dims(self):
        spec = TopologySpec(kind="leaf_spine")
        assert spec.kind == "two-tier"
        spec = TopologySpec(kind="hyperx", dims=[3, 3])
        assert spec.dims == (3, 3)

    def test_spec_with_overrides(self):
        spec = TopologySpec(kind="dragonfly", groups=6)
        bigger = build_topology(spec, groups=9)
        assert _same_topology(bigger, build_dragonfly(groups=9))

    def test_link_parameters_flow_through(self):
        topology = build_topology("two-tier", link_bandwidth=1e9, link_latency=1e-6)
        _, _, data = next(iter(topology.graph.edges(data=True)))
        assert data["bandwidth"] == 1e9
        assert data["latency"] == 1e-6
