"""Tests for topology generators and their structural metrics."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.interconnect.topology import (
    Topology,
    build_topology,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

ALL_BUILDERS = [
    lambda: build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2),
    lambda: build_topology("hyperx", dims=(3, 3), terminals=2),
    lambda: build_topology("fat-tree", k=4),
    lambda: build_topology("two-tier", leaves=4, spines=2, terminals=4),
    lambda: build_topology("torus", dims=(3, 3), terminals=1),
]


class TestCommonInvariants:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_connected(self, builder):
        topology = builder()
        assert nx.is_connected(topology.graph)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_every_terminal_attached_to_one_switch(self, builder):
        topology = builder()
        for terminal in topology.terminals:
            neighbours = list(topology.graph.neighbors(terminal))
            assert len(neighbours) == 1
            assert topology.graph.nodes[neighbours[0]]["role"] == "switch"

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_links_have_attributes(self, builder):
        topology = builder()
        for _, _, data in topology.graph.edges(data=True):
            assert data["bandwidth"] > 0
            assert data["latency"] > 0
            assert isinstance(data["optical"], bool)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_positive_cost(self, builder):
        topology = builder()
        assert topology.cost() > 0
        assert topology.cost_per_terminal() > 0


class TestDragonfly:
    def test_diameter_at_most_three(self):
        """Dragonfly's defining property: <= 3 switch hops (l-g-l)."""
        topology = build_topology("dragonfly", groups=9, routers_per_group=4, terminals=2)
        assert topology.diameter() <= 3

    def test_counts(self):
        topology = build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2)
        assert topology.switch_count == 15
        assert topology.terminal_count == 30

    def test_intra_group_is_full_mesh(self):
        topology = build_topology("dragonfly", groups=3, routers_per_group=4, terminals=1)
        group0 = [s for s in topology.switches if topology.graph.nodes[s]["group"] == 0]
        for u in group0:
            for v in group0:
                if u != v:
                    assert topology.graph.has_edge(u, v)

    def test_global_links_are_optical(self):
        topology = build_topology("dragonfly", groups=4, routers_per_group=2, terminals=1)
        cross_group = [
            data["optical"]
            for u, v, data in topology.graph.edges(data=True)
            if topology.graph.nodes[u].get("role") == "switch"
            and topology.graph.nodes[v].get("role") == "switch"
            and topology.graph.nodes[u]["group"] != topology.graph.nodes[v]["group"]
        ]
        assert cross_group and all(cross_group)

    def test_unreachable_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("dragonfly", groups=20, routers_per_group=2, global_links_per_router=1)

    def test_too_few_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("dragonfly", groups=1)


class TestHyperX:
    def test_diameter_equals_dimensions(self):
        assert build_topology("hyperx", dims=(4, 4)).diameter() == 2
        assert build_topology("hyperx", dims=(3, 3, 3)).diameter() == 3

    def test_switch_count_is_product(self):
        assert build_topology("hyperx", dims=(3, 4)).switch_count == 12

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ConfigurationError):
            build_topology("hyperx", dims=(1, 4))


class TestFatTree:
    def test_terminal_count_k_cubed_over_four(self):
        topology = build_topology("fat-tree", k=4)
        assert topology.terminal_count == 4**3 // 4

    def test_switch_count(self):
        # k^2/4 core + k pods x k switches = 4 + 16 = 20 for k=4.
        assert build_topology("fat-tree", k=4).switch_count == 20

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("fat-tree", k=3)

    def test_diameter_larger_than_dragonfly(self):
        """The paper's low-diameter argument (§II.B)."""
        fat_tree = build_topology("fat-tree", k=4)
        dragonfly = build_topology("dragonfly", groups=5, routers_per_group=2, terminals=2)
        assert fat_tree.diameter() > dragonfly.diameter()


class TestTorus:
    def test_diameter_grows_with_size(self):
        small = build_topology("torus", dims=(3, 3))
        large = build_topology("torus", dims=(6, 6))
        assert large.diameter() > small.diameter()

    def test_degree_is_2n_plus_terminals(self):
        topology = build_topology("torus", dims=(4, 4, 4), terminals=1)
        assert topology.max_switch_degree() == 2 * 3 + 1


class TestMetrics:
    def test_bisection_positive(self):
        topology = build_topology("hyperx", dims=(3, 3))
        assert topology.bisection_bandwidth() > 0

    def test_switch_graph_keeps_build_order(self):
        topology = build_topology("dragonfly", groups=5, routers_per_group=3,
                                  terminals=2)
        switch_graph = topology.switch_graph()
        assert list(switch_graph.nodes) == topology.switches
        assert nx.utils.graphs_equal(
            switch_graph, topology.graph.subgraph(topology.switches)
        )

    def test_bisection_does_not_depend_on_the_hash_seed(self):
        """C2's dragonfly read 0.5 or 0.55 TB/s by ``PYTHONHASHSEED``
        while the switch graph's node order followed a set."""
        script = (
            "from repro.interconnect.topology import build_topology\n"
            "t = build_topology('dragonfly', groups=9, routers_per_group=4,"
            " terminals=4)\n"
            "print(t.bisection_bandwidth())\n"
        )
        readings = set()
        for hash_seed in ("0", "1", "2", "3"):
            process = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": str(REPO_ROOT / "src")},
                capture_output=True, text=True, timeout=120, check=True,
            )
            readings.add(float(process.stdout))
        assert readings == {0.55e12}

    def test_optical_links_raise_cost(self):
        dragonfly = build_topology("dragonfly", groups=5, routers_per_group=3, terminals=2)
        torus = build_topology("torus", dims=(4, 4), terminals=2)
        # Same ballpark of switches; the dragonfly's optical global links
        # must make its per-link cost higher on average.
        dragonfly_link_cost = (
            dragonfly.cost(switch_cost=0.0) / dragonfly.link_count
        )
        torus_link_cost = torus.cost(switch_cost=0.0) / torus.link_count
        assert dragonfly_link_cost > torus_link_cost

    @given(groups=st.integers(3, 8), routers=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_dragonfly_always_low_diameter(self, groups, routers):
        topology = build_topology(
            "dragonfly", groups=groups, routers_per_group=routers, terminals=1
        )
        assert topology.diameter() <= 3
