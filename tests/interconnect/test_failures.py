"""Tests for failure injection and topology resilience."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.failures import (
    DEFAULT_SEED,
    connectivity_curve,
    default_failure_rng,
    disconnection_threshold,
    fail_links,
    fail_switches,
    path_stretch,
    terminal_connectivity,
)
from repro.interconnect.topology import build_topology


@pytest.fixture
def topology():
    return build_topology("dragonfly", groups=6, routers_per_group=4, terminals=2)


class TestFailLinks:
    def test_zero_fraction_changes_nothing(self, topology):
        fabric = fail_links(topology, 0.0)
        assert fabric.failed_links == ()
        assert fabric.graph.number_of_edges() == topology.graph.number_of_edges()

    def test_fraction_removes_expected_count(self, topology):
        fabric = fail_links(topology, 0.2, rng=RandomSource(seed=1))
        assert len(fabric.failed_links) == round(0.2 * topology.link_count)

    def test_terminal_links_never_fail(self, topology):
        fabric = fail_links(topology, 1.0, rng=RandomSource(seed=1))
        for u, v in fabric.failed_links:
            assert fabric.graph.nodes.get(u, {}).get("role") != "terminal"
            assert fabric.graph.nodes.get(v, {}).get("role") != "terminal"

    def test_invalid_fraction_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            fail_links(topology, 1.5)

    def test_deterministic_for_seed(self, topology):
        a = fail_links(topology, 0.3, rng=RandomSource(seed=5))
        b = fail_links(topology, 0.3, rng=RandomSource(seed=5))
        assert a.failed_links == b.failed_links


class TestFailSwitches:
    def test_switch_and_terminals_removed(self, topology):
        fabric = fail_switches(topology, 2, rng=RandomSource(seed=2))
        assert len(fabric.failed_switches) == 2
        assert fabric.topology.switch_count == topology.switch_count - 2
        assert fabric.topology.terminal_count < topology.terminal_count

    def test_cannot_fail_everything(self, topology):
        with pytest.raises(ConfigurationError):
            fail_switches(topology, topology.switch_count)


class TestConnectivity:
    def test_intact_fabric_fully_connected(self, topology):
        fabric = fail_links(topology, 0.0)
        assert terminal_connectivity(fabric) == 1.0

    def test_connectivity_degrades_with_failures(self, topology):
        rng = RandomSource(seed=3)
        light = terminal_connectivity(fail_links(topology, 0.1, rng=rng.fork("a")))
        heavy = terminal_connectivity(fail_links(topology, 0.8, rng=rng.fork("b")))
        assert heavy <= light

    def test_path_stretch_at_least_one(self, topology):
        fabric = fail_links(topology, 0.2, rng=RandomSource(seed=4))
        stretch = path_stretch(topology, fabric)
        assert stretch >= 1.0

    def test_no_failures_no_stretch(self, topology):
        fabric = fail_links(topology, 0.0)
        assert path_stretch(topology, fabric) == pytest.approx(1.0)


class TestResilienceComparison:
    def test_rich_topologies_survive_moderate_failures(self):
        """Low-diameter families carry enough path diversity to absorb 10%
        link loss with minor stretch."""
        for topology in (
            build_topology("dragonfly", groups=6, routers_per_group=4, terminals=2),
            build_topology("hyperx", dims=(4, 4), terminals=2),
        ):
            fabric = fail_links(topology, 0.1, rng=RandomSource(seed=6))
            assert terminal_connectivity(fabric) > 0.9
            assert path_stretch(topology, fabric) < 1.6

    def test_disconnection_threshold_orders_families(self):
        """The ring-like torus disconnects earlier than the dense HyperX."""
        hyperx = build_topology("hyperx", dims=(4, 4), terminals=1)
        torus = build_topology("torus", dims=(4, 4), terminals=1)
        assert disconnection_threshold(hyperx) >= disconnection_threshold(torus)

    def test_threshold_validation(self, topology):
        with pytest.raises(ConfigurationError):
            disconnection_threshold(topology, target_connectivity=0.0)


class TestDegenerateConventions:
    """The documented <2-terminal convention: one terminal is trivially
    connected (1.0), zero terminals means the fabric is gone (0.0)."""

    def test_single_terminal_is_fully_connected(self):
        topology = build_topology("hyperx", dims=(2, 2), terminals=1)
        fabric = fail_switches(topology, 3, rng=RandomSource(seed=7))
        if fabric.topology.terminal_count == 1:
            assert terminal_connectivity(fabric) == 1.0

    def test_zero_terminals_is_fully_disconnected(self):
        topology = build_topology("hyperx", dims=(2, 2), terminals=0)
        fabric = fail_links(topology, 0.0)
        assert terminal_connectivity(fabric) == 0.0

    def test_two_terminals_measured_normally(self):
        topology = build_topology("hyperx", dims=(2, 2), terminals=1)
        fabric = fail_switches(topology, 2, rng=RandomSource(seed=8))
        if fabric.topology.terminal_count == 2:
            assert terminal_connectivity(fabric) in (0.0, 1.0)


class TestConnectivityCurve:
    def test_monotone_non_increasing(self):
        for builder in (
            lambda: build_topology("hyperx", dims=(4, 4), terminals=1),
            lambda: build_topology("torus", dims=(4, 4), terminals=1),
        ):
            curve = connectivity_curve(builder(), rng=RandomSource(seed=11))
            for earlier, later in zip(curve.connectivity, curve.connectivity[1:]):
                assert later <= earlier

    def test_starts_fully_connected_and_spans_unit_interval(self):
        curve = connectivity_curve(
            build_topology("hyperx", dims=(3, 3), terminals=1),
            rng=RandomSource(seed=12),
        )
        assert curve.fractions[0] == 0.0
        assert curve.connectivity[0] == 1.0
        assert curve.fractions[-1] == pytest.approx(1.0)

    def test_threshold_consistent_with_curve(self):
        curve = connectivity_curve(
            build_topology("torus", dims=(4, 4), terminals=1),
            rng=RandomSource(seed=13),
        )
        threshold = curve.threshold(0.9)
        for fraction, value in zip(curve.fractions, curve.connectivity):
            if fraction < threshold:
                assert value >= 0.9

    def test_wrapper_matches_curve_threshold(self):
        topology = build_topology("hyperx", dims=(4, 4), terminals=1)
        direct = disconnection_threshold(
            topology, target_connectivity=0.9, rng=RandomSource(seed=14)
        )
        via_curve = connectivity_curve(
            topology, rng=RandomSource(seed=14)
        ).threshold(0.9)
        assert direct == via_curve

    def test_seeded_curve_is_reproducible(self):
        topology = build_topology("torus", dims=(3, 3), terminals=1)
        a = connectivity_curve(topology, rng=RandomSource(seed=15))
        b = connectivity_curve(topology, rng=RandomSource(seed=15))
        assert a == b


class TestDefaultRng:
    def test_named_fork_is_stable(self):
        a = default_failure_rng("links").uniform()
        b = default_failure_rng("links").uniform()
        assert a == b

    def test_purposes_are_independent_streams(self):
        assert default_failure_rng("links").uniform() != default_failure_rng(
            "switches"
        ).uniform()

    def test_module_seed_is_documented_constant(self):
        assert DEFAULT_SEED == 1729
