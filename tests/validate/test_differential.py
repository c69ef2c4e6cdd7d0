"""The tier-1 differential checks: fast paths vs independent references."""

import re
import sys

import pytest

from repro.validate import (
    check_checkpointing,
    check_collectives,
    check_resume,
    check_routes,
    check_solvers,
    check_sweep,
    run_differential_checks,
)
from repro.validate.differential import networkx_twin


@pytest.fixture
def cold_spec_maps(monkeypatch):
    """An empty process-wide table of spec maps for the test, so a
    patched search neither reads earlier tests' cores nor leaves its own
    to later tests."""
    from repro.interconnect import routecache

    monkeypatch.setattr(routecache, "_SPEC_MAPS", {})


class TestRoutesDifferential:
    def test_cached_routes_agree_with_uncached_networkx(self):
        result = check_routes()
        assert result.passed, result.detail
        # 5 topologies x 48 pairs x (terminal-terminal, terminal-switch,
        # switch-switch)
        assert result.comparisons == 720

    def test_sampling_is_seeded(self):
        assert check_routes(seed=7).passed
        assert check_routes(pairs=8).comparisons == 120

    def test_terminal_pairs_come_from_the_warmed_cores(
        self, monkeypatch, cold_spec_maps
    ):
        # Terminal pairs search only while the first topology of each
        # spec warms: once per ordered pair of distinct switches.
        from repro.interconnect.routecache import RouteCache
        from repro.interconnect.topology import build_topology
        from repro.sweep.targets import _FABRIC_TOPOLOGIES

        original = RouteCache._shortest_path
        searched = []

        def counted(self, source, target):
            if source != target and source.startswith("t") and (
                target.startswith("t")
            ):
                searched.append((source, target))
            return original(self, source, target)

        monkeypatch.setattr(RouteCache, "_shortest_path", counted)
        assert check_routes(pairs=8).passed
        expected = 0
        for kind, spec in _FABRIC_TOPOLOGIES.items():
            topology = build_topology(kind, **spec)
            switches = {topology.graph.nodes[terminal]["attached_to"]
                        for terminal in topology.terminals}
            expected += len(switches) * (len(switches) - 1)
        assert len(searched) == expected

    def test_a_wrong_route_through_a_switch_fails(
        self, monkeypatch, cold_spec_maps
    ):
        # Terminal-to-terminal routes stay right; only a leg that starts
        # or ends at a switch (as Valiant's do) is swapped.
        import networkx as nx

        from repro.interconnect.routecache import RouteCache

        original = RouteCache._shortest_path

        def swapped(self, source, target):
            if source.startswith("t") and target.startswith("t"):
                return original(self, source, target)
            return list(nx.all_shortest_paths(
                networkx_twin(self._graph), source, target
            ))[-1]

        monkeypatch.setattr(RouteCache, "_shortest_path", swapped)
        result = check_routes(pairs=8)
        assert not result.passed
        assert "networkx says" in result.detail

    def test_an_equal_length_different_path_fails(
        self, monkeypatch, cold_spec_maps
    ):
        # Hop count, endpoints and edge existence all still hold; only
        # node-for-node identity with networkx catches the swap.
        import networkx as nx

        from repro.interconnect.routecache import RouteCache

        monkeypatch.setattr(
            RouteCache, "_shortest_path",
            lambda self, source, target: list(nx.all_shortest_paths(
                networkx_twin(self._graph), source, target
            ))[-1],
        )
        result = check_routes(pairs=8)
        assert not result.passed
        assert "networkx says" in result.detail

    def test_missing_networkx_fails_naming_the_test_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        result = check_routes(pairs=8)
        assert not result.passed
        assert result.comparisons == 0
        assert "networkx" in result.detail
        assert "'.[test]'" in result.detail
        assert "Traceback" not in str(result)


class TestCollectivesDifferential:
    def test_closed_forms_agree_with_step_loops(self):
        result = check_collectives()
        assert result.passed, result.detail
        # 7 collectives x 9 populations x 4 message sizes
        assert result.comparisons == 7 * 9 * 4


class TestCheckpointingDifferential:
    def test_young_daly_matches_numeric_grid_scan(self):
        result = check_checkpointing()
        assert result.passed, result.detail
        # 3 targets x (241 grid evaluations + 1 plan cross-check)
        assert result.comparisons == 3 * 242

    def test_tightening_value_tolerance_too_far_fails(self):
        """Sanity that the check can fail: Young/Daly is first-order, so an
        absurd tolerance (1e-9) must expose the higher-order gap."""
        assert not check_checkpointing(value_rtol=1e-9).passed


class TestSweepDifferential:
    def test_pool_matches_serial_bit_for_bit(self):
        result = check_sweep(workers=2)
        assert result.passed, result.detail
        assert result.comparisons > 0


class TestResumeDifferential:
    def test_resumed_fingerprint_matches_fresh(self):
        result = check_resume()
        assert result.passed, result.detail
        assert "torn tail" in result.detail

    def test_prefix_length_is_configurable(self):
        assert check_resume(keep_points=1).passed


class TestSolverDifferential:
    def test_indexed_solver_matches_reference(self):
        result = check_solvers()
        assert result.passed, result.detail
        assert result.comparisons > 0

    def test_heap_selection_matches_reference(self, monkeypatch):
        # check_solvers' topologies stay below the heap's size gate.
        from repro.interconnect import ratesolver

        monkeypatch.setattr(ratesolver, "_HEAP_MIN_ROWS", 1)
        result = check_solvers()
        assert result.passed, result.detail
        assert result.comparisons > 0

    @pytest.mark.parametrize("heap_min_rows", [None, 1])
    def test_long_epoch_streams_match_reference(self, monkeypatch, heap_min_rows):
        """40 trials of 30 epochs on both selection paths: scanned (the
        gate as shipped) and heaped (the gate lowered to one row)."""
        from repro.interconnect import ratesolver

        if heap_min_rows is not None:
            monkeypatch.setattr(ratesolver, "_HEAP_MIN_ROWS", heap_min_rows)
        result = check_solvers(trials=40, epochs=30)
        assert result.passed, result.detail
        assert result.comparisons > check_solvers().comparisons

    def test_island_epochs_keep_the_untouched_islands_rounds(self):
        result = check_solvers()
        assert result.passed, result.detail
        kept = re.search(r"\((\d+) rounds kept\)", result.detail)
        assert kept and int(kept.group(1)) > 0

    def test_trial_count_is_configurable(self):
        small = check_solvers(trials=1, epochs=4)
        assert small.passed, small.detail
        assert small.comparisons < check_solvers().comparisons

    def test_detail_names_indexed_vs_reference(self):
        result = check_solvers(trials=1, epochs=4)
        assert result.passed, result.detail
        assert result.detail.startswith("indexed vs reference")

    def test_a_wrong_solver_fails_the_check(self, monkeypatch):
        from repro.interconnect.ratesolver import IndexedSolver

        exact = IndexedSolver.solve

        def halved(self, flow_links, remaining_bytes=None):
            rates, saturated = exact(self, flow_links, remaining_bytes)
            return {f: rate / 2 for f, rate in rates.items()}, saturated

        monkeypatch.setattr(IndexedSolver, "solve", halved)
        result = check_solvers(trials=1, epochs=4)
        assert not result.passed
        assert result.detail.startswith("indexed on ")


class TestServeDifferential:
    def test_cached_responses_match_fresh_cold_runs(self):
        from repro.validate import check_serve

        result = check_serve()
        assert result.passed, result.detail
        assert "byte-identical" in result.detail
        assert "0 kernel events" in result.detail


class TestMemerrorsDifferential:
    def test_simulation_matches_the_fit_closed_form(self):
        from repro.validate import check_memerrors

        result = check_memerrors()
        assert result.passed, result.detail
        assert "sec-ded and chipkill" in result.detail
        assert "Young/Daly" in result.detail


class TestBundle:
    def test_run_differential_checks_covers_all_eight(self):
        results = run_differential_checks()
        assert [r.name for r in results] == [
            "routes", "collectives", "checkpointing", "memerrors",
            "sweep-pool", "sweep-resume", "solvers", "serve",
        ]
        assert all(r.passed for r in results), [str(r) for r in results]

    def test_results_render_readably(self):
        result = check_collectives()
        assert "differential collectives: ok" in str(result)
