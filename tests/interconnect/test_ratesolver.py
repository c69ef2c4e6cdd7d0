"""Tests for the pluggable rate-solver API and its fabric integration.

Four concerns, mirroring the RouteCache suite's structure:

* the registry surface (``get_solver`` / ``register_solver`` /
  ``set_default_solver`` / ``resolve_solver``),
* bit-exactness of the ``"indexed"`` (default) and ``"numpy"`` solvers
  against the ``"reference"`` ground truth on hand-built corner cases
  (ties, multiplicity, backlog, zero-length paths),
* the incremental-incidence contract, checked white-box through
  ``NumpySolver.stats`` (completion-only epochs touch only the completed
  flows' links; no-change epochs touch nothing; topology mutations rebind),
* the deprecation shims for the old private-method override path.
"""

import sys
import warnings

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.fabric import FabricSimulator, Flow, LinkEvent
from repro.interconnect.failures import fail_links, fail_switches
from repro.interconnect.ratesolver import (
    MIN_CONTENDERS_FOR_CONGESTION,
    SOLVERS,
    IndexedSolver,
    NumpySolver,
    RateSolver,
    ReferenceSolver,
    default_solver_name,
    get_solver,
    register_solver,
    resolve_solver,
    set_default_solver,
)
from repro.interconnect.topology import build_dragonfly, build_two_tier

pytest.importorskip("numpy")


def _uniform_flows(topology, count, seed=11, size=1e6):
    rng = RandomSource(seed=seed, name="ratesolver-test")
    terminals = list(topology.terminals)
    flows = []
    for index in range(count):
        source, destination = rng.sample(terminals, 2)
        flows.append(
            Flow(
                source=source, destination=destination, size=size,
                start_time=index * 1e-4, flow_id=10_000 + index,
            )
        )
    return flows


def _stats_key(stats):
    return [
        (s.tag, s.size, s.start_time, s.finish_time, s.path_hops,
         s.propagation_delay, s.extra_queueing)
        for s in stats
    ]


#: The built-in solvers checked against the reference.
FAST_SOLVERS = ("indexed", "numpy")


def _solve_all(capacities, flow_links, remaining_bytes=None):
    """Solve the same epoch with the reference and every fast solver.

    Returns ``(reference, fast)`` after asserting that all fast solvers
    agree with each other, so a ``reference == fast`` check covers each.
    """
    outcomes = []
    for name in ("reference",) + FAST_SOLVERS:
        solver = get_solver(name)
        solver.bind(dict(capacities))
        outcomes.append(solver.solve(dict(flow_links), remaining_bytes))
    reference, fast, *others = outcomes
    for other in others:
        assert other == fast
    return reference, fast


# A little three-switch line: two directed links everybody contends on.
CAPS = {("a", "b"): 10.0, ("b", "c"): 10.0, ("c", "d"): 10.0}
AB, BC, CD = ("a", "b"), ("b", "c"), ("c", "d")


class TestRegistry:
    def test_builtin_solvers_registered(self):
        assert {"reference", "indexed", "numpy"} <= set(SOLVERS)

    def test_get_solver_returns_fresh_instances(self):
        assert get_solver("reference") is not get_solver("reference")
        assert isinstance(get_solver("reference"), ReferenceSolver)
        assert isinstance(get_solver("numpy"), NumpySolver)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="reference"):
            get_solver("simplex")

    def test_register_solver_decorator(self):
        @register_solver("_tmp-solver")
        class Tmp(ReferenceSolver):
            pass

        try:
            solver = get_solver("_tmp-solver")
            assert isinstance(solver, Tmp)
            assert Tmp.name == "_tmp-solver"
        finally:
            del SOLVERS["_tmp-solver"]

    def test_factory_must_return_a_solver(self):
        SOLVERS["_broken"] = dict
        try:
            with pytest.raises(ConfigurationError, match="not a RateSolver"):
                get_solver("_broken")
        finally:
            del SOLVERS["_broken"]

    def test_set_default_solver_round_trip(self):
        previous = set_default_solver("numpy")
        try:
            assert previous == "indexed"
            assert default_solver_name() == "numpy"
            topology = build_two_tier(leaves=2, spines=2, terminals_per_leaf=2)
            assert isinstance(FabricSimulator(topology).solver, NumpySolver)
        finally:
            set_default_solver(previous)
        assert default_solver_name() == previous

    def test_set_default_solver_validates(self):
        before = default_solver_name()
        with pytest.raises(ConfigurationError):
            set_default_solver("simplex")
        assert default_solver_name() == before

    def test_resolve_solver_coercions(self):
        assert isinstance(resolve_solver(None), IndexedSolver)
        assert isinstance(resolve_solver("numpy"), NumpySolver)
        instance = ReferenceSolver()
        assert resolve_solver(instance) is instance
        with pytest.raises(ConfigurationError, match="RateSolver"):
            resolve_solver(42)

    def test_protocol_is_abstract(self):
        solver = RateSolver()
        with pytest.raises(NotImplementedError):
            solver.bind({})
        with pytest.raises(NotImplementedError):
            solver.solve({})


class TestExactness:
    """The fast solvers must agree with the reference to the last bit."""

    def test_empty_epoch(self):
        (ref, fast) = _solve_all(CAPS, {})
        assert ref == fast == ({}, set())

    def test_single_flow_gets_line_rate(self):
        (ref, fast) = _solve_all(CAPS, {1: [AB, BC]})
        assert ref == fast
        assert ref[0] == {1: 10.0}

    def test_saturation_needs_min_contenders(self):
        flows = {i: [AB] for i in range(MIN_CONTENDERS_FOR_CONGESTION - 1)}
        (ref, fast) = _solve_all(CAPS, flows)
        assert ref == fast
        assert ref[1] == set()
        flows = {i: [AB] for i in range(MIN_CONTENDERS_FOR_CONGESTION)}
        (ref, fast) = _solve_all(CAPS, flows)
        assert ref == fast
        assert ref[1] == {AB}

    def test_tied_bottlenecks(self):
        # Two disjoint links with identical shares: the reference fixes the
        # first-seen link per round; both solvers must agree on rates AND
        # on which links end up saturated.
        flows = {1: [AB], 2: [AB], 3: [AB], 4: [CD], 5: [CD], 6: [CD]}
        (ref, fast) = _solve_all(CAPS, flows)
        assert ref == fast
        assert ref[0] == {i: pytest.approx(10.0 / 3) for i in flows}
        assert ref[1] == {AB, CD}

    def test_tie_break_follows_unfixed_flows_not_first_use(self):
        # Round 1 fixes flow 1 on AB.  Round 2 ties BC and CD at 5.0 with
        # three users each; CD was seen first overall (flow 1) but BC is
        # first among the unfixed flows (flow 2), so the reference picks
        # BC and only BC is saturated — CD has two users left after it.
        caps = {AB: 1.0, BC: 15.0, CD: 16.0}
        flows = {1: [AB, CD], 2: [BC, CD], 3: [BC], 4: [CD], 5: [BC], 6: [CD]}
        (ref, fast) = _solve_all(caps, flows)
        assert ref == fast
        assert ref[1] == {BC}
        assert ref[0] == {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0, 5: 5.0, 6: 5.0}

    def test_multi_round_waterfill(self):
        caps = {AB: 10.0, BC: 30.0}
        flows = {1: [AB, BC], 2: [AB], 3: [BC], 4: [BC]}
        (ref, fast) = _solve_all(caps, flows)
        assert ref == fast
        rates = ref[0]
        # AB bottlenecks first (10/2 < 30/3); BC's survivors split the rest.
        assert rates[1] == rates[2] == 5.0
        assert rates[3] == rates[4] == 12.5

    def test_link_multiplicity(self):
        # A Valiant-style detour crossing AB twice pulls capacity twice.
        flows = {1: [AB, BC, AB], 2: [AB], 3: [AB]}
        (ref, fast) = _solve_all(CAPS, flows)
        assert ref == fast

    def test_zero_length_paths_get_infinite_rate(self):
        flows = {1: [], 2: [AB], 3: []}
        (ref, fast) = _solve_all(CAPS, flows)
        assert ref == fast
        assert ref[0][1] == ref[0][3] == float("inf")
        assert ref[0][2] == 10.0

    def test_all_zero_length_paths(self):
        (ref, fast) = _solve_all(CAPS, {1: [], 2: []})
        assert ref == fast
        assert set(ref[0].values()) == {float("inf")}

    def test_empty_capacity_map(self):
        (ref, fast) = _solve_all({}, {1: [], 2: []})
        assert ref == fast

    def test_backlog_gate_on_saturation(self):
        flows = {1: [AB], 2: [AB], 3: [AB]}
        # Mice: drains far below the congestion threshold -> not saturated.
        (ref, fast) = _solve_all(CAPS, flows, {1: 1e-4, 2: 1e-4, 3: 1e-4})
        assert ref == fast
        assert ref[1] == set()
        # Elephants: a standing queue -> saturated.
        (ref, fast) = _solve_all(CAPS, flows, {1: 1e9, 2: 1e9, 3: 1e9})
        assert ref == fast
        assert ref[1] == {AB}

    def test_missing_remaining_bytes_default_to_zero(self):
        flows = {1: [AB], 2: [AB], 3: [AB]}
        (ref, fast) = _solve_all(CAPS, flows, {1: 1e9})
        assert ref == fast

    def test_randomised_epoch_streams(self):
        # Many epochs over one bound solver pair: adds, removals and
        # reroutes drawn from a fixed stream, rates compared bit-for-bit.
        topology = build_dragonfly(
            groups=4, routers_per_group=3, terminals_per_router=2
        )
        probe = FabricSimulator(topology)
        capacities = dict(probe._capacities)
        terminals = list(topology.terminals)
        rng = RandomSource(seed=77, name="ratesolver-stream")

        reference = get_solver("reference")
        reference.bind(capacities)
        fast = [get_solver(name) for name in FAST_SOLVERS]
        for solver in fast:
            solver.bind(capacities)

        flow_links, next_id = {}, 0
        for _ in range(30):
            for _ in range(rng.integer(1, 6)):  # arrivals
                source, destination = rng.sample(terminals, 2)
                path = probe._route(
                    Flow(source=source, destination=destination, size=1.0)
                )
                flow_links[next_id] = probe._links_of(path)
                next_id += 1
            for flow_id in list(flow_links):  # completions
                if rng.uniform() < 0.2:
                    del flow_links[flow_id]
            epoch = dict(flow_links)
            expected = reference.solve(epoch)
            for solver in fast:
                assert solver.solve(epoch) == expected, solver.name


class TestIncrementalIncidence:
    """White-box: the numpy solver only touches dirty links."""

    def _bound(self):
        solver = get_solver("numpy")
        solver.bind(dict(CAPS))
        return solver

    def test_first_epoch_touches_all_member_links(self):
        solver = self._bound()
        solver.solve({1: [AB, BC], 2: [BC, CD]})
        assert solver.stats["epochs"] == 1
        assert solver.stats["flows_added"] == 2
        assert solver.stats["last_dirty_links"] == 3  # AB, BC, CD

    def test_completion_only_epoch_touches_only_completed_links(self):
        solver = self._bound()
        row_a, row_b, row_c = [AB], [AB, BC], [CD]
        solver.solve({1: row_a, 2: row_b, 3: row_c})
        # Flow 3 completes; flows 1 and 2 keep their list objects.
        solver.solve({1: row_a, 2: row_b})
        assert solver.stats["flows_removed"] == 1
        assert solver.stats["last_dirty_links"] == 1  # just CD

    def test_unchanged_epoch_touches_nothing(self):
        solver = self._bound()
        row_a, row_b = [AB], [BC]
        epoch = {1: row_a, 2: row_b}
        solver.solve(dict(epoch))
        solver.solve(dict(epoch))
        assert solver.stats["epochs"] == 2
        assert solver.stats["last_dirty_links"] == 0

    def test_reroute_dirties_old_and_new_links(self):
        solver = self._bound()
        row_other = [CD]
        solver.solve({1: [AB], 2: row_other})
        # Flow 1 re-routed: a *new* list object over different links; flow 2
        # keeps its list object and must stay untouched.
        solver.solve({1: [BC], 2: row_other})
        assert solver.stats["last_dirty_links"] == 2  # AB out, BC in

    def test_bind_resets_tracked_flows(self):
        solver = self._bound()
        solver.solve({1: [AB]})
        solver.bind(dict(CAPS))
        assert solver.stats["binds"] == 2
        # Same lists again count as fresh adds after the rebind.
        solver.solve({1: [AB]})
        assert solver.stats["flows_added"] == 2


class TestFabricIntegration:
    def test_solver_kwarg_accepts_name_and_instance(self):
        topology = build_two_tier(leaves=2, spines=2, terminals_per_leaf=2)
        assert isinstance(
            FabricSimulator(topology, solver="numpy").solver, NumpySolver
        )
        instance = NumpySolver()
        assert FabricSimulator(topology, solver=instance).solver is instance

    def test_runs_identical_across_solvers(self):
        topology = build_dragonfly(
            groups=4, routers_per_group=3, terminals_per_router=2
        )
        reference = FabricSimulator(topology, solver="reference").run(
            _uniform_flows(topology, 40)
        )
        for name in FAST_SOLVERS:
            fast = FabricSimulator(topology, solver=name).run(
                _uniform_flows(topology, 40)
            )
            assert _stats_key(reference) == _stats_key(fast), name

    def test_link_flap_rebinds_and_matches(self):
        # Mirrors the RouteCache invalidation contract: a mid-run topology
        # mutation must invalidate the incidence (a fresh bind) and still
        # produce stats bit-identical to the reference solver.
        topology = build_dragonfly(
            groups=4, routers_per_group=3, terminals_per_router=2
        )
        switches = [
            node for node, data in topology.graph.nodes(data=True)
            if data.get("role") == "switch"
        ]
        victim = next(
            (u, v) for u, v in topology.graph.edges()
            if u in set(switches) and v in set(switches)
        )
        events = [LinkEvent(2e-4, victim)]

        def run(solver):
            simulator = FabricSimulator(
                topology, solver=solver, reroute_adaptively=True
            )
            stats = simulator.run(
                _uniform_flows(topology, 30, size=1e7), link_events=list(events)
            )
            return simulator, stats

        _, reference = run("reference")
        simulator, vectorised = run("numpy")
        assert _stats_key(reference) == _stats_key(vectorised)
        # Construction binds once; the flap's _refresh_link_state re-binds.
        assert simulator.solver.stats["binds"] >= 2
        # The indexed solver keeps no state between epochs: the rebind
        # only swaps its capacity map.
        _, indexed = run("indexed")
        assert _stats_key(reference) == _stats_key(indexed)

    @pytest.mark.parametrize("degrade", ["links", "switches"])
    def test_degraded_topologies_match(self, degrade):
        topology = build_dragonfly(
            groups=4, routers_per_group=3, terminals_per_router=2
        )
        if degrade == "links":
            degraded = fail_links(
                topology, fraction=0.15, rng=RandomSource(seed=5)
            ).topology
        else:
            degraded = fail_switches(
                topology, count=1, rng=RandomSource(seed=5)
            ).topology
        reference = FabricSimulator(degraded, solver="reference").run(
            _uniform_flows(degraded, 25)
        )
        for name in FAST_SOLVERS:
            fast = FabricSimulator(degraded, solver=name).run(
                _uniform_flows(degraded, 25)
            )
            assert _stats_key(reference) == _stats_key(fast), name


class TestNumpyUnavailable:
    def test_numpy_solver_raises_configuration_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            get_solver("numpy")

    def test_reference_path_survives_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        solver = get_solver("reference")
        solver.bind(dict(CAPS))
        rates, saturated = solver.solve({1: [AB]})
        assert rates == {1: 10.0} and saturated == set()

    def test_default_solver_needs_no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        solver = resolve_solver(None)
        solver.bind(dict(CAPS))
        assert solver.solve({1: [AB], 2: [AB]}) == ({1: 5.0, 2: 5.0}, set())


class TestDeprecationShims:
    def _topology(self):
        return build_two_tier(leaves=2, spines=2, terminals_per_leaf=2)

    def test_max_min_rates_warns_and_delegates(self):
        simulator = FabricSimulator(self._topology())
        flows = {1: [AB], 2: [AB], 3: [AB]}
        simulator.solver.bind(dict(CAPS))
        with pytest.warns(DeprecationWarning, match="solver.solve"):
            shimmed = simulator._max_min_rates(dict(flows))
        assert shimmed == simulator.solver.solve(dict(flows))

    def test_subclass_override_warns_at_construction(self):
        calls = []

        class Legacy(FabricSimulator):
            def _max_min_rates(self, flow_links, remaining_bytes=None):
                calls.append(len(flow_links))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    return super()._max_min_rates(flow_links, remaining_bytes)

        topology = self._topology()
        with pytest.warns(DeprecationWarning, match="register a RateSolver"):
            simulator = Legacy(topology)
        # The override is still honoured by the internal epoch path.
        simulator.run(_uniform_flows(topology, 5))
        assert calls

    def test_adjusted_override_warns_at_construction(self):
        class LegacyAdjust(FabricSimulator):
            def _adjusted_rates_impl(self, *args, **kwargs):
                return super()._adjusted_rates_impl(*args, **kwargs)

        with pytest.warns(DeprecationWarning, match="deprecated"):
            LegacyAdjust(self._topology())

    def test_plain_subclass_does_not_warn(self):
        class Plain(FabricSimulator):
            pass

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Plain(self._topology())
