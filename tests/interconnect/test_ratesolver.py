"""Tests for the rate-solver protocol and its fabric integration.

Three concerns, mirroring the RouteCache suite's structure:

* the ``RateSolver`` protocol and the fabric's ``solver=`` keyword,
* bit-exactness of :class:`IndexedSolver` (the fabric's solver) against
  the :class:`ReferenceSolver` ground truth on hand-built corner cases
  (ties, multiplicity, backlog, zero-length paths), and across scripted
  epochs that change what the link index it keeps has to follow,
* end-to-end runs, degraded topologies and hot-flow detours, where both
  solvers must produce identical ``FlowStats``,
* the synchronized burst, where the indexed solver must also be at
  least twice as fast as the reference.

None of it needs numpy.
"""

import sys
import time
from unittest import mock

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.interconnect.congestion import congestion_policy
from repro.interconnect import fabric as fabric_module
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect import ratesolver
from repro.interconnect.ratesolver import (
    MIN_CONTENDERS_FOR_CONGESTION,
    IndexedSolver,
    RateSolver,
    ReferenceSolver,
)
from repro.interconnect.topology import Topology, build_topology
from tests.interconnect._edit import edited


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


def _solve_both(capacities, flow_links, remaining_bytes=None):
    """Solve the same epoch with the reference and the indexed solver.

    The indexed solver runs twice: at its default size gate, which keeps
    these small epochs on the share-list scan, and with the gate at 1,
    which forces the heap.  The two must agree bit for bit, insertion
    order included, before the indexed result is returned.
    """
    reference = ReferenceSolver()
    reference.bind(dict(capacities))
    expected = reference.solve(dict(flow_links), remaining_bytes)
    outcomes = []
    for gate in (ratesolver._HEAP_MIN_ROWS, 1):
        with mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", gate):
            solver = IndexedSolver()
            solver.bind(dict(capacities))
            outcomes.append(solver.solve(dict(flow_links), remaining_bytes))
    scanned, heaped = outcomes
    assert heaped == scanned
    assert list(heaped[0]) == list(scanned[0])
    return expected, scanned


# A little three-switch line: two directed links everybody contends on.
CAPS = {("a", "b"): 10.0, ("b", "c"): 10.0, ("c", "d"): 10.0}
AB, BC, CD = ("a", "b"), ("b", "c"), ("c", "d")


class TestProtocol:
    def test_protocol_is_abstract(self):
        solver = RateSolver()
        with pytest.raises(NotImplementedError):
            solver.bind({})
        with pytest.raises(NotImplementedError):
            solver.solve({})


class TestExactness:
    """The indexed solver must agree with the reference to the last bit."""

    def test_empty_epoch(self):
        (ref, fast) = _solve_both(CAPS, {})
        assert ref == fast == ({}, set())

    def test_single_flow_gets_line_rate(self):
        (ref, fast) = _solve_both(CAPS, {1: [AB, BC]})
        assert ref == fast
        assert ref[0] == {1: 10.0}

    def test_saturation_needs_min_contenders(self):
        flows = {i: [AB] for i in range(MIN_CONTENDERS_FOR_CONGESTION - 1)}
        (ref, fast) = _solve_both(CAPS, flows)
        assert ref == fast
        assert ref[1] == set()
        flows = {i: [AB] for i in range(MIN_CONTENDERS_FOR_CONGESTION)}
        (ref, fast) = _solve_both(CAPS, flows)
        assert ref == fast
        assert ref[1] == {AB}

    def test_tied_bottlenecks(self):
        # Two disjoint links with identical shares: the reference fixes the
        # first-seen link per round; both solvers must agree on rates AND
        # on which links end up saturated.
        flows = {1: [AB], 2: [AB], 3: [AB], 4: [CD], 5: [CD], 6: [CD]}
        (ref, fast) = _solve_both(CAPS, flows)
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
        (ref, fast) = _solve_both(caps, flows)
        assert ref == fast
        assert ref[1] == {BC}
        assert ref[0] == {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0, 5: 5.0, 6: 5.0}

    def test_a_link_rounding_onto_the_tied_share_joins_the_tie(self):
        # T and T2 tie at 0.7/3.  X's share starts a rounding step above
        # it, and fixing T's flows (one of which crosses X) rounds X's
        # share down onto the tie.  The reference then finds X before T2
        # (flow 4 precedes flow 10), so X's flows take their rates first.
        t, t2, x = ("t", "u"), ("t2", "u2"), ("x", "y")
        y, z = ("y", "z"), ("z0", "z1")
        caps = {t: 0.7, t2: 0.7, x: 1.6333333333333333, y: 1e9, z: 1e9}
        assert caps[x] / 7 > 0.7 / 3 == (caps[x] - 0.7 / 3) / 6
        flows = {0: [z], 1: [t, x], 2: [t], 3: [t]}
        flows.update({flow_id: [x, y] for flow_id in range(4, 10)})
        flows.update({flow_id: [t2] for flow_id in range(10, 13)})
        (ref, fast) = _solve_both(caps, flows)
        assert ref == fast
        assert list(ref[0]) == list(fast[0]) == [*range(1, 13), 0]

    def test_a_link_rounding_below_the_bottleneck_share_goes_next(self):
        # T is the bottleneck at 1.93/5.  Three of its flows also cross
        # X, whose share starts one step above T's, and subtracting T's
        # share from X three times rounds X's share strictly *below* it.
        # Z sits at X's old share, so the round after T must pick X, not
        # Z: the heap has to take X at its lowered share.
        t, x, y, z = ("t", "u"), ("x", "y"), ("y", "z"), ("z0", "z1")
        caps = {t: 1.93, x: 2.3160000000000003, y: 1e9, z: 1.1580000000000001}
        flows = {flow_id: [t, x] for flow_id in (1, 2, 3)}
        flows.update({4: [t], 5: [t]})
        flows.update({flow_id: [x, y] for flow_id in (6, 7, 8)})
        flows.update({flow_id: [z] for flow_id in (9, 10, 11)})
        assert caps[x] / 6 == caps[z] / 3 > caps[t] / 5
        (ref, fast) = _solve_both(caps, flows)
        assert ref == fast
        assert list(ref[0]) == list(fast[0]) == list(range(1, 12))
        assert fast[0][6] < fast[0][1] < fast[0][9]

    def test_multi_round_waterfill(self):
        caps = {AB: 10.0, BC: 30.0}
        flows = {1: [AB, BC], 2: [AB], 3: [BC], 4: [BC]}
        (ref, fast) = _solve_both(caps, flows)
        assert ref == fast
        rates = ref[0]
        # AB bottlenecks first (10/2 < 30/3); BC's survivors split the rest.
        assert rates[1] == rates[2] == 5.0
        assert rates[3] == rates[4] == 12.5

    def test_link_multiplicity(self):
        # A Valiant-style detour crossing AB twice pulls capacity twice.
        flows = {1: [AB, BC, AB], 2: [AB], 3: [AB]}
        (ref, fast) = _solve_both(CAPS, flows)
        assert ref == fast

    def test_zero_length_paths_get_infinite_rate(self):
        flows = {1: [], 2: [AB], 3: []}
        (ref, fast) = _solve_both(CAPS, flows)
        assert ref == fast
        assert ref[0][1] == ref[0][3] == float("inf")
        assert ref[0][2] == 10.0

    def test_all_zero_length_paths(self):
        (ref, fast) = _solve_both(CAPS, {1: [], 2: []})
        assert ref == fast
        assert set(ref[0].values()) == {float("inf")}

    def test_empty_capacity_map(self):
        (ref, fast) = _solve_both({}, {1: [], 2: []})
        assert ref == fast

    def test_backlog_gate_on_saturation(self):
        flows = {1: [AB], 2: [AB], 3: [AB]}
        # Mice: drains far below the congestion threshold -> not saturated.
        (ref, fast) = _solve_both(CAPS, flows, {1: 1e-4, 2: 1e-4, 3: 1e-4})
        assert ref == fast
        assert ref[1] == set()
        # Elephants: a standing queue -> saturated.
        (ref, fast) = _solve_both(CAPS, flows, {1: 1e9, 2: 1e9, 3: 1e9})
        assert ref == fast
        assert ref[1] == {AB}

    def test_missing_remaining_bytes_default_to_zero(self):
        flows = {1: [AB], 2: [AB], 3: [AB]}
        (ref, fast) = _solve_both(CAPS, flows, {1: 1e9})
        assert ref == fast

    def test_randomised_epoch_streams(self):
        # Many epochs over one bound solver pair: adds, removals and
        # reroutes drawn from a fixed stream, rates compared bit-for-bit.
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        probe = FabricSimulator(topology)
        capacities = dict(probe._capacities)
        terminals = list(topology.terminals)
        rng = RandomSource(seed=77, name="ratesolver-stream")

        reference = ReferenceSolver()
        reference.bind(capacities)
        indexed = IndexedSolver()
        indexed.bind(capacities)

        flow_links, next_id = {}, 0
        for _ in range(30):
            for _ in range(rng.integer(1, 6)):  # arrivals
                source, destination = rng.sample(terminals, 2)
                _, flow_links[next_id] = probe._route(
                    Flow(source=source, destination=destination, size=1.0)
                )
                next_id += 1
            for flow_id in list(flow_links):  # completions
                if rng.uniform() < 0.2:
                    del flow_links[flow_id]
            epoch = dict(flow_links)
            assert indexed.solve(epoch) == reference.solve(epoch)


class TestKeptIndex:
    """One solver through scripted epochs on a live flow map: the link
    index it keeps between contended solves must follow every change the
    fabric, or any caller, makes between them."""

    LINKS = (AB, BC, CD, ("d", "e"), ("e", "f"), ("f", "g"))
    # Equal capacities for many ties, and one scarce link.
    CAPS = {**{link: 12.0 for link in LINKS}, ("f", "g"): 2.0}

    def _flows(self, count=18):
        # Flow 0 alone crosses the last link, which it uses first, so its
        # row is row 0 of a fresh index.
        links = self.LINKS
        flow_links = {0: [links[5], links[0]]}
        for flow_id in range(1, count):
            flow_links[flow_id] = [
                links[flow_id % 5], links[(flow_id + 2) % 5],
            ]
        return flow_links

    def _agree(self, solver, flow_links, caps=None):
        reference = ReferenceSolver()
        reference.bind(dict(caps or self.CAPS))
        backlog = {flow_id: 1e9 for flow_id in flow_links}
        expected = reference.solve(
            {flow_id: list(path) for flow_id, path in flow_links.items()},
            backlog,
        )
        got = solver.solve(flow_links, backlog)
        assert got == expected
        assert list(got[0]) == list(expected[0])

    def _solver(self, flow_links):
        solver = IndexedSolver()
        solver.bind(dict(self.CAPS))
        self._agree(solver, flow_links)
        return solver

    def test_a_link_losing_its_last_flow_gives_up_its_row(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        del flow_links[0]  # the only user of row 0
        self._agree(solver, flow_links)
        flow_links[99] = [self.LINKS[5], self.LINKS[1]]  # and it comes back
        self._agree(solver, flow_links)

    def test_a_reroute_puts_a_new_list_under_the_key(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        flow_links[4] = [self.LINKS[5], self.LINKS[3], self.LINKS[5]]
        self._agree(solver, flow_links)

    def test_a_path_edited_in_place_is_seen(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        flow_links[7][1] = self.LINKS[5]
        self._agree(solver, flow_links)
        flow_links[7].reverse()  # same links, another path order
        self._agree(solver, flow_links)

    def test_a_readmitted_flow_moves_to_the_end(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        path = flow_links.pop(3)
        self._agree(solver, flow_links)
        flow_links[3] = path
        self._agree(solver, flow_links)

    def test_a_reordered_epoch_is_rebuilt(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        self._agree(solver, dict(reversed(list(flow_links.items()))))

    def test_bind_drops_the_index(self):
        flow_links = self._flows()
        solver = self._solver(flow_links)
        caps = dict(self.CAPS)
        caps[AB] = 3.0
        solver.bind(caps)
        self._agree(solver, flow_links, caps)


class TestPrefixReplay:
    """The indexed solver replays its last contended solve's rounds up to
    the first one the epoch's change can affect.  One base epoch of five
    rounds (A at share 1, B at 2, C at 3, D at 4, E at 6; every flow also
    crosses Z, so the flows form one component), then one change per
    test: both solves must equal the reference's, on the scan and on the
    heap path, and the second must replay exactly the rounds the change
    leaves alone.  A change that touches no link in use keeps every
    round instead."""

    A, B, C, D, E = ("a", "a'"), ("b", "b'"), ("c", "c'"), ("d", "d'"), ("e", "e'")
    Z, W, V, Y = ("z", "z'"), ("w", "w'"), ("v", "v'"), ("y", "y'")
    CAPS = {A: 2.0, B: 6.0, C: 12.0, D: 20.0, E: 30.0,
            Z: 80.0, W: 1000.0, V: 1000.0, Y: 3.0}
    BASE_ROUNDS = 5

    def _flows(self):
        # Admission order is not share order: D's flows come before C's.
        groups = [(self.A, 2), (self.B, 3), (self.D, 5), (self.C, 4),
                  (self.E, 5)]
        flow_links = {}
        for link, flows in groups:
            for _ in range(flows):
                flow_links[len(flow_links)] = [link, self.Z]
        # Private links of the last two flows: W's row is not the last.
        flow_links[17].append(self.W)
        flow_links[18].append(self.V)
        return flow_links

    def _agree(self, solver, flow_links, backlog):
        reference = ReferenceSolver()
        reference.bind(dict(self.CAPS))
        expected = reference.solve(
            {flow_id: list(path) for flow_id, path in flow_links.items()},
            backlog,
        )
        got = solver.solve(flow_links, backlog)
        assert got == expected
        assert list(got[0]) == list(expected[0])
        return got

    def _replay(self, change):
        """Solve the base epoch, let ``change`` edit the live flow map (or
        return new backlogs), solve again; return the second solve's
        kept, replayed and solved rounds and its result."""
        outcomes = []
        for gate in (ratesolver._HEAP_MIN_ROWS, 1):
            with mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", gate):
                flow_links = self._flows()
                backlog = {flow_id: 1e9 for flow_id in flow_links}
                solver = IndexedSolver()
                solver.bind(dict(self.CAPS))
                self._agree(solver, flow_links, backlog)
                assert solver.rounds_solved == self.BASE_ROUNDS
                backlog = change(flow_links, backlog) or backlog
                got = self._agree(solver, flow_links, backlog)
                outcomes.append((
                    solver.rounds_kept,
                    solver.rounds_replayed,
                    solver.rounds_solved - self.BASE_ROUNDS,
                    got,
                ))
        scanned, heaped = outcomes
        assert scanned == heaped
        return scanned

    @pytest.mark.parametrize("first, second", [
        (list, list), (list, tuple), (tuple, list), (tuple, tuple),
    ])
    def test_unchanged_paths_keep_every_round_in_any_container(
        self, first, second
    ):
        # The fabric passes tuples, other callers lists: a path equal by
        # value to the kept copy is no move, whatever its container.
        solver = IndexedSolver()
        solver.bind(dict(self.CAPS))
        flow_links = {
            flow_id: first(path) for flow_id, path in self._flows().items()
        }
        backlog = {flow_id: 1e9 for flow_id in flow_links}
        self._agree(solver, flow_links, backlog)
        again = {flow_id: second(path) for flow_id, path in flow_links.items()}
        self._agree(solver, again, backlog)
        assert solver.rounds_kept == self.BASE_ROUNDS
        assert solver.rounds_replayed == 0
        assert solver.rounds_solved == self.BASE_ROUNDS

    @pytest.mark.parametrize("container", [list, tuple])
    def test_a_path_changed_by_value_is_a_move_in_either_container(
        self, container
    ):
        def change(flow_links, backlog):
            flow_links[18] = container([self.E, self.Z, self.W])

        kept, replayed, solved, _ = self._replay(change)
        assert replayed < self.BASE_ROUNDS and solved > 0

    def test_an_arrival_on_round_zeros_link_replays_nothing(self):
        def change(flow_links, backlog):
            flow_links[100] = [self.A, self.Z]
            backlog[100] = 1e9

        kept, replayed, solved, _ = self._replay(change)
        assert replayed == 0 and solved == self.BASE_ROUNDS

    def test_a_changed_row_rising_above_the_shares_lets_replay_go_on(self):
        def change(flow_links, backlog):
            # Z's share starts at 80/20 = 4, level with D's round, and
            # climbs ahead of every round as the replay fixes its flows.
            flow_links[100] = [self.Z]

        kept, replayed, solved, _ = self._replay(change)
        assert replayed == self.BASE_ROUNDS and solved == 1

    def test_a_backlog_only_change_keeps_every_round(self):
        def change(flow_links, backlog):
            # D's flows turn into mice: D must leave the saturated set.
            return {**backlog, **{flow_id: 1e-6 for flow_id in range(5, 10)}}

        kept, replayed, solved, (_, saturated) = self._replay(change)
        assert kept == self.BASE_ROUNDS and replayed == solved == 0
        assert saturated == {self.B, self.C, self.E}

    def test_departure_of_a_round_zero_flow(self):
        def change(flow_links, backlog):
            del flow_links[0]  # A's share rises to tie with B's

        kept, replayed, solved, _ = self._replay(change)
        assert replayed == 0

    def test_a_path_edited_in_place(self):
        def change(flow_links, backlog):
            flow_links[16][0] = self.D  # from E to D: both change

        kept, replayed, solved, _ = self._replay(change)
        assert replayed == 3  # A, B and C

    def test_a_departure_that_renumbers_rows(self):
        def change(flow_links, backlog):
            del flow_links[17]  # W's row goes, V's takes its number

        kept, replayed, solved, _ = self._replay(change)
        assert replayed == 4  # every round but E's

    def test_a_changed_row_tied_at_the_share_stops_the_replay(self):
        def change(flow_links, backlog):
            # Flow 5 leaves D for Y, whose share 3/1 ties C's round.  Flow
            # 5 precedes C's flows, so the reference takes Y there.
            flow_links[5] = [self.Y, self.Z]

        kept, replayed, solved, (rates, _) = self._replay(change)
        assert replayed == 2  # A and B
        order = list(rates)
        assert order.index(5) < order.index(10)

    def test_a_burst_replays_a_third_of_its_rounds(self):
        topology = build_topology(
            "dragonfly", groups=8, routers_per_group=4, terminals=2
        )
        trace = TestSynchronizedBurst._burst(topology, 200)
        solver = IndexedSolver()
        runs = []
        for rate_solver in (solver, ReferenceSolver()):
            simulator = FabricSimulator(
                topology, congestion=congestion_policy("flow"),
                reroute_adaptively=True, solver=rate_solver,
            )
            runs.append(simulator.run(trace))
        assert runs[0] == runs[1]
        rounds = solver.rounds_replayed + solver.rounds_solved
        assert solver.rounds_replayed / rounds >= 0.35


class TestKeptComponents:
    """Components of the flow–link graph that no arrival, departure or
    reroute touched keep their logged rounds; the touched ones are
    replayed or solved, and the two are merged in the reference's order.

    Two islands of links, A and B, with admission interleaving them.
    Alone, A's rounds run A1 at 2, A2 at 7, A3 at 13 and B's run B1 at 2
    (three flows), B2 at 12, B3 at 38; the reference's whole epoch
    interleaves them, and the tie at 2 goes to A1, whose first flow (0)
    precedes B1's (1).  Every epoch is solved by one kept solver and
    checked, rates in order and saturated set, against a fresh
    reference.  The index is kept at every size here, and the walk to
    the touched components is never cut short (but see
    ``test_a_walk_over_most_flows_solves_the_whole_epoch``)."""

    A1, A2, A3 = ("a1", "a1'"), ("a2", "a2'"), ("a3", "a3'")
    B1, B2, B3 = ("b1", "b1'"), ("b2", "b2'"), ("b3", "b3'")
    C1 = ("c1", "c1'")
    P, Q = ("p", "p'"), ("q", "q'")
    CAPS = {A1: 4.0, A2: 9.0, A3: 20.0, B1: 6.0, B2: 16.0, B3: 40.0,
            C1: 1.0, P: 1.0, Q: 1.0}

    @pytest.fixture(autouse=True)
    def _keep_every_index(self):
        with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1), \
                mock.patch.object(ratesolver, "_WALK_MAX_SHARE", 1.0):
            yield

    def _flows(self):
        a1, a2, a3, b1, b2, b3 = (self.A1, self.A2, self.A3,
                                  self.B1, self.B2, self.B3)
        return {
            0: [a1, a2], 1: [b1], 2: [a1], 3: [b1, b2], 4: [a2, a3],
            5: [b1, b2, b3], 6: [a3], 7: [b3], 8: [b2],
        }

    def _solver(self):
        solver = IndexedSolver()
        solver.bind(dict(self.CAPS))
        return solver

    def _agree(self, solver, flow_links, remaining=None):
        """Solve, check against the reference, and return the result
        with the rounds this solve kept, replayed and solved."""
        reference = ReferenceSolver()
        reference.bind(dict(self.CAPS))
        expected = reference.solve(
            {flow_id: list(path) for flow_id, path in flow_links.items()},
            remaining,
        )
        before = (solver.rounds_kept, solver.rounds_replayed,
                  solver.rounds_solved)
        got = solver.solve(flow_links, remaining)
        assert got == expected
        assert list(got[0]) == list(expected[0])  # insertion order too
        after = (solver.rounds_kept, solver.rounds_replayed,
                 solver.rounds_solved)
        return got, tuple(b - a for a, b in zip(before, after))

    def _base(self):
        solver = self._solver()
        flow_links = self._flows()
        (rates, _), rounds = self._agree(solver, flow_links)
        assert rounds == (0, 0, 6)
        assert list(rates) == [0, 2, 1, 3, 5, 4, 8, 6, 7]
        return solver, flow_links

    def test_a_change_in_one_island_keeps_the_other(self):
        solver, flow_links = self._base()
        del flow_links[7]  # B3 changes; A is untouched
        _, (kept, replayed, solved) = self._agree(solver, flow_links)
        assert kept == 3  # A1, A2 and A3
        # B1 and B2 replay; B3's other flow (5) was fixed at B1.
        assert (replayed, solved) == (2, 0)

    def test_an_arrival_on_a_new_island_keeps_both(self):
        solver, flow_links = self._base()
        flow_links[9] = [self.C1]
        _, rounds = self._agree(solver, flow_links)
        assert rounds == (6, 0, 1)

    def test_tied_heads_go_by_first_fixed_flow(self):
        # A is touched and replays A1 at 2, tied with B's kept B1 at 2:
        # A1's first flow (0) comes before B1's (1), so A1 goes first.
        # A merge by share alone would put the kept round first.
        solver, flow_links = self._base()
        flow_links[9] = [self.A3]
        (rates, _), (kept, _, _) = self._agree(solver, flow_links)
        assert kept == 3  # B's rounds
        assert list(rates)[:5] == [0, 2, 1, 3, 5]

    def test_the_kept_side_can_win_the_tie(self):
        # Now B is touched and A kept: A1 still goes first.
        solver, flow_links = self._base()
        flow_links[9] = [self.B3]
        (rates, _), (kept, _, _) = self._agree(solver, flow_links)
        assert kept == 3  # A's rounds
        assert list(rates)[:5] == [0, 2, 1, 3, 5]

    def test_kept_rounds_take_the_backlog_test_again(self):
        # B1 carries three flows (1, 3 and 5): saturated while their
        # backlog is large, not once it drains, though B is never touched.
        solver = self._solver()
        flow_links = self._flows()
        large = {flow_id: 1e6 for flow_id in range(10)}
        (_, saturated), _ = self._agree(solver, flow_links, large)
        assert saturated == {self.B1}
        flow_links[9] = [self.A3]
        (_, saturated), (kept, _, _) = self._agree(solver, flow_links, large)
        assert kept == 3 and saturated == {self.B1, self.A3}
        drained = {**large, 1: 1e-6, 3: 1e-6, 5: 1e-6}
        (_, saturated), rounds = self._agree(solver, flow_links, drained)
        assert rounds == (5, 0, 0) and saturated == {self.A3}

    def test_a_departure_that_splits_an_island(self):
        # Flow 5 bridges B1, B2 and B3; without it B3 (flow 7) is an
        # island of its own, and a later change there keeps B1 and B2.
        solver, flow_links = self._base()
        del flow_links[5]
        self._agree(solver, flow_links)
        flow_links[9] = [self.B3]
        _, (kept, _, _) = self._agree(solver, flow_links)
        assert kept == 5  # A1, A2, A3, B1 and B2

    def test_a_reroute_onto_no_link(self):
        solver, flow_links = self._base()
        flow_links[7] = []  # its old link B3 stays in use by flow 5
        (rates, _), _ = self._agree(solver, flow_links)
        assert rates[7] == float("inf")
        flow_links[6] = []  # A3 stays in use: flow 4 crosses it
        self._agree(solver, flow_links)
        flow_links[8] = []  # B2 too, by flows 3 and 5
        self._agree(solver, flow_links)

    def test_changes_alternating_between_islands(self):
        solver, flow_links = self._base()
        for change in range(4):
            island = self.B2 if change % 2 else self.A1
            flow_links[10 + change] = [island]
            self._agree(solver, flow_links)
            del flow_links[10 + change]
            self._agree(solver, flow_links)

    def test_a_walk_over_most_flows_solves_the_whole_epoch(self):
        # An arrival on B3 reaches B's five flows and itself, six of ten:
        # past half, so nothing is kept: the whole log replays up to B3.
        solver, flow_links = self._base()
        flow_links[9] = [self.B3]
        with mock.patch.object(ratesolver, "_WALK_MAX_SHARE", 0.5):
            _, rounds = self._agree(solver, flow_links)
        assert rounds == (0, 5, 1)
        # An arrival on A3 reaches four flows and itself: A is walked.
        del flow_links[9]
        self._agree(solver, flow_links)
        flow_links[10] = [self.A3]
        with mock.patch.object(ratesolver, "_WALK_MAX_SHARE", 0.5):
            _, (kept, _, _) = self._agree(solver, flow_links)
        assert kept == 3  # B's rounds

    def test_a_kept_index_whose_solves_logged_no_rounds(self):
        # Solves of flows on no link log no rounds.  Later changes join
        # flows of those epochs into one component, P–Q, and a solve
        # that touches it must re-solve all of it: flow 12 was fixed at
        # P with flow 8, and P is reached only through flow 8's path.
        solver = self._solver()
        flow_links = {flow_id: [] for flow_id in range(8)}
        self._agree(solver, flow_links)
        flow_links.update({flow_id: [] for flow_id in range(8, 12)})
        self._agree(solver, flow_links)
        for flow_id in range(4):
            del flow_links[flow_id]
        self._agree(solver, flow_links)
        flow_links[8] = [self.P, self.Q]
        flow_links[12] = [self.P]
        _, rounds = self._agree(solver, flow_links)
        assert rounds == (0, 0, 1)  # 8 and 12 at P
        del flow_links[4]
        flow_links[13] = [self.Q]
        (rates, _), rounds = self._agree(solver, flow_links)
        assert rates[12] == 0.5
        assert rounds == (0, 0, 2)  # P, then Q


class TestBacklogShortCircuit:
    """A bottleneck whose fixed flows could not reach the backlog
    threshold even each at the solve's largest backlog skips the sum.
    Around the bound, the result must still equal the reference's."""

    LINK = ("x", "y")
    CAP = 25e9

    class _Counting(dict):
        """A backlog map that counts its lookups."""

        def __init__(self, backlogs):
            super().__init__(backlogs)
            self.gets = 0

        def get(self, key, default=None):
            self.gets += 1
            return super().get(key, default)

    def _solve(self, per_flow):
        flow_links = {flow_id: [self.LINK] for flow_id in range(4)}
        remaining = {flow_id: per_flow for flow_id in flow_links}
        reference = ReferenceSolver()
        reference.bind({self.LINK: self.CAP})
        expected = reference.solve(flow_links, remaining)
        solver = IndexedSolver()
        solver.bind({self.LINK: self.CAP})
        counting = self._Counting(remaining)
        got = solver.solve(flow_links, counting)
        assert got == expected
        return got[1], counting.gets

    @pytest.mark.parametrize("scale, summed", [
        (1 - 1e-12, False),  # under the bound: no sum
        (1 + 1e-12, True),  # over it: summed, and below the threshold
    ])
    def test_around_the_bound(self, scale, summed):
        bound = ratesolver._BACKLOG_FLOOR * self.CAP / 4
        saturated, gets = self._solve(bound * scale)
        assert saturated == set()
        assert (gets > 0) == summed

    @pytest.mark.parametrize("scale", [1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9])
    def test_at_the_threshold(self, scale):
        # Inside the margin the exact test decides, as in the reference.
        at = ratesolver.CONGESTION_BACKLOG_THRESHOLD * self.CAP / 4
        _, gets = self._solve(at * scale)
        assert gets > 0


class TestLowConcurrencyEpochs:
    """Tiny epochs, link-disjoint or not (the fabric solves only the
    latter, but the solver takes both): rates, their insertion order and
    the saturated set must all match the reference."""

    CAPS = {AB: 10.0, BC: 4.0, CD: 7.0, ("d", "e"): 4.0, ("e", "f"): 9.0}
    DE, EF = ("d", "e"), ("e", "f")

    def _agree(self, flow_links, remaining_bytes=None):
        reference = ReferenceSolver()
        indexed = IndexedSolver()
        for solver in (reference, indexed):
            solver.bind(dict(self.CAPS))
        expected = reference.solve(dict(flow_links), remaining_bytes)
        got = indexed.solve(dict(flow_links), remaining_bytes)
        assert got == expected
        assert list(got[0]) == list(expected[0])  # insertion order too
        return got

    def test_one_flow(self):
        rates, saturated = self._agree({7: [AB, BC, CD]})
        assert rates == {7: 4.0} and saturated == set()

    def test_disjoint_flows_distinct_capacities(self):
        rates, saturated = self._agree(
            {1: [AB], 2: [BC], 3: [CD], 4: [self.EF]}
        )
        assert list(rates.items()) == [
            (2, 4.0), (3, 7.0), (4, 9.0), (1, 10.0),
        ]
        assert saturated == set()

    def test_disjoint_flows_tied_capacities(self):
        # BC and DE tie at 4.0: the earlier-admitted flow is fixed first.
        rates, _ = self._agree({5: [self.DE], 3: [AB, BC], 9: [CD]})
        assert list(rates.items()) == [(5, 4.0), (3, 4.0), (9, 7.0)]

    def test_empty_path(self):
        rates, _ = self._agree({1: [], 2: [BC], 3: [], 4: [AB]})
        assert list(rates.items()) == [
            (2, 4.0), (4, 10.0), (1, float("inf")), (3, float("inf")),
        ]
        rates, _ = self._agree({1: [], 3: []})
        assert rates == {1: float("inf"), 3: float("inf")}

    def test_detour_crossing_one_link_twice(self):
        # A single flow, but AB carries it twice: it contends with itself.
        rates, _ = self._agree({1: [AB, CD, AB]})
        assert rates == {1: 5.0}  # AB counts the flow twice: 10 / 2
        self._agree({1: [AB, self.DE, AB], 2: [CD]})

    def test_two_flows_share_a_link(self):
        rates, saturated = self._agree({1: [AB, BC], 2: [BC, CD]})
        assert rates == {1: 2.0, 2: 2.0} and saturated == set()

    def test_three_flows_share_a_link(self):
        flows = {1: [AB, BC], 2: [BC], 3: [CD, BC]}
        rates, saturated = self._agree(flows)
        assert set(rates.values()) == {4.0 / 3} and saturated == {BC}
        _, saturated = self._agree(flows, {1: 1e-6, 2: 1e-6, 3: 1e-6})
        assert saturated == set()  # mice: no standing queue


class TestFabricIntegration:
    def test_solver_kwarg_takes_an_instance_or_none(self):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        assert isinstance(FabricSimulator(topology).solver, IndexedSolver)
        instance = ReferenceSolver()
        assert FabricSimulator(topology, solver=instance).solver is instance
        assert FabricSimulator(topology).solver is not (
            FabricSimulator(topology).solver
        )

    @pytest.mark.parametrize("bad", ["indexed", 42, ReferenceSolver])
    def test_solver_kwarg_rejects_anything_else(self, bad):
        topology = build_topology("two-tier", leaves=2, spines=2, terminals=2)
        with pytest.raises(ConfigurationError, match="solver"):
            FabricSimulator(topology, solver=bad)

    def test_runs_identical_across_solvers(self):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        reference = FabricSimulator(topology, solver=ReferenceSolver()).run(
            _uniform_flows(topology, 40)
        )
        indexed = FabricSimulator(topology).run(_uniform_flows(topology, 40))
        assert _stats_key(reference) == _stats_key(indexed)

    def test_a_simulator_binds_once_and_a_degraded_copy_matches(self):
        # A built topology never changes, so a simulator binds its solver
        # once, however many runs it makes.  A fabric with a link removed
        # is a new topology with its own simulator, and its run is
        # bit-identical to the reference solver's too.
        class CountingBinds(IndexedSolver):
            binds = 0

            def bind(self, capacities):
                self.binds += 1
                super().bind(capacities)

        def runs(solver):
            topology = build_topology(
                "dragonfly", groups=4, routers_per_group=3, terminals=2
            )
            switches = set(topology.switches)
            simulator = FabricSimulator(
                topology, solver=solver, reroute_adaptively=True
            )
            flows = _uniform_flows(topology, 30, size=1e7)
            first, second = simulator.run(flows), simulator.run(flows)
            victim = next(
                (u, v) for u, v in topology.graph.edges()
                if u in switches and v in switches
            )
            degraded = edited(topology, lambda graph: graph.remove_edge(*victim))
            return first, second, FabricSimulator(
                degraded, solver=solver, reroute_adaptively=True
            ).run(flows)

        reference = runs(ReferenceSolver())
        counting = CountingBinds()
        indexed = runs(counting)
        assert [_stats_key(s) for s in reference] == [
            _stats_key(s) for s in indexed
        ]
        assert _stats_key(indexed[0]) == _stats_key(indexed[1])
        assert _stats_key(indexed[2]) != _stats_key(indexed[0])
        # One bind per simulator: none between runs.
        assert counting.binds == 2

    @pytest.mark.parametrize("degrade", ["links", "switches"])
    def test_degraded_topologies_match(self, degrade):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        switches = set(topology.switches)
        graph = topology.graph.copy()
        if degrade == "links":
            # Every sixth switch-to-switch link (3 of 18).
            graph.remove_edges_from([
                (u, v) for u, v in graph.edges()
                if u in switches and v in switches
            ][::6])
        else:
            # One router and its terminals.
            victim = topology.switches[0]
            graph.remove_nodes_from(
                [n for n in graph.neighbors(victim) if n not in switches]
                + [victim]
            )
        degraded = Topology("degraded", graph)
        reference = FabricSimulator(degraded, solver=ReferenceSolver()).run(
            _uniform_flows(degraded, 25)
        )
        indexed = FabricSimulator(degraded).run(_uniform_flows(degraded, 25))
        assert _stats_key(reference) == _stats_key(indexed)


class TestSynchronizedBurst:
    """Hundreds of concurrent flows, where water-filling cost explodes.

    Uniform arrivals keep a few dozen flows concurrent, so the solver is
    a minority of the run.  Here every flow starts within a 320 us
    window, the solver sees the whole trace at once, and the indexed
    solver must stay bit-identical while beating the reference loop.
    """

    FLOWS = 320
    MIN_SPEEDUP = 2.0

    @staticmethod
    def _burst(topology, count):
        rng = RandomSource(seed=7, name="bench/fabric-burst")
        terminals = list(topology.terminals)
        trace = []
        for index in range(count):
            source, destination = rng.sample(terminals, 2)
            trace.append(
                Flow(
                    source=source, destination=destination, size=2e6,
                    start_time=index * 1e-6, flow_id=50_000 + index,
                )
            )
        return trace

    def _run(self, topology, solver, count):
        simulator = FabricSimulator(
            topology,
            congestion=congestion_policy("flow"),
            reroute_adaptively=True,
            solver=solver,
        )
        trace = self._burst(topology, count)
        begin = time.process_time()
        stats = simulator.run(trace)
        return time.process_time() - begin, stats

    def test_indexed_matches_and_doubles_the_reference(self):
        topology = build_topology(
            "dragonfly", groups=8, routers_per_group=4, terminals=2
        )
        self._run(topology, IndexedSolver(), 64)  # warm the route cache
        reference_cpu, reference = self._run(
            topology, ReferenceSolver(), self.FLOWS
        )
        indexed_cpu, indexed = self._run(topology, IndexedSolver(), self.FLOWS)
        assert indexed == reference
        speedup = reference_cpu / indexed_cpu
        assert speedup >= self.MIN_SPEEDUP, (
            f"indexed {indexed_cpu:.2f} s CPU vs reference "
            f"{reference_cpu:.2f} s: {speedup:.2f}x"
        )


class TestNumpyUnavailable:
    def test_reference_path_survives_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        solver = ReferenceSolver()
        solver.bind(dict(CAPS))
        rates, saturated = solver.solve({1: [AB]})
        assert rates == {1: 10.0} and saturated == set()

    def test_default_solver_needs_no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        solver = IndexedSolver()
        solver.bind(dict(CAPS))
        assert solver.solve({1: [AB], 2: [AB]}) == ({1: 5.0, 2: 5.0}, set())


class TestDegradedAndAdaptiveRuns:
    """Whole runs the reproduction's own workloads never make: fabrics
    degraded before the run, and hot-flow detours under adaptive
    rerouting.  The indexed solver must give the reference's
    ``FlowStats`` bit for bit."""

    @staticmethod
    def _degraded(kind):
        from repro.sweep.targets import _FABRIC_TOPOLOGIES

        topology = build_topology(kind, **_FABRIC_TOPOLOGIES[kind])
        switches = set(topology.switches)
        victim = topology.terminals[-1]

        def degrade(graph):
            link = next(
                (u, v) for u, v in graph.edges()
                if u in switches and v in switches
            )
            graph.remove_edge(*link)
            [switch] = graph.adj[victim]
            graph.remove_edge(victim, switch)

        return edited(topology, degrade)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("kind", ["dragonfly", "fat-tree", "hyperx",
                                      "torus", "two-tier"])
    def test_degraded_fabric_runs_match_the_reference(self, kind, adaptive):
        def run(solver):
            topology = self._degraded(kind)
            return FabricSimulator(
                topology, congestion=congestion_policy("flow"),
                reroute_adaptively=adaptive, solver=solver,
                rng=RandomSource(seed=3, name="degraded"),
            ).run(_uniform_flows(topology, 40, size=2e7))

        reference = run(ReferenceSolver())
        assert any(s.dropped for s in reference)
        assert run(IndexedSolver()) == reference

    @pytest.mark.parametrize("seed", range(5))
    def test_hot_flow_detours_match_the_reference(self, seed):
        topology = build_topology(
            "dragonfly", groups=4, routers_per_group=3, terminals=2
        )
        rng = RandomSource(seed=seed, name="incast")
        hot = topology.terminals[-1]
        flows = [
            Flow(source=source, destination=hot, size=5e7,
                 start_time=index * 1e-6, flow_id=index)
            for index, source in enumerate(
                rng.sample(list(topology.terminals[:-1]), 8)
            )
        ]
        moves = []
        move = fabric_module._Epoch._move

        def counting_move(epoch, flow_id, path, links):
            assert type(path) is tuple and type(links) is tuple
            moves.append(flow_id)
            move(epoch, flow_id, path, links)

        results = []
        for solver in (ReferenceSolver(), IndexedSolver()):
            simulator = FabricSimulator(
                topology, congestion=congestion_policy("flow"),
                reroute_adaptively=True, solver=solver,
                rng=RandomSource(seed=seed, name="detours"),
            )
            with mock.patch.object(fabric_module._Epoch, "_move", counting_move):
                results.append(simulator.run(flows))
        assert moves
        assert results[0] == results[1]
