"""Property tests for the rate solvers: bit-identity and max-min fairness.

The randomised differential in ``repro.validate`` drives whole fabrics;
this suite attacks the solver layer directly with adversarial epoch
streams — arbitrary capacities, zero-length paths, repeated links
(multiplicity), partial ``remaining_bytes`` maps, and churn across epochs
so the link index :class:`IndexedSolver` keeps from one solve to the next
is exercised, not just its first solve.  Between solves a stream admits,
completes and reroutes flows, re-admits departed flow ids (which moves
them to the end of admission order) and edits path lists in place, all
on one live ``flow_links`` dict, the way the fabric mutates its own.

Two kinds of property:

* :class:`IndexedSolver`, the fabric's solver, is bit-identical to
  :class:`ReferenceSolver`: equality is ``==`` on the full result tuple,
  rates and saturated sets, never approx, and rates are inserted in the
  same order;
* its rates satisfy the *definition* of a max-min fair allocation,
  checked without reference to any other implementation.

Each property also runs with the size gate of the solver's heap at 1:
every epoch here is far below it, so the default runs cover the
share-list scan and the patched ones the heap.

A second stream, over *islands* of links that no path crosses between,
makes epochs of several disjoint components and confines each epoch's
arrivals, departures, reroutes and splits to one island, so the others
keep their logged rounds and the merge of kept and re-solved rounds is
what the reference is compared with.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import ratesolver
from repro.interconnect.ratesolver import IndexedSolver, ReferenceSolver
from tests.interconnect._maxmin import assert_max_min_fair

#: A small directed-link population: a square of switches both ways with
#: a chord and terminal attachments, enough for shared bottlenecks,
#: detours and links that lose their last flow.
LINKS = (
    ("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0"),
    ("s1", "s0"), ("s2", "s1"), ("s3", "s2"), ("s0", "s3"),
    ("s0", "s2"), ("t0", "s0"), ("s3", "t1"), ("t2", "s1"),
)

#: Link capacities: a few round values, so fair shares tie, or any float.
CAPACITIES = st.sampled_from((1.0, 2.0, 3.0)) | st.floats(
    min_value=1.0, max_value=100.0
)

PATHS = st.lists(st.sampled_from(LINKS), max_size=4)


@st.composite
def epoch_streams(draw):
    """A capacity map plus a stream of epochs, each a list of changes.

    Changes are applied in order to one live ``flow_links`` dict by
    :func:`live_epochs`: ``("admit", id, path)`` appends a flow (a
    departed id comes back at the end of admission order),
    ``("depart", id)`` completes one, ``("reroute", id, path)`` puts a new
    list under a surviving key, and ``("edit", id, index, link)`` mutates
    a path list in place.  A busy epoch completes and admits a batch of
    flows; a quiet one, like most fabric epochs, makes a single change.
    """
    capacities = {link: draw(CAPACITIES) for link in LINKS}
    epochs = []
    live = []
    departed = []
    next_id = 0
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        changes = []
        if draw(st.booleans()):  # busy
            for flow_id in list(live):
                if draw(st.integers(min_value=0, max_value=3)) == 0:
                    changes.append(("depart", flow_id))
                    live.remove(flow_id)
            for _ in range(draw(st.integers(min_value=0, max_value=6))):
                changes.append(("admit", next_id, draw(PATHS)))
                live.append(next_id)
                next_id += 1
            kinds = sorted(draw(st.sets(st.sampled_from(
                ("readmit", "reroute", "edit")
            ))))
        else:  # quiet
            kinds = [draw(st.sampled_from(
                ("admit", "depart", "readmit", "reroute", "edit")
            ))]
        for kind in kinds:
            if kind == "admit":
                changes.append(("admit", next_id, draw(PATHS)))
                live.append(next_id)
                next_id += 1
            elif kind == "readmit" and departed:
                flow_id = draw(st.sampled_from(departed))
                departed.remove(flow_id)
                changes.append(("admit", flow_id, draw(PATHS)))
                live.append(flow_id)
            elif kind == "depart" and live:
                flow_id = draw(st.sampled_from(live))
                changes.append(("depart", flow_id))
                live.remove(flow_id)
            elif kind == "reroute" and live:
                changes.append(
                    ("reroute", draw(st.sampled_from(live)), draw(PATHS))
                )
            elif kind == "edit" and live:
                changes.append((
                    "edit", draw(st.sampled_from(live)),
                    draw(st.integers(min_value=0, max_value=3)),
                    draw(st.sampled_from(LINKS)),
                ))
        departed += [change[1] for change in changes if change[0] == "depart"]
        remaining = None
        if draw(st.booleans()):
            remaining = {
                flow_id: draw(st.floats(min_value=0.0, max_value=1e7))
                for flow_id in live
                if draw(st.booleans())
            }
        epochs.append((changes, remaining))
    return capacities, epochs


def live_epochs(epochs):
    """Apply each epoch's changes to one live dict and yield it."""
    flow_links = {}
    for changes, remaining in epochs:
        for kind, flow_id, *change in changes:
            if kind == "depart":
                del flow_links[flow_id]
            elif kind == "edit":
                path = flow_links[flow_id]
                index, link = change
                if path:
                    path[index % len(path)] = link
                else:
                    path.append(link)
            else:  # admit or reroute: a new list under the key
                flow_links[flow_id] = list(change[0])
        yield flow_links, remaining


#: Three islands of five directed links each, as a chain: a path is a
#: run of consecutive links, so a flow on the middle of a chain bridges
#: the flows on either side of it, and its departure splits them.
ISLANDS = tuple(
    tuple((f"i{island}n{hop}", f"i{island}n{hop + 1}") for hop in range(5))
    for island in range(3)
)


@st.composite
def island_paths(draw, island):
    """A run of one island's consecutive links, or (rarely) no link."""
    links = ISLANDS[island]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return []
    start = draw(st.integers(min_value=0, max_value=len(links) - 1))
    end = draw(st.integers(min_value=start + 1, max_value=len(links)))
    return list(links[start:end])


@st.composite
def island_streams(draw):
    """A capacity map and epochs over the islands, in the shape of
    :func:`epoch_streams`: the first epoch populates every island, each
    later one changes a single island.  Backlogs are drawn near the
    congestion threshold, so kept rounds flip in and out of the
    saturated set."""
    capacities = {
        link: draw(CAPACITIES) for island in ISLANDS for link in island
    }
    live = {island: [] for island in range(len(ISLANDS))}
    next_id = 0
    changes = []
    for island in live:
        for _ in range(draw(st.integers(min_value=2, max_value=6))):
            changes.append(("admit", next_id, draw(island_paths(island))))
            live[island].append(next_id)
            next_id += 1
    epochs = [changes]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        island = draw(st.integers(min_value=0, max_value=len(ISLANDS) - 1))
        flows = live[island]
        changes = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from(("admit", "depart", "reroute")))
            if kind == "admit" or not flows:
                changes.append(("admit", next_id, draw(island_paths(island))))
                flows.append(next_id)
                next_id += 1
            elif kind == "depart":
                flow_id = draw(st.sampled_from(flows))
                changes.append(("depart", flow_id))
                flows.remove(flow_id)
            else:
                changes.append((
                    "reroute", draw(st.sampled_from(flows)),
                    draw(island_paths(island)),
                ))
        epochs.append(changes)
    streams = []
    for changes in epochs:
        remaining = None
        if draw(st.booleans()):
            remaining = {
                flow_id: draw(st.floats(min_value=0.0, max_value=0.2))
                for flow_id in range(next_id)
            }
        streams.append((changes, remaining))
    return capacities, streams


def _assert_matches_reference(solver, capacities, flow_links, remaining):
    """``solver`` on the live epoch equals a fresh reference, bit for bit."""
    reference = ReferenceSolver()
    reference.bind(dict(capacities))
    snapshot = {flow_id: list(path) for flow_id, path in flow_links.items()}
    expected = reference.solve(snapshot, remaining)
    got = solver.solve(flow_links, remaining)
    assert got == expected
    assert list(got[0]) == list(expected[0])  # rate insertion order too


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_solvers_bit_identical_over_epoch_streams(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    for flow_links, remaining in live_epochs(epochs):
        _assert_matches_reference(solver, capacities, flow_links, remaining)


@given(stream=epoch_streams())
@settings(max_examples=40, deadline=None)
def test_kept_index_is_exact_at_any_epoch_size(stream):
    # Small epochs rebuild their index every solve; keep it from the
    # first flow on so the incremental path sees every kind of change.
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_heap_selection_bit_identical_over_epoch_streams(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(stream=epoch_streams())
@settings(max_examples=40, deadline=None)
def test_heap_selection_over_the_kept_index(stream):
    # The fabric's large epochs take both: a kept index and the heap.
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1), \
            mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(first=epoch_streams(), second=epoch_streams())
@settings(max_examples=30, deadline=None)
def test_one_solver_through_unrelated_streams_without_rebind(first, second):
    # The second stream reuses flow ids with other paths and another
    # admission order; the kept index must notice without a bind().
    capacities, _ = first
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1):
        for _, epochs in (first, second):
            for flow_links, remaining in live_epochs(epochs):
                _assert_matches_reference(
                    solver, capacities, flow_links, remaining
                )


@given(stream=epoch_streams())
@settings(max_examples=20, deadline=None)
def test_rebind_mid_stream_is_transparent(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    for flow_links, remaining in live_epochs(epochs):
        # Rebinding (what the fabric does on topology mutations) must
        # leave results unchanged.
        solver.bind(dict(capacities))
        _assert_matches_reference(solver, capacities, flow_links, remaining)


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_default_solver_is_max_min_fair(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    for flow_links, remaining in live_epochs(epochs):
        rates, _ = solver.solve(flow_links, remaining)
        assert_max_min_fair(capacities, flow_links, rates)


@given(stream=epoch_streams())
@settings(max_examples=40, deadline=None)
def test_heap_selection_is_max_min_fair(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            rates, _ = solver.solve(flow_links, remaining)
            assert_max_min_fair(capacities, flow_links, rates)


@given(stream=island_streams())
@settings(max_examples=60, deadline=None)
def test_untouched_islands_keep_their_rounds_bit_identically(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(stream=island_streams())
@settings(max_examples=40, deadline=None)
def test_island_streams_with_the_walk_never_cut_short(stream):
    # Every touched component is walked, however many flows it holds,
    # so every untouched one keeps its rounds.
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1), \
            mock.patch.object(ratesolver, "_WALK_MAX_SHARE", 1.0):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(stream=island_streams())
@settings(max_examples=30, deadline=None)
def test_island_streams_on_the_heap(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1), \
            mock.patch.object(ratesolver, "_HEAP_MIN_ROWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            _assert_matches_reference(
                solver, capacities, flow_links, remaining
            )


@given(stream=island_streams())
@settings(max_examples=40, deadline=None)
def test_island_streams_are_max_min_fair(stream):
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    with mock.patch.object(ratesolver, "_KEEP_INDEX_MIN_FLOWS", 1):
        for flow_links, remaining in live_epochs(epochs):
            rates, _ = solver.solve(flow_links, remaining)
            assert_max_min_fair(capacities, flow_links, rates)
