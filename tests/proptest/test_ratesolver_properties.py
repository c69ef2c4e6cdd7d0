"""Property tests for the rate solvers: bit-identity and max-min fairness.

The randomised differential in ``repro.validate`` drives whole fabrics;
this suite attacks the solver layer directly with adversarial epoch
streams — arbitrary capacities, zero-length paths, repeated links
(multiplicity), partial ``remaining_bytes`` maps, and add/remove churn
across epochs so a solver reused epoch after epoch is exercised, not
just its first solve.

Two kinds of property:

* :class:`IndexedSolver`, the fabric's solver, is bit-identical to
  :class:`ReferenceSolver`: equality is ``==`` on the full result tuple,
  rates and saturated sets, never approx;
* its rates satisfy the *definition* of a max-min fair allocation,
  checked without reference to any other implementation.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.ratesolver import IndexedSolver, ReferenceSolver

#: A small directed-link population: a square of switches with a chord and
#: two terminal attachments, enough for shared bottlenecks and detours.
LINKS = (
    ("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0"),
    ("s0", "s2"), ("t0", "s0"), ("s3", "t1"),
)

#: Rounding slack of the definition checks: a link's load may exceed its
#: capacity by accumulated float error only, and a link counts as full
#: when its leftover is within that error.
CAPACITY_SLACK = 1e-12
FULL_SLACK = 1e-9


@st.composite
def epoch_streams(draw):
    """A capacity map plus a stream of evolving flow-set epochs."""
    capacities = {
        link: draw(st.floats(min_value=1.0, max_value=100.0))
        for link in LINKS
    }
    epochs = []
    flow_links = {}
    next_id = 0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        for flow_id in list(flow_links):  # completions
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                del flow_links[flow_id]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            length = draw(st.integers(min_value=0, max_value=4))
            flow_links[next_id] = [
                draw(st.sampled_from(LINKS)) for _ in range(length)
            ]
            next_id += 1
        remaining = None
        if draw(st.booleans()):
            remaining = {
                flow_id: draw(st.floats(min_value=0.0, max_value=1e7))
                for flow_id in flow_links
                if draw(st.booleans())
            }
        epochs.append((dict(flow_links), remaining))
    return capacities, epochs


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_solvers_bit_identical_over_epoch_streams(stream):
    capacities, epochs = stream
    reference = ReferenceSolver()
    reference.bind(dict(capacities))
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    for flow_links, remaining in epochs:
        expected = reference.solve(dict(flow_links), remaining)
        assert solver.solve(dict(flow_links), remaining) == expected


@given(stream=epoch_streams())
@settings(max_examples=20, deadline=None)
def test_rebind_mid_stream_is_transparent(stream):
    capacities, epochs = stream
    reference = ReferenceSolver()
    reference.bind(dict(capacities))
    solver = IndexedSolver()
    for flow_links, remaining in epochs:
        expected = reference.solve(dict(flow_links), remaining)
        # Rebinding (what the fabric does on topology mutations) must
        # leave results unchanged.
        solver.bind(dict(capacities))
        assert solver.solve(dict(flow_links), remaining) == expected


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_default_solver_is_max_min_fair(stream):
    """Feasible, and every flow is bottlenecked where it is the largest.

    A rate vector is max-min fair exactly when no link is over capacity
    and every flow crosses a full link on which no other flow gets more.
    Flows with zero-length paths cross nothing and are unconstrained.
    """
    capacities, epochs = stream
    solver = IndexedSolver()
    solver.bind(dict(capacities))
    for flow_links, remaining in epochs:
        rates, _ = solver.solve(dict(flow_links), remaining)
        assert rates.keys() == flow_links.keys()
        load = Counter()
        top = {}
        for flow_id, links in flow_links.items():
            for link in links:
                load[link] += rates[flow_id]
                top[link] = max(top.get(link, 0.0), rates[flow_id])
        for link, carried in load.items():
            assert carried <= capacities[link] * (1 + CAPACITY_SLACK), link
        for flow_id, links in flow_links.items():
            if not links:
                assert rates[flow_id] == float("inf")
                continue
            assert any(
                load[link] >= capacities[link] * (1 - FULL_SLACK)
                and rates[flow_id] >= top[link] * (1 - FULL_SLACK)
                for link in links
            ), (flow_id, links, rates)
