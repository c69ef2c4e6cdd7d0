"""Property tests for the rate solvers: bit-identity and max-min fairness.

The randomised differential in ``repro.validate`` drives whole fabrics;
this suite attacks the solver layer directly with adversarial epoch
streams — arbitrary capacities, zero-length paths, repeated links
(multiplicity), partial ``remaining_bytes`` maps, and add/remove churn
across epochs so incremental solvers are exercised, not just their first
solve.

Two kinds of property:

* every registered solver is bit-identical to the reference: equality is
  ``==`` on the full result tuple, rates and saturated sets, never approx;
* the default solver's rates satisfy the *definition* of a max-min fair
  allocation, checked without reference to any other implementation.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.interconnect.ratesolver import SOLVERS, default_solver_name, get_solver

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


def _fast_solvers():
    """Every registered solver except the reference (numpy if installed)."""
    names = []
    for name in sorted(SOLVERS):
        if name == "reference":
            continue
        try:
            get_solver(name)
        except ConfigurationError:
            continue  # numpy is not installed
        names.append(name)
    return names


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
    reference = get_solver("reference")
    reference.bind(dict(capacities))
    solvers = [get_solver(name) for name in _fast_solvers()]
    for solver in solvers:
        solver.bind(dict(capacities))
    for flow_links, remaining in epochs:
        expected = reference.solve(dict(flow_links), remaining)
        for solver in solvers:
            assert solver.solve(dict(flow_links), remaining) == expected, (
                solver.name
            )


@given(stream=epoch_streams())
@settings(max_examples=20, deadline=None)
def test_rebind_mid_stream_is_transparent(stream):
    capacities, epochs = stream
    reference = get_solver("reference")
    reference.bind(dict(capacities))
    solvers = [get_solver(name) for name in _fast_solvers()]
    for flow_links, remaining in epochs:
        expected = reference.solve(dict(flow_links), remaining)
        for solver in solvers:
            # Rebinding (what the fabric does on topology mutations) drops
            # any incremental state; results must be unchanged.
            solver.bind(dict(capacities))
            assert solver.solve(dict(flow_links), remaining) == expected, (
                solver.name
            )


@given(stream=epoch_streams())
@settings(max_examples=60, deadline=None)
def test_default_solver_is_max_min_fair(stream):
    """Feasible, and every flow is bottlenecked where it is the largest.

    A rate vector is max-min fair exactly when no link is over capacity
    and every flow crosses a full link on which no other flow gets more.
    Flows with zero-length paths cross nothing and are unconstrained.
    """
    capacities, epochs = stream
    solver = get_solver(default_solver_name())
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
