"""The definition of a max-min fair allocation, as a test assertion.

Shared by the solver property suite and the checks on real fabric runs,
so both judge rates by the same definition and the same slack.
"""

from collections import Counter

#: Rounding slack of the definition checks: a link's load may exceed its
#: capacity by accumulated float error only, and a link counts as full
#: when its leftover is within that error.
CAPACITY_SLACK = 1e-12
FULL_SLACK = 1e-9


def assert_max_min_fair(capacities, flow_links, rates):
    """Feasible, and every flow is bottlenecked where it is the largest.

    A rate vector is max-min fair exactly when no link is over capacity
    and every flow crosses a full link on which no other flow gets more.
    Flows with zero-length paths cross nothing and are unconstrained.
    """
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
