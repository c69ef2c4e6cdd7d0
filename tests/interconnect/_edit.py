"""Derived topologies for tests: a built topology's graph is read-only,
so a degraded or re-provisioned fabric is a deep copy, edited, wrapped
in a new :class:`~repro.interconnect.topology.Topology`."""

import copy

from repro.interconnect.topology import Topology


def edited(topology, edit):
    """A topology of the same name on a deep copy of ``topology.graph``
    that ``edit(graph)`` changed; the copy keeps every node, neighbour
    and edge order."""
    graph = copy.deepcopy(topology.graph)
    edit(graph)
    return Topology(topology.name, graph)
