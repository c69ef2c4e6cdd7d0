"""Experiment C12 — §III.C: in-network offload of bulk all-reduce.

"With this framework in place remote memory access and message passing can
be offloaded efficiently to specialized network hardware as can complex
communication patterns, the bulk-data all reduction operations used in
training for example."

We price the gradient all-reduce of a 100M-parameter data-parallel
training step across node counts and message sizes, comparing host-based
ring (bandwidth optimal), recursive doubling (latency optimal) and the
fabric-offloaded reduction tree.

Expected shape: the tree wins tiny messages, the ring wins bulk messages
among host algorithms, and in-network offload dominates both at every
size, with the advantage growing with node count (latency terms collapse
from O(p) / O(log2 p) to O(log_radix p)).
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.interconnect.collectives import (
    CollectiveModel,
    training_step_communication,
)

NODE_COUNTS = (16, 256, 4096)
MESSAGE_SIZES = (8e3, 4e6, 400e6)  # barrier-ish, activation, full gradients


def run_experiment():
    rows = []
    for nodes in NODE_COUNTS:
        model = CollectiveModel(nodes=nodes)
        for size in MESSAGE_SIZES:
            ring = model.allreduce_ring(size)
            tree = model.allreduce_tree(size)
            offload = model.allreduce_in_network(size)
            rows.append(
                (
                    nodes,
                    size / 1e6,
                    ring * 1e3,
                    tree * 1e3,
                    offload * 1e3,
                    min(ring, tree) / offload,
                )
            )
    return rows


def training_impact():
    """Step-time impact for a 100M-parameter model at 256 nodes."""
    model = CollectiveModel(nodes=256)
    gradients = 400e6  # 100M params x 4 B
    host = training_step_communication(model, gradients, offload=False)
    offloaded = training_step_communication(model, gradients, offload=True)
    return host, offloaded


def test_c12_collective_offload(record):
    rows = run_experiment()

    table = Table(
        "C12 (SIII.C): all-reduce time by implementation (ms)",
        ["nodes", "message (MB)", "ring (ms)", "tree (ms)", "in-network (ms)",
         "offload speedup"],
    )
    for row in rows:
        table.add_row(*row)
    host, offloaded = training_impact()
    record(
        "C12_collective_offload",
        table,
        notes=(
            "Paper claim: bulk all-reduce offloaded to specialised network\n"
            "hardware. 100M-parameter gradient sync at 256 nodes:\n"
            f"host-based {host * 1e3:.2f} ms -> in-network {offloaded * 1e3:.2f} ms "
            f"({host / offloaded:.1f}x)."
        ),
    )

    by_key = {(nodes, size): (ring, tree, offload)
              for nodes, size, ring, tree, offload, _ in rows}
    for nodes in NODE_COUNTS:
        # Tree beats ring on the smallest message; ring beats tree on bulk.
        small_ring, small_tree, _ = by_key[(nodes, MESSAGE_SIZES[0] / 1e6)]
        bulk_ring, bulk_tree, _ = by_key[(nodes, MESSAGE_SIZES[-1] / 1e6)]
        assert small_tree < small_ring
        assert bulk_ring < bulk_tree
        # Offload dominates everywhere.
        for size in MESSAGE_SIZES:
            ring, tree, offload = by_key[(nodes, size / 1e6)]
            assert offload <= ring and offload <= tree
    # Offload advantage grows with scale for small messages.
    speedups = {
        nodes: next(s for n, size, *_, s in rows
                    if n == nodes and size == MESSAGE_SIZES[0] / 1e6)
        for nodes in NODE_COUNTS
    }
    assert speedups[4096] > speedups[16]
