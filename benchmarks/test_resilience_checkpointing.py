"""Experiment C16 — §III.C: fabric-attached persistence for resilience.

"The design separates persistent memory, the first storage tier, from
processing. It ensures global accessibility for resilience and capacity,
while maintaining low latency for local access."

A 24-hour job checkpoints 64 GB/node under Young/Daly-optimal intervals.
We sweep the allocation size (1k -> 100k nodes, node MTBF 5 years) and the
checkpoint target: parallel filesystem, node-local SSD (fast but lost with
the node), and fabric-attached persistent memory.

Expected shape: machine efficiency collapses with scale on the PFS
(checkpoint cost ~70 s against an MTBF measured in minutes at 100k nodes),
while fabric PM holds high efficiency across the sweep — the quantified
version of "global accessibility for resilience".
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.scheduling.checkpointing import (
    CheckpointedExecution,
    FailureModel,
    fabric_pm_target,
    local_ssd_target,
    parallel_filesystem_target,
)

YEAR = 365.25 * 86_400
NODE_COUNTS = (1_000, 10_000, 100_000)
TARGETS = (parallel_filesystem_target(), local_ssd_target(), fabric_pm_target())


def run_experiment():
    rows = []
    for nodes in NODE_COUNTS:
        failures = FailureModel(node_mtbf=5 * YEAR, nodes=nodes)
        for target in TARGETS:
            execution = CheckpointedExecution(
                work_time=24 * 3600.0,
                checkpoint_bytes_per_node=64e9,
                failures=failures,
                target=target,
            )
            rows.append(
                (
                    nodes,
                    target.name,
                    failures.system_mtbf / 3600.0,
                    execution.checkpoint_cost,
                    execution.optimal_interval / 60.0,
                    execution.efficiency(),
                )
            )
    return rows


def test_c16_resilience_checkpointing(record):
    rows = run_experiment()

    table = Table(
        "C16 (SIII.C): checkpointed efficiency of a 24 h job, 64 GB/node",
        ["nodes", "checkpoint target", "system MTBF (h)", "ckpt cost (s)",
         "Young-Daly interval (min)", "machine efficiency"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C16_resilience_checkpointing",
        table,
        notes=(
            "Paper claim: the fabric-attached persistent tier 'ensures global\n"
            "accessibility for resilience'. Expected: PFS efficiency collapses\n"
            "with scale; fabric PM stays high; node-local SSD is fast but pays\n"
            "the lost-checkpoint restart penalty."
        ),
    )

    efficiency = {(nodes, target): e for nodes, target, _, _, _, e in rows}
    # Fabric PM dominates the PFS at every scale.
    for nodes in NODE_COUNTS:
        assert efficiency[(nodes, "fabric-pm")] > efficiency[(nodes, "parallel-fs")]
    # The gap widens with scale.
    gap_small = (
        efficiency[(1_000, "fabric-pm")] - efficiency[(1_000, "parallel-fs")]
    )
    gap_large = (
        efficiency[(100_000, "fabric-pm")] - efficiency[(100_000, "parallel-fs")]
    )
    assert gap_large > gap_small
    # At extreme scale the PFS loses >= 25% of the machine; fabric PM < 15%.
    assert efficiency[(100_000, "parallel-fs")] < 0.75
    assert efficiency[(100_000, "fabric-pm")] > 0.85
