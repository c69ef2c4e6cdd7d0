"""Recovery machinery: live checkpoint-restart and standard fault bindings.

:class:`CheckpointPlan` is the *live* counterpart of the analytical
:class:`~repro.scheduling.checkpointing.CheckpointedExecution`: instead of
a closed-form expected time it gives the cluster simulator the arithmetic
it needs per attempt — how long an attempt takes including checkpoint
writes, and how much progress survives a kill. The same
:class:`~repro.scheduling.checkpointing.CheckpointTarget` presets
(parallel filesystem, local SSD, fabric-attached persistent memory) feed
both models via :meth:`CheckpointPlan.from_target`, so simulated and
analytical results are directly comparable.

:func:`bind_cluster` wires a :class:`~repro.resilience.injector.FaultInjector`
to the cluster's reaction (node faults -> kill/repair) with duck-typed
callbacks, keeping the import graph acyclic: the scheduling layer never
imports resilience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.resilience.faults import FaultEvent, FaultKind
from repro.resilience.injector import FaultInjector
from repro.scheduling.checkpointing import (
    CheckpointTarget,
    FailureModel,
    young_daly_interval,
)


@dataclass(frozen=True)
class CheckpointPlan:
    """Periodic checkpointing as executed (not just expected).

    Attributes
    ----------
    interval:
        Useful work between checkpoints, seconds.
    cost:
        Time to write one checkpoint, seconds.
    restart_time:
        Overhead prepended to every post-failure attempt (relaunch plus
        checkpoint reload).
    """

    interval: float
    cost: float
    restart_time: float = 120.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        if self.cost < 0 or self.restart_time < 0:
            raise ConfigurationError("cost and restart_time must be non-negative")

    @classmethod
    def from_target(
        cls,
        target: CheckpointTarget,
        bytes_per_node: float,
        failures: FailureModel,
        interval: float = 0.0,
        restart_time: float = 120.0,
    ) -> "CheckpointPlan":
        """Build a plan for a checkpoint target under a failure model.

        ``interval`` of 0 picks the Young/Daly optimum for the target's
        checkpoint cost. Targets that do not survive node loss pay the
        same tripled restart as the analytical model (fall back to an
        older global checkpoint).
        """
        cost = target.checkpoint_time(bytes_per_node)
        if interval <= 0:
            interval = young_daly_interval(failures.system_mtbf, cost)
        restart = restart_time if target.survives_node_loss else 3.0 * restart_time
        return cls(interval=interval, cost=cost, restart_time=restart)

    def checkpoints_for(self, work: float) -> int:
        """Checkpoints written during ``work`` seconds of compute.

        One per full interval; the final partial segment does not
        checkpoint (the job ends instead).
        """
        if work <= 0:
            return 0
        return max(0, math.ceil(work / self.interval) - 1)

    def attempt_runtime(self, work: float) -> float:
        """Wall-clock of a failure-free attempt over ``work`` seconds of
        compute, including checkpoint writes (restart overhead excluded —
        the cluster adds it for post-failure attempts only)."""
        if work < 0:
            raise ValueError("work must be non-negative")
        return work + self.checkpoints_for(work) * self.cost

    def saved_work(self, elapsed: float, restart_overhead: float = 0.0) -> float:
        """Progress durably saved after ``elapsed`` seconds of an attempt.

        The attempt spends ``restart_overhead`` first, then alternates
        ``interval`` of work with ``cost`` of checkpoint write; only fully
        written checkpoints count.
        """
        progress_time = elapsed - restart_overhead
        if progress_time <= 0:
            return 0.0
        return math.floor(progress_time / (self.interval + self.cost)) * self.interval


def bind_cluster(injector: FaultInjector, cluster) -> None:
    """Route NODE faults at the cluster's site to kill/repair reactions.

    A fault that finds every node already down takes none, so its repair
    brings none back: a node returns only at the repair of the fault that
    took it.  ``cluster`` duck-types
    :class:`~repro.scheduling.cluster.ClusterSimulator`: it needs
    ``site.name``, ``failed_nodes``, ``fail_node()`` and ``repair_node()``.
    """
    site_name = cluster.site.name
    # The faults whose node is still down, by identity: two faults may
    # be equal in time, target and duration.
    holding = set()

    def react(event: FaultEvent, repaired: bool) -> None:
        if event.target != site_name:
            return
        if repaired:
            if id(event) in holding:
                holding.remove(id(event))
                cluster.repair_node()
        else:
            failed = cluster.failed_nodes
            cluster.fail_node()
            if cluster.failed_nodes > failed:
                holding.add(id(event))

    injector.on(FaultKind.NODE, react)
