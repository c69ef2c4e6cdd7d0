"""Resilience outcome metrics: goodput, waste, MTTI, retry histograms.

Definitions (documented once, used by tests, profiles and the CLI):

goodput
    Useful device-seconds over ``nominal_capacity * makespan``. *Useful*
    counts each completed job's intrinsic work exactly once — checkpoint
    writes, restart overheads and rolled-back progress are excluded — so
    goodput <= utilization always, with equality only on a fault-free run
    without checkpointing.
wasted work
    Device-seconds burned on killed attempts beyond what a checkpoint
    saved: lost compute, partial checkpoint writes and restart overheads.
MTTI (mean time to interrupt)
    Makespan over the number of job kills; ``inf`` on a fault-free run.
conservation
    ``submitted == completed + dead + in_flight`` at every instant, where
    in-flight spans queued, running and scheduled-to-requeue jobs. The
    cluster tracks each term structurally, so the check is an identity
    over independent counters, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.errors import SimulationError


@dataclass(frozen=True)
class ResilienceReport:
    """Headline resilience numbers for one cluster run."""

    submitted: int
    completed: int
    dead: int
    kills: int
    retries: int
    goodput: float
    utilization: float
    useful_device_seconds: float
    wasted_device_seconds: float
    makespan: float
    mtti: float
    retry_histogram: Dict[int, int] = field(default_factory=dict)


def conservation(cluster) -> Dict[str, int]:
    """The conservation tally for a cluster (see module docstring).

    ``cluster`` duck-types :class:`~repro.scheduling.cluster.ClusterSimulator`
    with the resilience extensions (``dead_jobs``, ``pending_requeues``).
    """
    submitted = len(cluster.records)
    completed = sum(1 for r in cluster.records if r.finish_time is not None)
    dead = len(cluster.dead_jobs)
    in_flight = (
        cluster.queue_depth + len(cluster._running) + cluster.pending_requeues
    )
    return {
        "submitted": submitted,
        "completed": completed,
        "dead": dead,
        "in_flight": in_flight,
    }


def check_conservation(cluster) -> Dict[str, int]:
    """Assert submitted = completed + dead + in-flight.

    Returns the tally; raises :class:`SimulationError` on violation.
    """
    tally = conservation(cluster)
    balance = tally["completed"] + tally["dead"] + tally["in_flight"]
    if balance != tally["submitted"]:
        raise SimulationError(
            f"job conservation violated on {cluster.site.name}: "
            f"submitted={tally['submitted']} but completed+dead+in_flight"
            f"={balance} ({tally})"
        )
    return tally


def cluster_report(cluster) -> ResilienceReport:
    """Build a :class:`ResilienceReport` from a finished cluster run."""
    tally = check_conservation(cluster)
    makespan = cluster.makespan()
    nominal = cluster.nominal_capacity
    goodput = (
        cluster.useful_device_seconds / (nominal * makespan)
        if makespan > 0 else 0.0
    )
    kills = len(cluster.kill_times)
    histogram: Dict[int, int] = {}
    for record in cluster.records:
        if record.finish_time is None and not record.dead:
            continue
        histogram[record.retries] = histogram.get(record.retries, 0) + 1
    return ResilienceReport(
        submitted=tally["submitted"],
        completed=tally["completed"],
        dead=tally["dead"],
        kills=kills,
        retries=sum(r.retries for r in cluster.records),
        goodput=goodput,
        utilization=cluster.utilization(),
        useful_device_seconds=cluster.useful_device_seconds,
        wasted_device_seconds=cluster.wasted_device_seconds,
        makespan=makespan,
        mtti=(makespan / kills) if kills else float("inf"),
        retry_histogram=histogram,
    )
