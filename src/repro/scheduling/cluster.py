"""Event-driven single-site cluster simulator.

Simulates one site's job queue on the :class:`~repro.core.events.Simulation`
kernel: jobs arrive, the queue is served first come, first served (the
head starts as soon as enough devices are free, and nothing passes it),
and devices are held for each job's predicted runtime.
Per-job :class:`JobRecord` outcomes feed utilisation/wait/makespan metrics
for the scheduling and federation experiments.

Resilience (see :mod:`repro.resilience`): the cluster reacts to injected
faults. :meth:`ClusterSimulator.fail_node` takes a device out (killing a
victim job if none are idle), :meth:`ClusterSimulator.fail_job` kills one
job and requeues it under the optional retry policy — resuming from the
last checkpoint when a checkpoint plan is configured. Job conservation
(submitted = completed + dead + in-flight) holds at every instant;
:func:`repro.resilience.metrics.check_conservation` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, SchedulingError
from repro.core.events import Event, Simulation
from repro.core.rng import RandomSource
from repro.federation.site import Site
from repro.hardware.device import Device
from repro.observability.metrics import CounterSeries
from repro.observability.probes import (
    CATEGORY_FAULT,
    CATEGORY_JOB,
    CATEGORY_QUEUE,
    Telemetry,
)
from repro.scheduling.runtime import estimate_job
from repro.workloads.base import Job


@dataclass
class JobRecord:
    """Lifecycle record of one job through a cluster.

    ``ready_time`` is when the job last entered the queue (arrival plus
    staging, or the end of the backoff for a requeued job).

    Resilience fields: ``failures`` counts fault-induced kills,
    ``retries`` counts requeues after a kill, ``wasted_time`` accumulates
    per-kill lost seconds (elapsed minus checkpoint-saved progress), and
    ``dead`` marks jobs that exhausted their retry budget (they appear on
    the cluster's ``dead_jobs`` ledger and never finish).
    """

    job: Job
    device: Device
    submit_time: float
    predicted_runtime: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    transfer_time: float = 0.0
    ready_time: Optional[float] = None
    failures: int = 0
    retries: int = 0
    wasted_time: float = 0.0
    dead: bool = False
    killed_at: Optional[float] = None

    @property
    def queue_wait(self) -> float:
        if self.start_time is None:
            raise SchedulingError(f"{self.job.name} never started")
        return self.start_time - self.submit_time

    @property
    def completion_time(self) -> float:
        """Submission-to-finish time (includes queue wait and staging)."""
        if self.finish_time is None:
            raise SchedulingError(f"{self.job.name} never finished")
        return self.finish_time - self.submit_time


@dataclass
class _RunningJob:
    """Bookkeeping for a job currently holding devices.

    ``work`` is the intrinsic compute this attempt covers and
    ``restart_overhead`` the recovery prefix charged before it — the two
    components checkpoint arithmetic needs on a kill (``runtime`` also
    includes checkpoint-write time).
    """

    record: JobRecord
    runtime: float
    needed: int
    finish_time: float
    finish_event: Event
    work: float = 0.0
    restart_overhead: float = 0.0


class ClusterSimulator:
    """One site's FCFS queue and devices.

    Parameters
    ----------
    site:
        The site providing devices and noise characteristics.
    device:
        The device pool jobs run on. The cluster schedules over this single
        homogeneous pool; heterogeneous placement happens a level up in the
        meta-scheduler, which owns the choice of pool per job.
    simulation:
        An external simulation clock to share (a fresh one by default).
    telemetry:
        Optional :class:`~repro.observability.probes.Telemetry`; when set,
        the cluster records wait/service/recovery spans and job
        counters. ``None`` (the default) costs one ``is not None``
        test per lifecycle step.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` (duck-typed:
        ``max_retries`` and ``backoff(attempt)``) governing how
        killed jobs requeue. ``None`` retries immediately and without
        bound — every kill requeues with zero backoff.
    checkpoint:
        Optional :class:`~repro.resilience.recovery.CheckpointPlan`
        (duck-typed: ``attempt_runtime``/``saved_work``/``restart_time``).
        When set, attempts pay checkpoint-write overhead and kills resume
        from the last completed checkpoint instead of from scratch.
    rng:
        Optional :class:`~repro.core.rng.RandomSource` for victim
        selection on node failures; fork it from the run seed so campaigns
        compose with the sweep engine's determinism contract.  ``None``
        picks the lowest-id victim.
    """

    def __init__(
        self,
        site: Site,
        device: Device,
        simulation: Optional[Simulation] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        retry_policy: Optional["RetryPolicy"] = None,
        checkpoint: Optional["CheckpointPlan"] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        if site.count(device) < 1:
            raise ConfigurationError(f"{site.name} has no {device.name}")
        self.site = site
        self.device = device
        self.simulation = simulation or Simulation()
        self.telemetry = telemetry
        self.retry_policy = retry_policy
        self.checkpoint = checkpoint
        self.rng = rng
        self.capacity = site.count(device)
        #: Healthy-cluster size; ``capacity`` shrinks while nodes are down.
        self.nominal_capacity = self.capacity
        self._free = self.capacity
        self._queue: List[Tuple[JobRecord, float, int]] = []
        self._running: Dict[int, _RunningJob] = {}
        self.records: List[JobRecord] = []
        self._busy_device_seconds = 0.0
        # --- resilience state ---
        self.failed_nodes = 0
        self.dead_jobs: List[JobRecord] = []
        self.kill_times: List[float] = []
        self._useful_device_seconds = 0.0
        self._wasted_device_seconds = 0.0
        #: job_id -> (scheduled enqueue event, record): submissions still
        #: staging in plus kills waiting out their backoff.
        self._pending_enqueues: Dict[int, Tuple[Event, JobRecord]] = {}
        #: job_id -> intrinsic work not yet durably completed.
        self._remaining_work: Dict[int, float] = {}
        #: job_id -> restart overhead the next attempt must pay.
        self._restart_prefix: Dict[int, float] = {}
        #: job_id -> (work, restart_overhead) for the queued attempt.
        self._attempt_meta: Dict[int, Tuple[float, float]] = {}
        #: counter name -> this cluster's series, resolved at first use.
        self._series: Dict[str, CounterSeries] = {}

    def _count(self, name: str, amount: float = 1.0) -> None:
        """Add to this cluster's series (site and device labels) of ``name``."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = self.telemetry.counter(name).series(
                site=self.site.name, device=self.device.name
            )
        series.inc(amount)

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting in the queue."""
        return len(self._queue)

    @property
    def free_devices(self) -> int:
        """Devices not held by a running job."""
        return self._free

    def running_jobs(self) -> List[Tuple[int, int]]:
        """``(job_id, devices held)`` for every running job, id-sorted.

        The stable, public view fault bindings use to pick kill victims
        (e.g. memory DUEs in :func:`repro.resilience.memerrors.bind_memory`).
        """
        return [
            (job_id, self._running[job_id].needed)
            for job_id in sorted(self._running)
        ]

    @property
    def pending_requeues(self) -> int:
        """Jobs scheduled to (re)enter the queue: staging in or backing off."""
        return len(self._pending_enqueues)

    @property
    def useful_device_seconds(self) -> float:
        """Intrinsic work of completed jobs, in device-seconds."""
        return self._useful_device_seconds

    @property
    def wasted_device_seconds(self) -> float:
        """Device-seconds burned on killed attempts beyond saved progress."""
        return self._wasted_device_seconds

    # --- submission -----------------------------------------------------------

    def submit(self, job: Job, transfer_time: float = 0.0) -> JobRecord:
        """Queue a job at its arrival time (plus any staging delay)."""
        estimate = estimate_job(job, self.device, self.site)
        if not estimate.feasible:
            raise SchedulingError(
                f"{job.name} infeasible on {self.device.name}: "
                f"{estimate.infeasible_reason}"
            )
        if job.ranks > self.nominal_capacity:
            raise SchedulingError(
                f"{job.name} needs {job.ranks} x {self.device.name}, "
                f"cluster has {self.nominal_capacity}"
            )
        record = JobRecord(
            job=job,
            device=self.device,
            submit_time=job.arrival_time,
            predicted_runtime=estimate.time,
            transfer_time=transfer_time,
        )
        self.records.append(record)
        self._remaining_work[job.job_id] = estimate.time
        self._restart_prefix[job.job_id] = 0.0
        if self.telemetry is not None:
            self._count("cluster.jobs.submitted")
        ready_time = job.arrival_time + transfer_time
        delay = max(0.0, ready_time - self.simulation.now)
        self._schedule_enqueue(record, delay)
        return record

    def _schedule_enqueue(self, record: JobRecord, delay: float) -> None:
        event = self.simulation.schedule(delay, lambda: self._enqueue(record))
        self._pending_enqueues[record.job.job_id] = (event, record)

    def _enqueue(self, record: JobRecord) -> None:
        job_id = record.job.job_id
        self._pending_enqueues.pop(job_id, None)
        record.ready_time = self.simulation.now
        work = self._remaining_work.get(job_id, record.predicted_runtime)
        prefix = self._restart_prefix.get(job_id, 0.0)
        runtime = prefix + (
            self.checkpoint.attempt_runtime(work)
            if self.checkpoint is not None else work
        )
        self._attempt_meta[job_id] = (work, prefix)
        self._queue.append((record, runtime, record.job.ranks))
        self._dispatch()

    # --- dispatch loop -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Start queue heads, in ready order, while the head fits."""
        queue = self._queue
        while queue and queue[0][2] <= self._free:
            record, runtime, needed = queue.pop(0)
            self._start(record, runtime, needed)

    def _start(self, record: JobRecord, runtime: float, needed: int) -> None:
        record.start_time = self.simulation.now
        self._free -= needed
        self._busy_device_seconds += runtime * needed
        finish = self.simulation.now + runtime
        finish_event = self.simulation.schedule(
            runtime, lambda: self._finish(record, needed)
        )
        work, prefix = self._attempt_meta.pop(
            record.job.job_id, (runtime, 0.0)
        )
        self._running[record.job.job_id] = _RunningJob(
            record=record, runtime=runtime, needed=needed,
            finish_time=finish, finish_event=finish_event,
            work=work, restart_overhead=prefix,
        )
        if self.telemetry is not None:
            self._count("cluster.jobs.started")
            ready = record.ready_time
            if ready is not None and record.start_time > ready:
                self.telemetry.tracer.complete(
                    f"wait:{record.job.job_class.value}", CATEGORY_QUEUE,
                    ready, record.start_time,
                    job=record.job.name, site=self.site.name,
                )
            if record.killed_at is not None:
                # Recovery latency: kill instant to restart instant.
                self.telemetry.tracer.complete(
                    f"recover:{record.job.job_class.value}", CATEGORY_FAULT,
                    record.killed_at, record.start_time,
                    job=record.job.name, site=self.site.name,
                    attempt=record.failures,
                )
        record.killed_at = None

    def _finish(self, record: JobRecord, needed: int) -> None:
        record.finish_time = self.simulation.now
        self._free += needed
        del self._running[record.job.job_id]
        job_id = record.job.job_id
        self._useful_device_seconds += record.predicted_runtime * needed
        self._remaining_work.pop(job_id, None)
        self._restart_prefix.pop(job_id, None)
        if self.telemetry is not None:
            self._count("cluster.jobs.finished")
            self.telemetry.tracer.complete(
                f"run:{record.job.job_class.value}", CATEGORY_JOB,
                record.start_time, record.finish_time,
                job=record.job.name, site=self.site.name,
                device=self.device.name, ranks=needed,
            )
        self._dispatch()

    # --- fault handling -----------------------------------------------------------

    def fail_job(self, job_id: int) -> JobRecord:
        """Kill a running job: a fault takes its devices mid-attempt.

        Progress since the last completed checkpoint is lost. The job
        requeues after the retry policy's backoff (immediately without
        one) unless its retry budget is exhausted, in which case it joins
        the dead-job ledger. Raises
        :class:`SchedulingError` if the job is not currently running.
        """
        running = self._running.pop(job_id, None)
        if running is None:
            raise SchedulingError(f"job {job_id} is not running; cannot kill")
        now = self.simulation.now
        self.simulation.cancel(running.finish_event)
        elapsed = now - running.record.start_time
        remaining_sched = max(0.0, running.finish_time - now)
        self._free += running.needed
        self._busy_device_seconds -= remaining_sched * running.needed
        record = running.record
        record.failures += 1
        record.killed_at = now
        self.kill_times.append(now)
        saved = 0.0
        if self.checkpoint is not None:
            saved = min(
                self.checkpoint.saved_work(elapsed, running.restart_overhead),
                running.work,
            )
        wasted = max(0.0, elapsed - saved)
        record.wasted_time += wasted
        self._wasted_device_seconds += wasted * running.needed
        self._remaining_work[job_id] = max(0.0, running.work - saved)
        self._restart_prefix[job_id] = (
            self.checkpoint.restart_time if self.checkpoint is not None else 0.0
        )
        if self.telemetry is not None:
            self._count("cluster.jobs.killed")
            self.telemetry.tracer.complete(
                f"run:{record.job.job_class.value}", CATEGORY_JOB,
                record.start_time, now,
                job=record.job.name, site=self.site.name,
                device=self.device.name, killed=True,
            )
        record.start_time = None
        policy = self.retry_policy
        if policy is not None and record.failures > policy.max_retries:
            record.dead = True
            self.dead_jobs.append(record)
            self._remaining_work.pop(job_id, None)
            self._restart_prefix.pop(job_id, None)
            if self.telemetry is not None:
                self._count("cluster.jobs.dead")
            self._dispatch()
            return record
        record.retries += 1
        delay = (
            policy.backoff(record.failures - 1)
            if policy is not None else 0.0
        )
        if self.telemetry is not None:
            self._count("cluster.jobs.retried")
        self._schedule_enqueue(record, delay)
        self._dispatch()
        return record

    def fail_node(self) -> Optional[JobRecord]:
        """Take one device out of service (a node fault).

        An idle device is preferred; with none free, a victim among the
        running jobs is killed — weighted by footprint when an ``rng`` is
        configured (wider jobs occupy more nodes), the lowest job id
        otherwise. Returns the killed job's record, or ``None`` when no
        job died. No-op when every node has already failed.
        """
        if self.capacity <= 0:
            return None
        self.capacity -= 1
        self.failed_nodes += 1
        if self.telemetry is not None:
            self._count("cluster.nodes.failed")
        if self._free > 0:
            self._free -= 1
            return None
        ids = sorted(self._running)
        if self.rng is not None:
            victim_id = self.rng.choice(
                ids, weights=[self._running[i].needed for i in ids]
            )
        else:
            victim_id = ids[0]
        # The dead node eats one of the devices the kill frees.
        self._free -= 1
        return self.fail_job(victim_id)

    def repair_node(self) -> None:
        """Return one failed device to service and resume dispatching."""
        if self.failed_nodes == 0:
            return
        self.failed_nodes -= 1
        self.capacity += 1
        self._free += 1
        if self.telemetry is not None:
            self._count("cluster.nodes.repaired")
        self._dispatch()

    # --- runs and metrics -----------------------------------------------------------

    def run(self) -> List[JobRecord]:
        """Run the simulation to completion and return all records.

        Jobs on the dead-job ledger are an accounted outcome, not an
        error; anything else unfinished raises :class:`SchedulingError`.
        """
        self.simulation.run()
        unfinished = [
            r for r in self.records if r.finish_time is None and not r.dead
        ]
        if unfinished:
            names = ", ".join(r.job.name for r in unfinished[:5])
            raise SchedulingError(f"jobs never finished: {names}")
        return self.records

    @property
    def estimated_queue_wait(self) -> float:
        """Crude wait estimate: queued + running work over capacity.

        Used by bursting policies to decide overflow before running.
        """
        backlog = sum(runtime * needed for _, runtime, needed in self._queue)
        for running in self._running.values():
            backlog += (
                max(0.0, running.finish_time - self.simulation.now) * running.needed
            )
        return backlog / max(self.capacity, 1)

    def makespan(self) -> float:
        """Finish time of the last job."""
        return max(
            (r.finish_time for r in self.records if r.finish_time is not None),
            default=0.0,
        )

    def utilization(self) -> float:
        """Busy device-seconds over healthy capacity x makespan."""
        span = self.makespan()
        if span == 0:
            return 0.0
        return self._busy_device_seconds / (self.nominal_capacity * span)

    def goodput(self) -> float:
        """Useful device-seconds over healthy capacity x makespan.

        Counts each completed job's intrinsic work once — checkpoint
        writes, restart overheads and rolled-back progress are excluded —
        so ``goodput() <= utilization()`` always.
        """
        span = self.makespan()
        if span == 0:
            return 0.0
        return self._useful_device_seconds / (self.nominal_capacity * span)
