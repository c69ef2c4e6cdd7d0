"""The sweep executor: supervised worker processes, timeouts, retries.

A sweep point can segfault, call ``os._exit`` or hang forever.  The
:class:`Supervisor` runs every sweep's points where that cannot take the
sweep down, one worker or many: each worker is a long-lived child
process driven over its own pipe, so the parent always knows *which
point* a worker is running and for how long:

* a worker that **dies** (non-zero exit, ``os._exit``, SIGKILL — under
  both ``fork`` and ``spawn`` start methods) is detected as EOF on its
  pipe; the in-flight point is requeued to a replacement worker;
* a point that **hangs** past ``timeout`` gets its worker killed and
  replaced, and the point is requeued;
* every lost attempt, and every exception a point raises, consumes one
  unit of the point's bounded **retry-with-backoff** budget; an
  exhausted budget lands the point in the sweep's error ledger
  (:class:`~repro.sweep.backends.PointFailure`) instead of raising,
  unless the :class:`SupervisorConfig` asks for fail-fast behaviour
  (:class:`~repro.sweep.backends.SweepPointError`).

Workers start by ``fork`` where the platform has it and by ``spawn``
otherwise (:func:`process_context`).  Either way a sweep pays a fixed
cost to start, handshake with and stop its children, however few its
points.

Retry/timeout/requeue counts surface both as
``sweep.supervisor.*`` counters on an optional
:class:`~repro.observability.metrics.MetricsRegistry` and as the
``SweepResult.harness`` summary dict.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.sweep.backends import (
    COUNTERS,
    PointFailure,
    SweepInterrupted,
    SweepPointError,
    _Task,
    backoff_delay,
)

__all__ = ["Supervisor", "SupervisorConfig"]

#: Points a worker may hold at once (1 running + the rest queued in its
#: pipe).  Depth 2 hides the parent's scheduling latency — the worker
#: starts its next point the instant it sends a result — without
#: loosening the accounting: the parent still knows exactly which points
#: each worker holds.
PIPELINE_DEPTH = 2


def process_context():
    """The ``multiprocessing`` context workers start in: ``fork`` (fast,
    shares the imported tree) where the platform has it, else ``spawn``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@dataclass
class SupervisorConfig:
    """A sweep's fault-tolerance policy."""

    #: Per-point wall-clock budget in seconds; ``None`` disables the kill.
    timeout: Optional[float] = None
    #: How many times a failed point is re-dispatched before the ledger.
    retries: int = 2
    #: Raise :class:`~repro.sweep.backends.SweepPointError` on the first
    #: point that exhausts its retries instead of returning a partial
    #: result with an error ledger.
    strict: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"per-point timeout must be positive: {self.timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {self.retries}")


def _supervised_worker(conn, common: Tuple) -> None:
    """Child body: recv a job, run it, send the outcome; repeat until None.

    Module-level (and fed only picklable state) so it works under both
    ``fork`` and ``spawn`` start methods.
    """
    from repro.sweep.engine import _run_point, _start_worker

    target_name, sweep_name, seed, trace_dir, collect_telemetry = common
    _start_worker(target_name)
    try:
        # Ready handshake: interpreter boot + imports are done (the bulk
        # of spawn-method startup).  The parent starts the first point's
        # timeout clock on this sentinel, not at dispatch, so startup
        # latency can never masquerade as a point timeout.
        conn.send(("ready", -1, 0, None))
    except (BrokenPipeError, EOFError, OSError):
        return
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        try:
            # Wait on the parent's sentinel too: a SIGKILLed parent can
            # never close our pipe (under fork this child inherited the
            # parent-side fd as well), so EOF alone would leave orphaned
            # workers blocked in recv() forever.
            ready = connection.wait(watched)
            if conn not in ready:
                break
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        index, params, attempt = job
        try:
            result = _run_point(
                (target_name, sweep_name, seed, index, params, trace_dir,
                 collect_telemetry)
            )
            message = ("ok", index, attempt, result)
        except KeyboardInterrupt:
            break
        except BaseException as error:
            message = (
                "error", index, attempt,
                f"{type(error).__name__}: {error}",
            )
        try:
            conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown race
        pass


@dataclass
class _Worker:
    process: multiprocessing.Process
    conn: connection.Connection
    #: FIFO of points this worker holds: ``tasks[0]`` is running (its
    #: clock is ``deadline``); the rest sit unstarted in the pipe.
    tasks: List[_Task] = field(default_factory=list)
    deadline: Optional[float] = None
    #: True once the child's ready handshake arrived; until then no
    #: deadline runs, so startup latency is never billed to a point.
    ready: bool = False


class Supervisor:
    """Drives one sweep's points through ``workers`` supervised processes.

    Owns the harness counters, the pending queue (lowest grid index
    first, honouring per-task retry backoff), the bounded
    retry-or-error-ledger policy of ``config`` and the worker pool.
    ``trace_dir`` and ``collect_telemetry`` reach every point;
    ``metrics``, when given, counts harness events as
    ``sweep.supervisor.*`` counters.
    """

    def __init__(self, spec, config: SupervisorConfig, workers: int = 1,
                 trace_dir: Optional[str] = None, metrics=None,
                 collect_telemetry: bool = False) -> None:
        self.spec = spec
        self.config = config
        self.workers = workers
        self.trace_dir = trace_dir
        self.metrics = metrics
        self.collect_telemetry = collect_telemetry
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self._pending: List[_Task] = []
        self._outstanding = 0
        #: The running sweep's callbacks, bound by :meth:`run`.
        self._on_result: Optional[Callable[[object, int], None]] = None
        self._on_failure: Optional[Callable[[PointFailure], None]] = None
        self._context = process_context()
        self._common = (
            spec.target, spec.name, spec.seed, trace_dir, collect_telemetry,
        )
        self._workers: List[_Worker] = []

    def run(
        self,
        tasks: List[Tuple[int, Dict[str, object]]],
        on_result: Callable[[object, int], None],
        on_failure: Callable[[PointFailure], None],
    ) -> Dict[str, float]:
        """Run every (index, params) task; returns the harness counters.

        ``on_result(point_result, attempts)`` fires as points complete
        (completion order, not grid order); ``on_failure(point_failure)``
        fires when a point exhausts its retry budget.
        """
        self._on_result = on_result
        self._on_failure = on_failure
        self._pending = [
            _Task(index=index, params=dict(params), attempt=1)
            for index, params in tasks
        ]
        self._outstanding = len(self._pending)
        if not self._pending:
            return dict(self.counters)
        try:
            for _ in range(min(self.workers, len(self._pending))):
                self._spawn_worker()
            while self._outstanding > 0:
                self._step()
        except KeyboardInterrupt:
            raise SweepInterrupted(
                f"sweep {self.spec.name!r} interrupted; "
                f"{self._outstanding} point(s) unfinished"
            ) from None
        finally:
            self._shutdown()
        return dict(self.counters)

    # -- bookkeeping ------------------------------------------------------

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount
        if self.metrics is not None:
            self.metrics.counter(
                f"sweep.supervisor.{name}",
                "sweep supervisor harness event count",
            ).inc(amount)

    def _pop_ready(self, now: float) -> Optional[_Task]:
        """The lowest-index pending task whose backoff has expired."""
        best = None
        for task in self._pending:
            if task.not_before > now:
                continue
            if best is None or task.index < best.index:
                best = task
        if best is not None:
            self._pending.remove(best)
        return best

    def _next_wake(self) -> Optional[float]:
        """Earliest ``not_before`` among pending tasks, if any."""
        if not self._pending:
            return None
        return min(task.not_before for task in self._pending)

    def _complete(self, result, attempt: int) -> None:
        """One point finished: count it and hand it to the run."""
        self.bump("completed")
        self._outstanding -= 1
        self._on_result(result, attempt)

    def _retry_or_fail(self, task: _Task, error: str, now: float) -> None:
        """Requeue a lost attempt, or move the point to the error ledger."""
        if task.attempt <= self.config.retries:
            self.bump("retries")
            next_attempt = task.attempt + 1
            self._pending.append(
                _Task(
                    index=task.index,
                    params=task.params,
                    attempt=next_attempt,
                    not_before=now + backoff_delay(next_attempt),
                )
            )
            return
        self._outstanding -= 1
        self.bump("failed")
        self._on_failure(
            PointFailure(
                index=task.index,
                params=dict(task.params),
                error=error,
                attempts=task.attempt,
            )
        )
        if self.config.strict:
            raise SweepPointError(
                f"sweep {self.spec.name!r} point {task.index} failed after "
                f"{task.attempt} attempt(s): {error}"
            )

    # -- the worker pool --------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_supervised_worker,
            args=(child_conn, self._common),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        self._workers.append(worker)
        return worker

    def _discard_worker(self, worker: _Worker) -> None:
        """Kill and reap one worker; its pipe is closed and it leaves the pool."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker in self._workers:
            self._workers.remove(worker)

    def _handle_loss(
        self, worker: _Worker, error: str, kind: str, now: float
    ) -> None:
        """A worker died or was killed mid-point: requeue and replace."""
        running = worker.tasks[0] if worker.tasks else None
        queued = worker.tasks[1:]
        self.bump(kind)
        self._discard_worker(worker)
        if running is not None:
            self.bump("requeued")
            self._retry_or_fail(running, error, now)
        # Queued points never started, so they go back untouched — the
        # loss consumes no part of their retry budget.
        self._pending.extend(queued)
        # Replace the worker only if there is (or will be) work to run.
        if self._pending and len(self._workers) < self.workers:
            self.bump("workers_replaced")
            self._spawn_worker()

    # -- the event loop ---------------------------------------------------

    def _dispatch_ready(self, now: float) -> None:
        # Breadth-first: top every worker up to one task before any
        # worker gets its pipelined second, so early points spread out.
        for depth in range(1, PIPELINE_DEPTH + 1):
            for worker in list(self._workers):
                if len(worker.tasks) >= depth:
                    continue
                task = self._pop_ready(now)
                if task is None:
                    return
                try:
                    worker.conn.send((task.index, task.params, task.attempt))
                except (BrokenPipeError, OSError):
                    # Worker died before this task reached it; the task
                    # goes back untouched (no attempt consumed) and the
                    # death is handled like any other crash.
                    self._pending.append(task)
                    self._handle_loss(
                        worker, "WorkerCrash: worker process died",
                        "crashes", now,
                    )
                    continue
                if not worker.tasks:
                    # A not-yet-ready worker is still booting; its first
                    # point's clock starts when the handshake arrives.
                    worker.deadline = (
                        now + self.config.timeout
                        if worker.ready and self.config.timeout is not None
                        else None
                    )
                worker.tasks.append(task)
                self.bump("dispatched")

    def _step(self) -> None:
        now = time.monotonic()
        # 1. Kill anything past its per-point deadline.
        timeout_s = self.config.timeout
        for worker in list(self._workers):
            if worker.deadline is not None and now >= worker.deadline:
                self._handle_loss(
                    worker,
                    f"TimeoutError: point exceeded {timeout_s:g}s wall-clock "
                    "budget",
                    "timeouts", now,
                )
        # 2. Hand work to idle workers (respecting retry backoff).
        self._dispatch_ready(now)
        busy = [w for w in self._workers if w.tasks]
        if not busy:
            if self._pending:
                time.sleep(max(0.0, min(self._next_wake() - now, 0.1)))
            return
        # 3. Sleep until a message, a death, a deadline or a backoff expiry.
        horizons = [w.deadline for w in busy if w.deadline is not None]
        spare_depth = any(
            len(w.tasks) < PIPELINE_DEPTH for w in self._workers
        )
        if self._pending and spare_depth:
            horizons.append(self._next_wake())
        wait_timeout = (
            max(0.0, min(horizons) - now) if horizons else None
        )
        by_conn = {worker.conn: worker for worker in busy}
        ready = connection.wait(list(by_conn), timeout=wait_timeout)
        now = time.monotonic()
        for conn in ready:
            worker = by_conn[conn]
            if worker not in self._workers:
                continue  # already reaped by an earlier event this step
            try:
                message = conn.recv()
            except (EOFError, OSError):
                worker.process.join(timeout=5.0)
                code = worker.process.exitcode
                self._handle_loss(
                    worker,
                    f"WorkerCrash: worker process died (exit code {code})",
                    "crashes", now,
                )
                continue
            kind, _index, attempt, payload = message
            if kind == "ready":
                worker.ready = True
                if worker.tasks and self.config.timeout is not None:
                    worker.deadline = now + self.config.timeout
                continue
            task = worker.tasks.pop(0)
            # The pipelined next task (if any) started the moment the
            # worker sent this result; its clock starts now.
            worker.deadline = (
                now + self.config.timeout
                if worker.tasks and self.config.timeout is not None
                else None
            )
            if kind == "ok":
                self._complete(payload, attempt)
            else:
                self.bump("errors")
                self._retry_or_fail(task, payload, now)

    def _shutdown(self) -> None:
        """Stop and reap every worker, however the run ended."""
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers):
            worker.process.join(timeout=1.0)
            self._discard_worker(worker)
