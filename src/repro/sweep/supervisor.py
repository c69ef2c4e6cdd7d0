"""Supervised sweep execution: crash detection, timeouts, retries, chaos.

A sweep point can segfault, call ``os._exit`` or hang forever.  The
supervisor runs points where that cannot take the sweep down: each
worker is a long-lived child process driven over its own pipe, so the
parent always knows *which point* a worker is running and for how long:

* a worker that **dies** (non-zero exit, ``os._exit``, SIGKILL — under
  both ``fork`` and ``spawn`` start methods) is detected as EOF on its
  pipe; the in-flight point is requeued to a replacement worker;
* a point that **hangs** past ``timeout`` gets its worker killed and
  replaced, and the point is requeued;
* every requeue consumes one unit of the point's bounded
  **retry-with-backoff** budget; an exhausted budget lands the point in
  the sweep's error ledger (:class:`~repro.sweep.backends.PointFailure`)
  instead of raising, unless the :class:`SupervisorConfig` asks for
  fail-fast behaviour (:class:`~repro.sweep.backends.SweepPointError`).

:class:`SupervisorConfig` is a sweep's whole fault-tolerance policy,
read by every executor.  The supervisor is ``run_sweep``'s executor for
every local run that is not a plain one-worker sweep (see
:func:`repro.sweep.backends.create_executor`).

A built-in **chaos mode** (:class:`ChaosSpec`, CLI ``--chaos
crash:0.1,hang:0.05``) injects worker crashes and hangs into the harness
itself — deterministically per ``(seed, sweep, point, attempt)`` — so
recovery is provable end to end: a chaos run that completes has the same
fingerprint as a calm one.

Retry/timeout/requeue counts surface both as
``sweep.supervisor.*`` counters on an optional
:class:`~repro.observability.metrics.MetricsRegistry` and as the
``SweepResult.harness`` summary dict.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.sweep.backends import BaseExecutor, _Task

__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosSpec",
    "Supervisor",
    "SupervisorConfig",
    "parse_chaos",
]

#: Exit code chaos-injected crashes die with (visible in crash messages).
CHAOS_EXIT_CODE = 86

#: Points a worker may hold at once (1 running + the rest queued in its
#: pipe).  Depth 2 hides the parent's scheduling latency — the worker
#: starts its next point the instant it sends a result — without
#: loosening the accounting: the parent still knows exactly which points
#: each worker holds.
PIPELINE_DEPTH = 2


def process_context(start_method: Optional[str] = None):
    """The ``multiprocessing`` context for ``start_method``.

    ``None`` prefers ``fork`` (fast, shares the imported tree) and falls
    back to ``spawn`` where the platform has no fork.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class ChaosSpec:
    """Harness-fault injection probabilities, drawn per (point, attempt).

    ``crash`` is the probability a worker ``os._exit``\\ s instead of
    running the point; ``hang`` the probability it sleeps
    ``hang_seconds`` first (long past any sane timeout).  Draws come from
    ``RandomSource(seed).fork(f"chaos/{sweep}/{index}/{attempt}")`` — a
    pure function of the sweep seed, point and attempt — so chaos runs
    are reproducible and a retried attempt rolls fresh dice.
    """

    crash: float = 0.0
    hang: float = 0.0
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("crash", "hang"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"chaos {name} probability must be in [0, 1]: {value}"
                )
        if self.crash + self.hang > 1.0:
            raise ConfigurationError(
                "chaos crash + hang probabilities exceed 1 "
                f"({self.crash} + {self.hang})"
            )

    def draw(
        self, seed: int, sweep_name: str, index: int, attempt: int
    ) -> Optional[str]:
        """``"crash"``, ``"hang"`` or ``None`` for this (point, attempt)."""
        roll = RandomSource(seed).fork(
            f"chaos/{sweep_name}/{index}/{attempt}"
        ).uniform()
        if roll < self.crash:
            return "crash"
        if roll < self.crash + self.hang:
            return "hang"
        return None


#: CLI clause name -> ChaosSpec field.
_CHAOS_CLAUSES = {
    "crash": "crash",
    "hang": "hang",
    "hang-seconds": "hang_seconds",
}


def parse_chaos(text: str) -> ChaosSpec:
    """Parse ``crash:0.1,hang:0.05,hang-seconds:30``."""
    values: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, separator, raw = part.partition(":")
        name = name.strip()
        if not separator or name not in _CHAOS_CLAUSES:
            known = ", ".join(f"{clause}:<p>" for clause in _CHAOS_CLAUSES)
            raise ConfigurationError(
                f"bad chaos clause {part!r}; expected clauses from: {known}"
            )
        key = _CHAOS_CLAUSES[name]
        if key in values:
            raise ConfigurationError(
                f"chaos clause {name!r} given more than once in {text!r}"
            )
        try:
            values[key] = float(raw)
        except ValueError:
            raise ConfigurationError(
                f"bad chaos probability in {part!r}"
            ) from None
    if not values:
        raise ConfigurationError(f"empty chaos spec {text!r}")
    return ChaosSpec(**values)


@dataclass
class SupervisorConfig:
    """A sweep's fault-tolerance policy, read by every executor."""

    #: Per-point wall-clock budget in seconds; ``None`` disables the kill.
    timeout: Optional[float] = None
    #: How many times a failed point is re-dispatched before the ledger.
    retries: int = 2
    #: Harness faults to inject; the string form (``"crash:0.1"``) is
    #: parsed with :func:`parse_chaos`.
    chaos: Union[ChaosSpec, str, None] = None
    #: Raise :class:`~repro.sweep.backends.SweepPointError` on the first
    #: point that exhausts its retries instead of returning a partial
    #: result with an error ledger.
    strict: bool = False
    #: Local worker start method (``fork``/``spawn``/``forkserver``);
    #: ``None`` prefers ``fork``.
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.chaos, str):
            self.chaos = parse_chaos(self.chaos)
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"per-point timeout must be positive: {self.timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {self.retries}")
        methods = multiprocessing.get_all_start_methods()
        if self.start_method is not None and self.start_method not in methods:
            raise ConfigurationError(
                f"unknown start method {self.start_method!r}; this platform "
                f"has: {', '.join(methods)}"
            )
        if self.timeout is None and self.chaos is not None and (
            self.chaos.hang > 0
        ):
            raise ConfigurationError(
                "chaos hang injection needs a per-point timeout, or hung "
                "workers would stall the sweep forever"
            )


def _supervised_worker(conn, common: Tuple) -> None:
    """Child body: recv a job, run it, send the outcome; repeat until None.

    Module-level (and fed only picklable state) so it works under both
    ``fork`` and ``spawn`` start methods.
    """
    from repro.sweep.engine import _run_point, _start_worker

    target_name, sweep_name, seed, trace_dir, chaos, collect_telemetry = common
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
        if chaos is not None:
            action = chaos.draw(seed, sweep_name, index, attempt)
            if action == "crash":
                os._exit(CHAOS_EXIT_CODE)
            elif action == "hang":
                time.sleep(chaos.hang_seconds)
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


class Supervisor(BaseExecutor):
    """Drives one sweep's points through ``workers`` supervised processes.

    ``context`` is :class:`~repro.sweep.backends.BaseExecutor`'s keywords
    (``trace_dir``, ``metrics``, ``collect_telemetry``).
    """

    def __init__(self, spec, config: SupervisorConfig, workers: int = 1,
                 **context) -> None:
        super().__init__(spec, config, **context)
        self.workers = workers
        self._context = process_context(config.start_method)
        self._common = (
            spec.target, spec.name, spec.seed, self.trace_dir, config.chaos,
            self.collect_telemetry,
        )
        self._workers: List[_Worker] = []

    # -- bookkeeping ------------------------------------------------------

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

    def _loop(self) -> None:
        for _ in range(min(self.workers, len(self._pending))):
            self._spawn_worker()
        while self._outstanding > 0:
            self._step()

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
                wake = min(task.not_before for task in self._pending)
                time.sleep(max(0.0, min(wake - now, 0.1)))
            return
        # 3. Sleep until a message, a death, a deadline or a backoff expiry.
        horizons = [w.deadline for w in busy if w.deadline is not None]
        spare_depth = any(
            len(w.tasks) < PIPELINE_DEPTH for w in self._workers
        )
        if self._pending and spare_depth:
            horizons.append(min(task.not_before for task in self._pending))
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
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers):
            worker.process.join(timeout=1.0)
            self._discard_worker(worker)
