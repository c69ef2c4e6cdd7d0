"""Sweep executors: one interface, in process or in supervised workers.

Every ``run_sweep`` call drives its points through the one executor
:func:`create_executor` picks; the engine, journal and fingerprint
contract never change with the choice:

* :class:`BaseExecutor` — the shared skeleton every executor inherits:
  harness counters, the pending-task queue with lowest-index-first
  dispatch and retry backoff, and the bounded retry-or-ledger policy of
  the run's :class:`~repro.sweep.supervisor.SupervisorConfig`.
* :class:`InlineExecutor` — runs the points in the calling process, for
  a one-worker sweep with no ``backend``, ``timeout``, ``chaos`` or
  ``start_method``: nothing there needs a process boundary, and
  skipping the child's boot and pipe is measurably faster.
* every other run goes to the ``local`` backend: supervised child
  processes (:mod:`repro.sweep.supervisor`), started by the config's
  ``start_method`` (``fork`` where available by default).

* :func:`backoff_delay` — the fixed geometric retry backoff, a function
  of the attempt number alone, so retry timelines are the same at any
  worker count.

Every executor upholds the same contract: point outcomes are pure
functions of ``(seed, sweep name, point index)``, so fingerprints are
bit-identical across executors and worker counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, ReproError


class SweepPointError(ReproError):
    """A point exhausted its retry budget in a fail-fast run."""


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep, after orderly teardown.

    Subclasses :class:`KeyboardInterrupt` so generic interrupt handling
    still fires; carries the partial :class:`~repro.sweep.engine.SweepResult`
    (every point completed before the interrupt, journal already flushed)
    as ``partial`` when the engine could assemble one.
    """

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass
class PointFailure:
    """One error-ledger entry: a point that exhausted its retry budget."""

    index: int
    params: Dict[str, object]
    error: str
    attempts: int

    def record(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "params": dict(self.params),
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class _Task:
    index: int
    params: Dict[str, object]
    attempt: int  # 1-based
    not_before: float = 0.0


#: Counter names every backend maintains (all also exported as
#: ``sweep.supervisor.<name>`` observability counters).
COUNTERS = (
    "dispatched", "completed", "retries", "requeued", "crashes",
    "timeouts", "errors", "failed", "workers_replaced", "resumed",
)


#: Backoff before a point's first retry; each further retry doubles it.
RETRY_BACKOFF = 0.05


def backoff_delay(attempt: int) -> float:
    """The backoff before dispatching ``attempt`` (1-based) of one point.

    The schedule is geometric: nothing before the first attempt,
    :data:`RETRY_BACKOFF` before the second, doubling after that.
    """
    if attempt <= 1:
        return 0.0
    return RETRY_BACKOFF * 2.0 ** (attempt - 2)


class BaseExecutor:
    """Shared skeleton of every executor backend.

    Owns the harness counters, the pending queue (lowest grid index
    first, honouring per-task retry backoff) and the bounded
    retry-or-error-ledger policy.  :meth:`run` binds the result and
    failure callbacks for the run; subclasses implement :meth:`_loop` —
    the event loop that moves tasks to their substrate — and call
    :meth:`_complete` or :meth:`_retry_or_fail` as attempts end.
    """

    def __init__(self, spec, config, trace_dir: Optional[str] = None,
                 metrics=None, collect_telemetry: bool = False) -> None:
        self.spec = spec
        self.config = config
        self.trace_dir = trace_dir
        self.metrics = metrics
        self.collect_telemetry = collect_telemetry
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self._pending: List[_Task] = []
        self._outstanding = 0
        #: The running sweep's callbacks, bound by :meth:`run`.
        self._on_result: Optional[Callable[[object, int], None]] = None
        self._on_failure: Optional[Callable[[PointFailure], None]] = None

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

    # -- the backend contract ---------------------------------------------

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
            self._loop()
        except KeyboardInterrupt:
            raise SweepInterrupted(
                f"sweep {self.spec.name!r} interrupted; "
                f"{self._outstanding} point(s) unfinished"
            ) from None
        finally:
            self._shutdown()
        return dict(self.counters)

    def _loop(self) -> None:
        """Drive the pending tasks until none is outstanding."""
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Release the substrate; runs however :meth:`_loop` ended."""


#: Names accepted by ``run_sweep(backend=...)`` and ``--backend``.
BACKEND_NAMES = ("local",)


def create_executor(
    backend: Optional[str],
    spec,
    config,
    *,
    workers: int = 1,
    **context,
) -> BaseExecutor:
    """The executor for one run of ``spec`` under ``config``.

    ``backend=None`` runs a one-worker sweep with no ``timeout``,
    ``chaos`` or ``start_method`` in process (:class:`InlineExecutor`)
    and every other one on ``local``.  ``context`` is
    :class:`BaseExecutor`'s keywords (``trace_dir``, ``metrics``,
    ``collect_telemetry``).
    """
    if backend is not None and backend not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown sweep backend {backend!r}; registered backends: "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if backend is None and workers == 1 and (
        config.timeout is None and config.chaos is None
        and config.start_method is None
    ):
        return InlineExecutor(spec, config, **context)
    from repro.sweep.supervisor import Supervisor

    return Supervisor(spec, config, workers=workers, **context)


class InlineExecutor(BaseExecutor):
    """Runs every point in the calling process, one after another.

    No child to boot and no pipe to cross, so a one-worker sweep runs
    fastest here.  The price is isolation: a point that kills or hangs
    the interpreter takes the sweep with it, which is why
    :func:`create_executor` only picks this executor when nothing asks
    for a process boundary.  Exceptions still go through the retry
    budget.
    """

    def _loop(self) -> None:
        from repro.sweep.engine import _run_point

        while self._outstanding > 0:
            now = time.monotonic()
            task = self._pop_ready(now)
            if task is None:
                time.sleep(max(0.0, self._next_wake() - now))
                continue
            self.bump("dispatched")
            try:
                result = _run_point((
                    self.spec.target, self.spec.name, self.spec.seed,
                    task.index, task.params, self.trace_dir,
                    self.collect_telemetry,
                ))
            except Exception as error:
                self.bump("errors")
                self._retry_or_fail(
                    task, f"{type(error).__name__}: {error}",
                    time.monotonic(),
                )
                continue
            self._complete(result, task.attempt)
