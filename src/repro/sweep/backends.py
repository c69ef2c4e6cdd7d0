"""Pluggable sweep executor backends: one interface, local or distributed.

PR 5's supervised fork-pool hard-codes one execution substrate: child
processes on this machine, driven over pipes.  This module extracts the
substrate behind a small interface so ``run_sweep`` can shard the same
grid over a fleet of TCP worker hosts without the engine, journal or
fingerprint contract changing:

* :class:`BaseExecutor` — the shared skeleton every backend inherits:
  harness counters, the pending-task queue with lowest-index-first
  dispatch and retry backoff, and the bounded retry-or-ledger policy.
* :func:`register_backend` / :func:`resolve_backend` /
  :func:`create_executor` — the registry.  Built-ins:

  ========== =========================================================
  name       substrate
  ========== =========================================================
  local      supervised child processes, platform-preferred start
             method (``fork`` where available) — the PR 5 executor
  local-fork supervised child processes, ``fork`` start method
  local-spawn supervised child processes, ``spawn`` start method
  tcp        a socket coordinator sharding points to remote worker
             hosts (:mod:`repro.sweep.coordinator`)
  ========== =========================================================

* :func:`backoff_delay` — deterministic retry backoff with optional
  jitter, forked per ``(seed, sweep, index, attempt)`` exactly like
  :class:`~repro.sweep.supervisor.ChaosSpec` draws, so retry timelines
  are reproducible at any worker or host count.
* :class:`FleetConfig` — the knobs only the ``tcp`` backend reads
  (listen address, minimum hosts, heartbeat cadence, work stealing).

Every backend upholds the same contract: point outcomes are pure
functions of ``(seed, sweep name, point index)``, so fingerprints are
bit-identical across backends, worker counts and host counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, ReproError


class SweepPointError(ReproError):
    """A point exhausted its retry budget under ``strict=True``."""


class FleetError(ReproError):
    """The distributed fleet cannot make progress (no usable hosts)."""


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
#: ``sweep.supervisor.<name>`` observability counters).  The ``tcp``
#: backend adds the fleet counters on top.
COUNTERS = (
    "dispatched", "completed", "retries", "requeued", "crashes",
    "timeouts", "errors", "failed", "workers_replaced", "resumed",
)

#: Extra counters only the distributed coordinator maintains.
FLEET_COUNTERS = ("hosts_seen", "hosts_lost", "stolen", "cancelled")


def backoff_delay(config, seed: int, sweep_name: str, index: int,
                  attempt: int) -> float:
    """The backoff before dispatching ``attempt`` of one point.

    The base schedule is the config's geometric
    :meth:`~repro.sweep.supervisor.SupervisorConfig.delay_before`;
    ``config.jitter > 0`` stretches it by up to ``jitter`` of itself,
    drawn from ``RandomSource(seed).fork(f"backoff/{sweep}/{index}/{attempt}")``
    — a pure function of the sweep seed, point and attempt, never of the
    host or worker running it, so retry timelines reproduce at any fleet
    shape.
    """
    base = config.delay_before(attempt)
    jitter = getattr(config, "jitter", 0.0)
    if base <= 0.0 or jitter <= 0.0:
        return base
    # Imported here so a sweep-worker host starts without numpy.
    from repro.core.rng import RandomSource

    rng = RandomSource(seed).fork(f"backoff/{sweep_name}/{index}/{attempt}")
    return base * (1.0 + jitter * rng.uniform())


@dataclass
class FleetConfig:
    """Knobs for the ``tcp`` backend's coordinator.

    ``listen`` is ``host:port`` (port ``0`` binds an ephemeral port);
    ``on_listen(host, port)`` fires once the socket is bound — the CLI
    prints the address, tests use it to spawn loopback workers against
    the real port.  ``min_hosts`` hosts must be connected before any
    point is dispatched.  A host that has not been heard from for
    ``heartbeat_timeout`` seconds (default ``10 x heartbeat_interval``)
    is declared dead and its points reassigned.  ``wait_for_hosts``
    bounds how long the coordinator waits with zero usable hosts before
    raising :class:`FleetError` instead of stalling forever.
    ``auth_token`` (optional) demands a matching shared secret in every
    worker hello, compared constant-time; a mismatch is rejected with an
    explicit frame so the worker fails cleanly instead of hanging.
    """

    listen: str = "127.0.0.1:0"
    min_hosts: int = 1
    heartbeat_interval: float = 0.5
    heartbeat_timeout: Optional[float] = None
    #: Points a host may hold per slot (1 running + the rest queued
    #: host-side) — the fleet analogue of the supervisor's pipeline depth.
    host_depth: int = 2
    #: Reclaim unstarted points from loaded hosts for idle ones.
    steal: bool = True
    wait_for_hosts: float = 60.0
    auth_token: Optional[str] = None
    on_listen: Optional[Callable[[str, int], None]] = None

    def __post_init__(self) -> None:
        if self.min_hosts < 1:
            raise ConfigurationError("fleet needs min_hosts >= 1")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be positive: {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout is not None and (
            self.heartbeat_timeout <= self.heartbeat_interval
        ):
            raise ConfigurationError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_timeout} <= {self.heartbeat_interval})"
            )
        if self.host_depth < 1:
            raise ConfigurationError(
                f"host_depth must be >= 1: {self.host_depth}"
            )
        if self.wait_for_hosts <= 0:
            raise ConfigurationError(
                f"wait_for_hosts must be positive: {self.wait_for_hosts}"
            )

    @property
    def effective_heartbeat_timeout(self) -> float:
        if self.heartbeat_timeout is not None:
            return self.heartbeat_timeout
        return 10.0 * self.heartbeat_interval


class BaseExecutor:
    """Shared skeleton of every executor backend.

    Owns the harness counters, the pending queue (lowest grid index
    first, honouring per-task retry backoff) and the bounded
    retry-or-error-ledger policy.  Subclasses implement :meth:`run` —
    the event loop that moves tasks to their substrate — and call
    :meth:`_retry_or_fail` when an attempt is lost.
    """

    def __init__(self, spec, config, metrics=None) -> None:
        self.spec = spec
        self.config = config
        self.metrics = metrics
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self._pending: List[_Task] = []
        self._outstanding = 0

    # -- bookkeeping ------------------------------------------------------

    def bump(self, name: str, amount: float = 1.0, **labels) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount
        if self.metrics is not None:
            self.metrics.counter(
                f"sweep.supervisor.{name}",
                "sweep supervisor harness event count",
            ).inc(amount)
            if labels:
                self.metrics.counter(
                    f"sweep.fleet.{name}",
                    "per-host sweep fleet event count",
                ).inc(amount, **labels)

    def _seed_tasks(
        self, tasks: List[Tuple[int, Dict[str, object]]]
    ) -> None:
        self._pending = [
            _Task(index=index, params=dict(params), attempt=1)
            for index, params in tasks
        ]
        self._outstanding = len(self._pending)

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

    def _retry_or_fail(
        self,
        task: _Task,
        error: str,
        now: float,
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        """Requeue a lost attempt, or move the point to the error ledger."""
        if task.attempt <= self.config.retries:
            self.bump("retries")
            next_attempt = task.attempt + 1
            self._pending.append(
                _Task(
                    index=task.index,
                    params=task.params,
                    attempt=next_attempt,
                    not_before=now + backoff_delay(
                        self.config, self.spec.seed, self.spec.name,
                        task.index, next_attempt,
                    ),
                )
            )
            return
        self._outstanding -= 1
        self.bump("failed")
        failure = PointFailure(
            index=task.index,
            params=dict(task.params),
            error=error,
            attempts=task.attempt,
        )
        on_failure(failure)
        if strict:
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
        strict: bool = False,
    ) -> Dict[str, float]:
        """Run every (index, params) task; returns the harness counters."""
        raise NotImplementedError


#: Backend registry: name -> factory(spec, config, **context) -> executor.
BACKENDS: Dict[str, Callable[..., BaseExecutor]] = {}

#: Names accepted by ``run_sweep(backend=...)`` and ``--backend``.
BACKEND_NAMES = ("local", "local-fork", "local-spawn", "tcp")


def register_backend(name: str):
    """Decorator registering an executor factory under ``name``."""

    def wrap(factory: Callable[..., BaseExecutor]):
        BACKENDS[name] = factory
        return factory

    return wrap


def resolve_backend(name: str) -> Callable[..., BaseExecutor]:
    """Look up a backend factory; unknown names list what is registered."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ConfigurationError(
            f"unknown sweep backend {name!r}; registered backends: {known}"
        ) from None


def create_executor(
    name: Optional[str],
    spec,
    config,
    *,
    trace_dir: Optional[str] = None,
    metrics=None,
    collect_telemetry: bool = False,
    fleet: Optional[FleetConfig] = None,
) -> BaseExecutor:
    """Instantiate the executor backend ``name`` (default ``"local"``)."""
    factory = resolve_backend(name or "local")
    return factory(
        spec, config,
        trace_dir=trace_dir, metrics=metrics,
        collect_telemetry=collect_telemetry, fleet=fleet,
    )


def _local(spec, config, start_method=None, *, trace_dir=None, metrics=None,
           collect_telemetry=False, fleet=None):
    from dataclasses import replace

    from repro.sweep.supervisor import Supervisor

    if start_method is not None and config.start_method != start_method:
        config = replace(config, start_method=start_method)
    return Supervisor(
        spec, config, trace_dir=trace_dir, metrics=metrics,
        collect_telemetry=collect_telemetry,
    )


@register_backend("local")
def _local_default(spec, config, **context):
    """The PR 5 supervised executor with the platform-preferred start method."""
    return _local(spec, config, None, **context)


@register_backend("local-fork")
def _local_fork(spec, config, **context):
    """Supervised child processes under the ``fork`` start method."""
    return _local(spec, config, "fork", **context)


@register_backend("local-spawn")
def _local_spawn(spec, config, **context):
    """Supervised child processes under the ``spawn`` start method."""
    return _local(spec, config, "spawn", **context)


@register_backend("tcp")
def _tcp(spec, config, *, trace_dir=None, metrics=None,
         collect_telemetry=False, fleet=None):
    """A socket coordinator sharding points to remote worker hosts."""
    from repro.sweep.coordinator import TcpCoordinator

    return TcpCoordinator(
        spec, config, fleet=fleet or FleetConfig(),
        trace_dir=trace_dir, metrics=metrics,
        collect_telemetry=collect_telemetry,
    )
