"""The values the sweep executor shares with the engine and the store.

:class:`~repro.sweep.supervisor.Supervisor` runs every sweep; this
module holds what it hands back and how it paces retries:

* :class:`PointFailure` — one error-ledger entry, a point that
  exhausted its retry budget;
* :class:`SweepPointError` and :class:`SweepInterrupted` — how a
  ``strict`` failure and a Ctrl-C leave ``run_sweep``;
* :data:`COUNTERS` — the harness counters the supervisor keeps;
* :func:`backoff_delay` — the fixed geometric retry backoff, a function
  of the attempt number alone, so retry timelines are the same at any
  worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.errors import ReproError


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


#: Counter names the supervisor maintains (all also exported as
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
