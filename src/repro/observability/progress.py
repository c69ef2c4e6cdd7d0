"""Live sweep progress: a TTY-aware single-line reporter.

:class:`SweepProgressReporter` plugs into ``run_sweep``'s ``progress``
callback slot and renders one continuously-rewritten status line on a
TTY (``\\r`` + erase-to-end), or throttled plain lines on anything else
(CI logs, pipes).  The line shows completed/total points, throughput,
an ETA extrapolated from throughput so far, and — when the sweep has
a telemetry registry attached — the harness's retry / crash / timeout /
failure counters straight from the ``sweep.supervisor.*`` series.

The reporter observes; it never feeds anything back into the sweep, so
a run with ``--progress`` is bit-identical to one without.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from repro.core.units import format_time

#: Supervisor counters worth surfacing, with their short display labels.
_HARNESS_COUNTERS = (
    ("retries", "retry"),
    ("crashes", "crash"),
    ("timeouts", "timeout"),
    ("failed", "fail"),
)


class SweepProgressReporter:
    """Renders sweep progress as results arrive.

    Parameters
    ----------
    total:
        Total number of points the run will complete (grid size minus
        points already satisfied by a resumed journal).
    telemetry:
        The parent-side :class:`~repro.observability.probes.Telemetry`
        passed to ``run_sweep`` — the source of the
        ``sweep.supervisor.*`` harness counters.  Optional: without it
        the line simply omits the harness column.
    stream:
        Output stream (default ``sys.stderr`` so progress never pollutes
        piped result output).  TTY detection keys off this stream.
    min_interval:
        Minimum wall seconds between non-TTY lines (TTY rewrites are
        cheap and happen on every event).
    clock:
        Injectable time source for tests (default ``time.monotonic``).
    """

    def __init__(
        self,
        total: int,
        telemetry=None,
        stream=None,
        min_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = max(0, int(total))
        self.telemetry = telemetry
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.clock = clock
        self.done = 0
        self._started = clock()
        self._last_emit: Optional[float] = None
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._open_line = False

    # -- the callback ------------------------------------------------------

    def __call__(self, point_result) -> None:
        """``run_sweep`` progress hook: one completed point per call."""
        self.done += 1
        now = self.clock()
        if self._is_tty:
            self._emit(now)
        elif (
            self._last_emit is None
            or now - self._last_emit >= self.min_interval
            or self.done >= self.total
        ):
            self._emit(now)

    def _harness(self) -> dict:
        """The non-zero ``sweep.supervisor.*`` totals, by counter name."""
        harness = {}
        if self.telemetry is not None:
            registry = self.telemetry.metrics
            for counter, _ in _HARNESS_COUNTERS:
                name = f"sweep.supervisor.{counter}"
                if name in registry:
                    value = registry.get(name).total()
                    if value:
                        harness[counter] = value
        return harness

    def _harness_suffix(self) -> str:
        harness = self._harness()
        parts = [
            f"{label}={harness[counter]:g}"
            for counter, label in _HARNESS_COUNTERS if counter in harness
        ]
        return f" [{' '.join(parts)}]" if parts else ""

    def line(self, now: Optional[float] = None) -> str:
        """The current status line (exposed for tests)."""
        now = self.clock() if now is None else now
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        if self.done and self.done < self.total and rate > 0:
            eta = format_time((self.total - self.done) / rate)
        elif self.done >= self.total:
            eta = "done"
        else:
            eta = "?"
        percent = 100.0 * self.done / self.total if self.total else 100.0
        return (
            f"sweep: {self.done}/{self.total} points ({percent:.0f}%) "
            f"{rate:.1f} pts/s eta {eta}{self._harness_suffix()}"
        )

    def snapshot(self, now: Optional[float] = None) -> dict:
        """The current progress state as a JSON-ready dict.

        This is the machine-readable twin of :meth:`line`, streamed as
        NDJSON ``progress`` events by ``python -m repro serve``.  The
        ``harness`` map carries the non-zero ``sweep.supervisor.*``
        counter totals (retries, crashes, timeouts, failures) so a
        streaming client sees the same recovery story a TTY watcher
        would.
        """
        now = self.clock() if now is None else now
        elapsed = max(now - self._started, 1e-9)
        return {
            "done": self.done,
            "total": self.total,
            "rate_pts_per_s": self.done / elapsed,
            "harness": self._harness(),
        }

    def _emit(self, now: float) -> None:
        self._last_emit = now
        text = self.line(now)
        if self._is_tty:
            # Rewrite in place: carriage return + line + erase-to-end.
            self.stream.write(f"\r{text}\x1b[K")
            self._open_line = True
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Finish the display: terminate the rewritten TTY line."""
        if self._is_tty and self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False

    def __enter__(self) -> "SweepProgressReporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
