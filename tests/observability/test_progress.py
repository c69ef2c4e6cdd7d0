"""The TTY-aware sweep progress reporter."""

import io

from repro.observability import SweepProgressReporter, Telemetry


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class _Tty(io.StringIO):
    def isatty(self):
        return True


def _reporter(total=4, stream=None, telemetry=None, **kwargs):
    clock = _FakeClock()
    stream = stream if stream is not None else io.StringIO()
    reporter = SweepProgressReporter(
        total, telemetry=telemetry, stream=stream, clock=clock, **kwargs
    )
    return reporter, stream, clock


class TestLineContent:
    def test_counts_rate_and_eta(self):
        reporter, _, clock = _reporter(total=4)
        clock.now += 2.0
        reporter(None)
        reporter(None)
        line = reporter.line()
        assert "2/4 points (50%)" in line
        assert "1.0 pts/s" in line
        assert "eta 2 s" in line

    def test_eta_unknown_before_any_point_and_done_at_the_end(self):
        reporter, _, clock = _reporter(total=2)
        assert "eta ?" in reporter.line()
        clock.now += 1.0
        reporter(None)
        reporter(None)
        assert "eta done" in reporter.line()

    def test_zero_total_does_not_divide_by_zero(self):
        reporter, _, _ = _reporter(total=0)
        assert "(100%)" in reporter.line()

    def test_harness_counters_ride_along_when_nonzero(self):
        telemetry = Telemetry()
        reporter, _, _ = _reporter(total=4, telemetry=telemetry)
        assert "[" not in reporter.line()
        telemetry.metrics.counter("sweep.supervisor.retries").inc(2)
        telemetry.metrics.counter("sweep.supervisor.crashes").inc()
        telemetry.metrics.counter("sweep.supervisor.failed")  # stays zero
        assert reporter.line().endswith("[retry=2 crash=1]")


class TestSnapshot:
    def test_counts_and_rate(self):
        reporter, _, clock = _reporter(total=4)
        clock.now += 2.0
        reporter(None)
        snapshot = reporter.snapshot()
        assert snapshot == {
            "done": 1, "total": 4, "rate_pts_per_s": 0.5, "harness": {},
        }

    def test_harness_holds_the_nonzero_counters_the_line_shows(self):
        telemetry = Telemetry()
        reporter, _, _ = _reporter(total=4, telemetry=telemetry)
        telemetry.metrics.counter("sweep.supervisor.timeouts").inc(3)
        telemetry.metrics.counter("sweep.supervisor.failed").inc()
        telemetry.metrics.counter("sweep.supervisor.retries")  # stays zero
        # Counted by the supervisor, but not one the line surfaces.
        telemetry.metrics.counter("sweep.supervisor.dispatched").inc(5)
        assert reporter.snapshot()["harness"] == {
            "timeouts": 3.0, "failed": 1.0,
        }
        assert reporter.line().endswith("[timeout=3 fail=1]")


class TestEmission:
    def test_tty_rewrites_every_event_and_close_ends_the_line(self):
        reporter, stream, _ = _reporter(total=3, stream=_Tty())
        reporter(None)
        reporter(None)
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert "\x1b[K" in text
        assert not text.endswith("\n")
        reporter.close()
        assert stream.getvalue().endswith("\n")
        length = len(stream.getvalue())
        reporter.close()  # idempotent
        assert len(stream.getvalue()) == length

    def test_non_tty_lines_are_throttled(self):
        reporter, stream, clock = _reporter(total=10, min_interval=1.0)
        reporter(None)  # first event always emits
        reporter(None)  # within the interval: suppressed
        clock.now += 1.5
        reporter(None)  # interval elapsed: emits
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert all("\r" not in line for line in lines)

    def test_final_point_always_emits_on_non_tty(self):
        reporter, stream, _ = _reporter(total=2, min_interval=60.0)
        reporter(None)
        reporter(None)  # throttle window still open, but it is the last
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "2/2 points (100%)" in lines[-1]

    def test_close_on_non_tty_writes_nothing(self):
        reporter, stream, _ = _reporter(total=1)
        reporter.close()
        assert stream.getvalue() == ""

    def test_context_manager_closes(self):
        stream = _Tty()
        clock = _FakeClock()
        with SweepProgressReporter(1, stream=stream, clock=clock) as reporter:
            reporter(None)
        assert stream.getvalue().endswith("\n")
