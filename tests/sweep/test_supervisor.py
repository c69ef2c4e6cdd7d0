"""The supervised executor: crash/hang recovery, retries, resume.

The acceptance bar for the fault-tolerance work: a sweep killed mid-run
(SIGKILL on a worker or on the parent process) resumes via ``resume=``
with a fingerprint bit-identical to an uninterrupted run — demonstrated
here at ``workers=1`` and ``workers=4``.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.observability import Telemetry
from repro.sweep import (
    SweepInterrupted,
    SweepPointError,
    load_journal,
    run_sweep,
)
from repro.sweep.backends import _Task, backoff_delay
from repro.sweep.supervisor import Supervisor, SupervisorConfig, _Worker

from tests.sweep import _ft_helpers as ft

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestSupervisorConfig:
    def test_backoff_schedule_is_geometric(self):
        delays = [backoff_delay(attempt) for attempt in range(1, 5)]
        assert delays == pytest.approx([0.0, 0.05, 0.1, 0.2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"retries": -1},
        ],
    )
    def test_bad_policy_is_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(**kwargs)


#: A two-worker sweep with no fault-tolerance options whose point 1
#: ``os._exit``s its worker on every attempt.
_CRASH_SCRIPT = textwrap.dedent(
    """
    import json

    from tests.sweep import _ft_helpers as ft
    from repro.sweep import run_sweep

    result = run_sweep(ft.cheap_spec(n=4, target="ft-crash-at"), workers=2)
    print(json.dumps({
        "points": [point.index for point in result.points],
        "failures": [[f.index, f.error] for f in result.failures],
    }))
    """
)


class TestDefaultExecutor:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_run_in_worker_processes(self, workers):
        spec = ft.cheap_spec(n=2, target="ft-pid")
        result = run_sweep(spec, workers=workers)
        assert result.harness["completed"] == 2.0
        assert os.getpid() not in {p.metrics["pid"] for p in result.points}

    def test_crashing_worker_lands_in_the_ledger_instead_of_hanging(self):
        process = subprocess.run(
            [sys.executable, "-c", _CRASH_SCRIPT],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 0, process.stderr
        outcome = json.loads(process.stdout)
        assert outcome["points"] == [0, 2, 3]
        [[index, error]] = outcome["failures"]
        assert index == 1
        assert error.startswith("WorkerCrash")


class TestWorkerCounts:
    def test_one_and_two_workers_give_one_fingerprint(self):
        spec = ft.cheap_spec(n=6)
        one = run_sweep(spec)
        two = run_sweep(spec, workers=2)
        assert one.ok and two.ok
        assert two.fingerprint() == one.fingerprint()
        assert one.harness["completed"] == two.harness["completed"] == 6.0
        assert one.harness["crashes"] == two.harness["crashes"] == 0.0

    def test_exceptions_use_the_same_budget_at_any_worker_count(self):
        spec = ft.cheap_spec(n=4, target="ft-boom")
        config = SupervisorConfig(retries=1)
        one = run_sweep(spec, config=config)
        two = run_sweep(spec, workers=2, config=config)
        assert [f.record() for f in one.failures] == [
            f.record() for f in two.failures
        ]
        assert one.fingerprint() == two.fingerprint()
        assert one.harness["errors"] == 4.0  # 2 points x 2 attempts
        assert one.harness["retries"] == 2.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_keyboard_interrupt_inside_a_point_fails_the_point(
        self, tmp_path, workers
    ):
        # No Ctrl-C reached the parent: the point is retried, ledgered
        # with its error, and attempted again on resume.  No worker dies.
        spec = ft.cheap_spec(n=3, target="ft-raise-interrupt",
                             marker_dir=[str(tmp_path)])
        journal = tmp_path / "run.jsonl"
        result = run_sweep(spec, workers=workers, journal=journal,
                           config=SupervisorConfig(retries=1))
        [failure] = result.failures
        assert failure.index == 1
        assert failure.error.startswith("KeyboardInterrupt")
        assert [p.index for p in result.points] == [0, 2]
        assert result.harness["errors"] == 2.0
        assert result.harness["crashes"] == 0.0
        (tmp_path / "interrupt-done").write_text("")
        resumed = run_sweep(spec, workers=workers, resume=journal)
        assert resumed.ok
        assert resumed.harness["dispatched"] == 1.0
        assert [p.metrics["value"] for p in resumed.points] == [0.0, 1.0, 2.0]

    def test_one_worker_strict_failure_raises_after_the_budget(self):
        spec = ft.cheap_spec(n=4, target="ft-boom")
        with pytest.raises(SweepPointError, match="point 1 failed after 3"):
            run_sweep(spec, config=SupervisorConfig(strict=True))


class TestCrashRecovery:
    def test_worker_os_exit_is_requeued_to_a_replacement(self, tmp_path):
        spec = ft.cheap_spec(
            n=4, target="ft-crash-once", marker_dir=[str(tmp_path)]
        )
        result = run_sweep(spec, workers=2)
        assert result.ok
        assert [p.metrics["value"] for p in result.points] == [0.0, 1.0, 2.0, 3.0]
        assert result.harness["crashes"] == 4.0
        assert result.harness["requeued"] == 4.0
        assert result.harness["workers_replaced"] >= 1.0

    def test_worker_sigkill_is_requeued_to_a_replacement(self, tmp_path):
        spec = ft.cheap_spec(
            n=3, target="ft-sigkill-once", marker_dir=[str(tmp_path)]
        )
        result = run_sweep(spec, workers=2)
        assert result.ok
        assert result.harness["crashes"] == 3.0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target, config, counter", [
        ("ft-crash-once", SupervisorConfig(), "crashes"),
        ("ft-sigkill-once", SupervisorConfig(), "crashes"),
        ("ft-hang-once", SupervisorConfig(timeout=0.4), "timeouts"),
    ], ids=["crash", "sigkill", "hang"])
    def test_recovered_fingerprint_equals_the_calm_run(
        self, tmp_path, target, config, counter, workers
    ):
        spec = ft.cheap_spec(n=2, target=target, marker_dir=[str(tmp_path)])
        recovered = run_sweep(spec, workers=workers, config=config)
        # Every first attempt left its marker, so the same spec now runs
        # with no fault at all.
        calm = run_sweep(spec, workers=workers, config=config)
        assert recovered.ok and calm.ok
        assert recovered.harness[counter] == 2.0
        assert recovered.harness["retries"] == 2.0
        assert calm.harness[counter] == calm.harness["retries"] == 0.0
        assert recovered.fingerprint() == calm.fingerprint()


class TestTimeoutRecovery:
    def test_hung_point_is_killed_and_retried(self, tmp_path):
        spec = ft.cheap_spec(
            n=2, target="ft-hang-once", marker_dir=[str(tmp_path)]
        )
        result = run_sweep(spec, config=SupervisorConfig(timeout=0.4))
        assert result.ok
        assert [p.metrics["value"] for p in result.points] == [0.0, 1.0]
        assert result.harness["timeouts"] == 2.0
        assert result.harness["requeued"] == 2.0


class TestReadyHandshake:
    def test_first_point_clock_starts_on_ready_not_dispatch(self):
        """Worker startup (interpreter boot + imports, notably under the
        spawn start method and for every replacement worker) must not be
        billed to the first point's wall-clock budget — the deadline only
        starts once the child's ready handshake arrives."""
        supervisor = Supervisor(
            ft.cheap_spec(n=1), SupervisorConfig(timeout=5.0)
        )
        parent_conn, child_conn = multiprocessing.Pipe()
        worker = _Worker(process=None, conn=parent_conn)
        supervisor._workers.append(worker)
        supervisor._pending = [_Task(index=0, params={"x": 0}, attempt=1)]
        supervisor._outstanding = 1
        try:
            before = time.monotonic()
            supervisor._dispatch_ready(before)
            assert [task.index for task in worker.tasks] == [0]
            assert worker.ready is False
            assert worker.deadline is None  # no clock while still booting
            child_conn.send(("ready", -1, 0, None))
            supervisor._step()
            assert worker.ready is True
            assert worker.deadline is not None
            assert worker.deadline >= before + 5.0
        finally:
            parent_conn.close()
            child_conn.close()

    def test_tight_timeout_survives_worker_startup(self, tmp_path):
        """End to end: a tight per-point timeout produces no false
        timeouts, including on the replacement workers the crash
        recovery spawns mid-sweep (each replacement re-enters startup)."""
        spec = ft.cheap_spec(
            n=3, target="ft-crash-once", marker_dir=[str(tmp_path)]
        )
        result = run_sweep(
            spec, workers=2, config=SupervisorConfig(timeout=2.0)
        )
        assert result.ok
        assert result.harness["timeouts"] == 0.0
        assert result.harness["crashes"] == 3.0


class TestRetryExhaustion:
    def test_exhausted_budget_lands_in_the_error_ledger(self):
        spec = ft.cheap_spec(n=2, target="ft-always-crash")
        result = run_sweep(spec, config=SupervisorConfig(retries=1))
        assert not result.ok
        assert result.points == []
        assert [f.index for f in result.failures] == [0, 1]
        for failure in result.failures:
            assert failure.attempts == 2
            assert "exit code 23" in failure.error
        assert result.harness["failed"] == 2.0

    def test_strict_mode_raises_instead(self):
        spec = ft.cheap_spec(n=2, target="ft-always-crash")
        with pytest.raises(SweepPointError, match="after 2 attempt"):
            run_sweep(spec, config=SupervisorConfig(retries=1, strict=True))

    def test_strict_cli_exits_1_with_a_message_not_a_traceback(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "strict-ft", "--target", "ft-always-crash",
            "--axis", "x=0,1", "--retries", "0", "--strict",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed after 1 attempt" in err

    def test_in_worker_exceptions_use_the_same_budget(self):
        spec = ft.cheap_spec(n=4, target="ft-boom")
        result = run_sweep(
            spec, workers=2, config=SupervisorConfig(retries=1)
        )
        assert [f.index for f in result.failures] == [1, 3]
        assert all("boom" in f.error for f in result.failures)
        assert [p.index for p in result.points] == [0, 2]
        assert result.harness["errors"] == 4.0  # 2 points x 2 attempts


#: A script whose spawned workers re-run it as ``__mp_main__``, which
#: registers the crashing target there too; the exit code says which
#: module the point ran in.
_SPAWN_CRASH_SCRIPT = textwrap.dedent(
    """
    import json
    import multiprocessing
    import os

    from repro.sweep import SupervisorConfig, SweepSpec, register_target
    from repro.sweep import run_sweep, supervisor


    @register_target("spawn-crash")
    def spawn_crash(params, telemetry, rng):
        os._exit(25 if __name__ == "__mp_main__" else 26)


    if __name__ == "__main__":
        supervisor.process_context = (
            lambda: multiprocessing.get_context("spawn")
        )
        result = run_sweep(
            SweepSpec(name="spawn-ft", target="spawn-crash",
                      grid={"x": [0]}),
            config=SupervisorConfig(retries=1),
        )
        print(json.dumps([[f.attempts, f.error] for f in result.failures]))
    """
)


class TestSpawnStartMethod:
    def test_crash_detection_works_under_spawn(self, tmp_path):
        script = tmp_path / "spawn_crash.py"
        script.write_text(_SPAWN_CRASH_SCRIPT)
        process = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        [[attempts, error]] = json.loads(process.stdout)
        assert attempts == 2
        assert "exit code 25" in error


class TestInterrupt:
    def test_interrupt_carries_the_partial_result(self):
        spec = ft.cheap_spec(n=5)
        seen = []

        def progress(point):
            seen.append(point.index)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(spec, workers=1, progress=progress)
        assert isinstance(excinfo.value, KeyboardInterrupt)
        partial = excinfo.value.partial
        assert [p.index for p in partial.points] == [0, 1]
        assert "3 point(s) unfinished" in str(excinfo.value)


class TestJournalAndResume:
    def test_journalled_run_is_loadable_and_complete(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        journal = tmp_path / "run.jsonl"
        result = run_sweep(spec, workers=2, journal=journal)
        state = load_journal(journal)
        assert state.matches(spec) is None
        assert sorted(state.completed) == [0, 1, 2, 3]
        assert result.ok

    def test_resume_skips_completed_points(self, tmp_path):
        spec = ft.cheap_spec(n=6)
        journal = tmp_path / "run.jsonl"
        full = run_sweep(spec, workers=1, journal=journal)
        # Truncate the journal to the header + first two point records.
        lines = journal.read_text().splitlines()
        journal.write_text("".join(line + "\n" for line in lines[:3]))
        resumed = run_sweep(spec, workers=2, resume=journal)
        assert resumed.ok
        assert resumed.harness["resumed"] == 2.0
        assert resumed.harness["dispatched"] == 4.0
        assert resumed.fingerprint() == full.fingerprint()

    def test_resume_rejects_a_journal_for_a_different_spec(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_sweep(ft.cheap_spec(n=4), journal=journal)
        with pytest.raises(ConfigurationError, match="cannot resume"):
            run_sweep(ft.cheap_spec(n=5), resume=journal)

    def test_journal_and_resume_must_agree_on_the_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not two"):
            run_sweep(
                ft.cheap_spec(),
                journal=tmp_path / "a.jsonl",
                resume=tmp_path / "b.jsonl",
            )

    @pytest.mark.parametrize("paths", [list, tuple])
    def test_resume_takes_one_path_not_a_sequence(self, tmp_path, paths):
        journal = tmp_path / "run.jsonl"
        run_sweep(ft.cheap_spec(n=2), journal=journal)
        with pytest.raises(ConfigurationError, match="one journal path"):
            run_sweep(ft.cheap_spec(n=2), resume=paths([journal]))

    @pytest.mark.parametrize("spell", [str, pathlib.Path])
    def test_resume_path_may_be_a_string_or_a_path(self, tmp_path, spell):
        spec = ft.cheap_spec(n=3)
        journal = tmp_path / "run.jsonl"
        full = run_sweep(spec, journal=journal)
        resumed = run_sweep(spec, resume=spell(journal))
        assert resumed.harness["resumed"] == 3.0
        assert resumed.fingerprint() == full.fingerprint()

    def test_one_worker_journal_and_resume_agree(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        journal = tmp_path / "run.jsonl"
        full = run_sweep(spec, journal=journal)
        assert sorted(load_journal(journal).completed) == [0, 1, 2, 3]
        lines = journal.read_text().splitlines()
        journal.write_text("".join(line + "\n" for line in lines[:3]))
        resumed = run_sweep(spec, resume=journal)
        assert resumed.harness["resumed"] == 2.0
        assert resumed.harness["dispatched"] == 2.0
        assert resumed.fingerprint() == full.fingerprint()


#: Runs a journalled sweep and SIGKILLs its own parent process the moment
#: the k-th point result lands — the hardest interruption there is.
_SIGKILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    from tests.sweep import _ft_helpers as ft
    from repro.sweep import run_sweep

    workers, journal, kill_after = (
        int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    )
    done = 0

    def progress(result):
        global done
        done += 1
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run_sweep(ft.slow_spec(), workers=workers, journal=journal,
              progress=progress)
    """
)


class TestResumeAfterParentSigkill:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resumed_fingerprint_is_bit_identical(self, tmp_path, workers):
        journal = tmp_path / "run.jsonl"
        process = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SCRIPT,
             str(workers), str(journal), "3"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr
        spec = ft.slow_spec()
        state = load_journal(journal)
        assert state.matches(spec) is None
        completed_before = len(state.completed)
        assert 3 <= completed_before < len(spec.points())
        resumed = run_sweep(spec, workers=workers, resume=journal)
        assert resumed.ok
        assert resumed.harness["resumed"] == float(completed_before)
        fresh = run_sweep(spec)
        assert resumed.fingerprint() == fresh.fingerprint()
        # The journal now holds the full sweep; resuming again is a no-op
        # that still reproduces the same fingerprint.
        again = run_sweep(spec, resume=journal)
        assert again.harness["dispatched"] == 0.0
        assert again.fingerprint() == fresh.fingerprint()


class TestTelemetryCounters:
    def test_supervisor_events_surface_as_metrics(self):
        telemetry = Telemetry()
        spec = ft.cheap_spec(n=8, target="ft-crash-at", crash_at=[4])
        run_sweep(
            spec, workers=2, config=SupervisorConfig(retries=3),
            telemetry=telemetry,
        )
        metrics = telemetry.metrics

        def total(name):
            return metrics.counter(f"sweep.supervisor.{name}").total()

        assert total("completed") == 7.0
        assert total("crashes") == 4.0
        assert total("retries") == 3.0
        assert total("failed") == 1.0


class TestSupervisorConfigEdges:
    @pytest.mark.parametrize("kwargs, message", [
        ({"timeout": -1.0}, "timeout must be positive: -1.0"),
        ({"retries": -2}, "retries must be >= 0: -2"),
    ])
    def test_bad_policy_messages_name_the_value(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            SupervisorConfig(**kwargs)


class TestDispatch:
    """The parent's dispatch loop, driven over bare pipes (no children)."""

    def _supervisor(self, workers, tasks, timeout=5.0):
        supervisor = Supervisor(
            ft.cheap_spec(n=len(tasks)), SupervisorConfig(timeout=timeout)
        )
        pipes = []
        for _ in range(workers):
            parent_conn, child_conn = multiprocessing.Pipe()
            supervisor._workers.append(
                _Worker(process=None, conn=parent_conn, ready=True)
            )
            pipes.append((parent_conn, child_conn))
        supervisor._pending = [
            _Task(index=index, params={"x": index}, attempt=1)
            for index in tasks
        ]
        supervisor._outstanding = len(tasks)
        return supervisor, pipes

    def _close(self, pipes):
        for parent_conn, child_conn in pipes:
            parent_conn.close()
            child_conn.close()

    def test_workers_fill_breadth_first_up_to_the_pipeline_depth(self):
        supervisor, pipes = self._supervisor(2, range(5))
        try:
            supervisor._dispatch_ready(0.0)
            held = [[task.index for task in worker.tasks]
                    for worker in supervisor._workers]
            assert held == [[0, 2], [1, 3]]
            assert [task.index for task in supervisor._pending] == [4]
            assert supervisor.counters["dispatched"] == 4.0
            assert [child.recv() for _, child in pipes] == [
                (0, {"x": 0}, 1), (1, {"x": 1}, 1),
            ]
        finally:
            self._close(pipes)

    def test_a_ready_worker_starts_the_clock_at_dispatch(self):
        supervisor, pipes = self._supervisor(1, [0, 1])
        try:
            supervisor._dispatch_ready(10.0)
            [worker] = supervisor._workers
            assert worker.deadline == 15.0
        finally:
            self._close(pipes)

    def test_no_timeout_means_no_deadline(self):
        supervisor, pipes = self._supervisor(1, [0], timeout=None)
        try:
            supervisor._dispatch_ready(10.0)
            assert supervisor._workers[0].deadline is None
        finally:
            self._close(pipes)

    def test_a_task_in_backoff_is_not_dispatched(self):
        supervisor, pipes = self._supervisor(1, [0])
        try:
            supervisor._pending[0].not_before = 50.0
            supervisor._dispatch_ready(10.0)
            assert supervisor._workers[0].tasks == []
            assert supervisor.counters["dispatched"] == 0.0
        finally:
            self._close(pipes)

    def test_a_result_completes_the_head_task_and_clocks_the_next(self):
        supervisor, pipes = self._supervisor(1, [0, 1])
        results = []
        supervisor._on_result = lambda result, attempt: results.append(
            (result, attempt)
        )
        try:
            supervisor._dispatch_ready(time.monotonic())
            pipes[0][1].send(("ok", 0, 1, "point-0"))
            before = time.monotonic()
            supervisor._step()
            [worker] = supervisor._workers
            assert results == [("point-0", 1)]
            assert [task.index for task in worker.tasks] == [1]
            assert worker.deadline >= before + 5.0
            assert supervisor._outstanding == 1
        finally:
            self._close(pipes)

    def test_an_error_result_spends_one_retry(self):
        supervisor, pipes = self._supervisor(1, [0])
        try:
            supervisor._dispatch_ready(time.monotonic())
            pipes[0][1].send(("error", 0, 1, "RuntimeError: boom"))
            supervisor._step()
            assert supervisor.counters["errors"] == 1.0
            assert supervisor.counters["retries"] == 1.0
            [retry] = supervisor._pending
            assert (retry.index, retry.attempt) == (0, 2)
            assert supervisor._workers[0].tasks == []
            assert supervisor._workers[0].deadline is None
        finally:
            self._close(pipes)
