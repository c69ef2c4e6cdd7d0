"""The supervisor's queue, retry budget and run contract, the start
methods, and deterministic backoff."""

import multiprocessing

import pytest

from repro.sweep import SweepSpec, run_sweep
from repro.sweep import supervisor as supervisor_module
from repro.sweep.backends import (
    COUNTERS,
    RETRY_BACKOFF,
    SweepInterrupted,
    SweepPointError,
    _Task,
    backoff_delay,
)
from repro.sweep.supervisor import Supervisor, SupervisorConfig

from tests.sweep import _ft_helpers as ft


class TestStartMethodBackends:
    @pytest.fixture
    def start_in(self, monkeypatch):
        """Start the supervisor's workers by ``method``."""

        def force(method):
            monkeypatch.setattr(
                supervisor_module, "process_context",
                lambda: multiprocessing.get_context(method),
            )

        return force

    def test_fork_backend_agrees_with_serial(self, start_in):
        spec = ft.cheap_spec(n=4)
        serial = run_sweep(spec, workers=1)
        start_in("fork")
        forked = run_sweep(spec, workers=2)
        assert forked.ok
        assert forked.fingerprint() == serial.fingerprint()

    def test_spawn_backend_agrees_with_serial(self, start_in):
        # A built-in target: spawn children re-import the registry from
        # scratch, so test-local registrations would not exist there.
        spec = SweepSpec(
            name="backend-spawn",
            target="fabric-congestion",
            grid={
                "topology": ["two-tier"], "congestion": ["none", "flow"],
                "load": [0.5], "flows": [8],
            },
            seed=5,
        )
        serial = run_sweep(spec, workers=1)
        start_in("spawn")
        spawned = run_sweep(spec, workers=2)
        assert spawned.ok
        assert spawned.fingerprint() == serial.fingerprint()

    def test_default_context_prefers_fork(self):
        assert supervisor_module.process_context().get_start_method() == (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )


class _ScriptedExecutor(Supervisor):
    """A supervisor with no workers: each step runs a scripted callable."""

    def __init__(self, script=None, config=None, **context):
        super().__init__(ft.cheap_spec(n=4), config or SupervisorConfig(),
                         **context)
        self.script = script
        self.shutdowns = 0
        self.results = []
        self.failures = []

    def _spawn_worker(self):
        pass

    def _step(self):
        self.script(self)

    def _shutdown(self):
        self.shutdowns += 1

    def start(self, tasks):
        """Bind callbacks and queue ``tasks`` the way :meth:`run` does."""
        self._on_result = lambda result, attempt: self.results.append(
            (result, attempt)
        )
        self._on_failure = self.failures.append
        self._pending = [
            _Task(index=index, params=dict(params), attempt=1)
            for index, params in tasks
        ]
        self._outstanding = len(self._pending)


class TestPendingQueue:
    def test_lowest_ready_index_is_dispatched_first(self):
        executor = _ScriptedExecutor()
        executor.start([(3, {}), (1, {}), (2, {})])
        order = [executor._pop_ready(0.0).index for _ in range(3)]
        assert order == [1, 2, 3]
        assert executor._pop_ready(0.0) is None

    def test_a_task_in_backoff_waits_its_turn(self):
        executor = _ScriptedExecutor()
        executor.start([(0, {}), (5, {})])
        executor._pending[0].not_before = 10.0
        assert executor._pop_ready(5.0).index == 5
        assert executor._pop_ready(5.0) is None
        assert executor._pop_ready(10.0).index == 0

    def test_next_wake_is_the_earliest_backoff_expiry(self):
        executor = _ScriptedExecutor()
        executor.start([])
        assert executor._next_wake() is None
        executor.start([(0, {}), (1, {}), (2, {})])
        for task, wake in zip(executor._pending, (4.0, 2.5, 7.0)):
            task.not_before = wake
        assert executor._next_wake() == 2.5


class TestRetryOrFail:
    @pytest.mark.parametrize("attempt", [1, 2, 3])
    def test_a_lost_attempt_within_budget_is_requeued_with_backoff(
        self, attempt
    ):
        config = SupervisorConfig(retries=3)
        executor = _ScriptedExecutor(config=config)
        executor.start([])
        executor._outstanding = 1
        task = _Task(index=2, params={"x": 2}, attempt=attempt)
        executor._retry_or_fail(task, "RuntimeError: boom", now=100.0)
        [retry] = executor._pending
        assert (retry.index, retry.params, retry.attempt) == (
            2, {"x": 2}, attempt + 1
        )
        assert retry.not_before == 100.0 + backoff_delay(attempt + 1)
        assert executor._outstanding == 1
        assert executor.counters["retries"] == 1.0
        assert executor.failures == []

    def test_an_exhausted_budget_goes_to_the_ledger(self):
        executor = _ScriptedExecutor(config=SupervisorConfig(retries=1))
        executor.start([])
        executor._outstanding = 1
        task = _Task(index=3, params={"x": 3}, attempt=2)
        executor._retry_or_fail(task, "WorkerCrash: gone", now=0.0)
        assert executor._pending == []
        assert executor._outstanding == 0
        assert executor.counters["failed"] == 1.0
        assert executor.counters["retries"] == 0.0
        [failure] = executor.failures
        assert failure.record() == {
            "index": 3, "params": {"x": 3}, "error": "WorkerCrash: gone",
            "attempts": 2,
        }

    def test_zero_retries_ledger_the_first_failure(self):
        executor = _ScriptedExecutor(config=SupervisorConfig(retries=0))
        executor.start([])
        executor._outstanding = 1
        executor._retry_or_fail(_Task(index=0, params={}, attempt=1),
                                "boom", now=0.0)
        assert [failure.attempts for failure in executor.failures] == [1]

    def test_strict_raises_after_recording_the_failure(self):
        executor = _ScriptedExecutor(
            config=SupervisorConfig(retries=0, strict=True)
        )
        executor.start([])
        executor._outstanding = 1
        with pytest.raises(SweepPointError,
                           match="sweep 'ft' point 4 failed after 1 attempt"):
            executor._retry_or_fail(_Task(index=4, params={}, attempt=1),
                                    "boom", now=0.0)
        assert [failure.index for failure in executor.failures] == [4]


class TestRunContract:
    def test_no_tasks_return_zero_counters_without_a_loop(self):
        executor = _ScriptedExecutor(script=lambda ex: pytest.fail("ran"))
        counters = executor.run([], lambda *_: None, lambda _: None)
        assert counters == {name: 0.0 for name in COUNTERS}
        assert executor.shutdowns == 0

    def test_ctrl_c_becomes_sweep_interrupted_after_shutdown(self):
        def script(executor):
            executor._complete("first", 1)
            raise KeyboardInterrupt

        executor = _ScriptedExecutor(script=script)
        seen = []
        with pytest.raises(SweepInterrupted,
                           match="'ft' interrupted; 2 point"):
            executor.run([(0, {}), (1, {}), (2, {})],
                         lambda result, attempt: seen.append(result),
                         lambda _: None)
        assert seen == ["first"]
        assert executor.shutdowns == 1

    def test_shutdown_runs_when_the_loop_raises(self):
        def script(executor):
            raise RuntimeError("substrate lost")

        executor = _ScriptedExecutor(script=script)
        with pytest.raises(RuntimeError, match="substrate lost"):
            executor.run([(0, {})], lambda *_: None, lambda _: None)
        assert executor.shutdowns == 1

    def test_returned_counters_are_a_copy(self):
        def script(executor):
            executor._complete("done", 1)

        executor = _ScriptedExecutor(script=script)
        counters = executor.run([(0, {})], lambda *_: None, lambda _: None)
        counters["completed"] = 99.0
        assert executor.counters["completed"] == 1.0

    def test_tasks_hold_their_own_copy_of_the_params(self):
        params = {"x": 1}
        executor = _ScriptedExecutor()
        executor.start([(0, params)])
        params["x"] = 2
        assert executor._pending[0].params == {"x": 1}

    def test_bump_publishes_supervisor_counters(self):
        from repro.observability import Telemetry

        telemetry = Telemetry()
        executor = _ScriptedExecutor(metrics=telemetry.metrics)
        executor.bump("crashes")
        executor.bump("resumed", 3.0)
        assert executor.counters["crashes"] == 1.0
        assert executor.counters["resumed"] == 3.0
        assert telemetry.metrics.counter(
            "sweep.supervisor.resumed"
        ).total() == 3.0

    def test_interrupt_is_a_keyboard_interrupt_with_no_partial_yet(self):
        interrupt = SweepInterrupted("stopped")
        assert isinstance(interrupt, KeyboardInterrupt)
        assert interrupt.partial is None


class TestSupervisorContext:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_context_and_worker_count_reach_the_supervisor(
        self, tmp_path, workers
    ):
        from repro.observability import Telemetry

        metrics = Telemetry().metrics
        supervisor = Supervisor(
            ft.cheap_spec(), SupervisorConfig(), workers=workers,
            trace_dir=str(tmp_path), metrics=metrics, collect_telemetry=True,
        )
        assert supervisor.trace_dir == str(tmp_path)
        assert supervisor.metrics is metrics
        assert supervisor.collect_telemetry is True
        assert supervisor.workers == workers


class TestBackoffSchedule:
    @pytest.mark.parametrize("attempt", [2, 3, 4, 5, 6])
    def test_attempt_n_waits_the_base_doubled_n_minus_2_times(self, attempt):
        assert backoff_delay(attempt) == RETRY_BACKOFF * 2 ** (attempt - 2)
