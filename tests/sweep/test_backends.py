"""Executor selection, fleet config and deterministic backoff."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sweep import FleetConfig, run_sweep
from repro.sweep.backends import (
    BACKEND_NAMES,
    RETRY_BACKOFF,
    BaseExecutor,
    InlineExecutor,
    backoff_delay,
    create_executor,
)
from repro.sweep.supervisor import Supervisor, SupervisorConfig

from tests.sweep import _ft_helpers as ft


class TestCreateExecutor:
    def test_every_declared_backend_builds_an_executor(self):
        for name in BACKEND_NAMES:
            executor = create_executor(
                name, ft.cheap_spec(), SupervisorConfig()
            )
            assert isinstance(executor, BaseExecutor)

    def test_unknown_backend_lists_what_exists(self):
        with pytest.raises(ConfigurationError, match="local, tcp"):
            create_executor("mpi", ft.cheap_spec(), SupervisorConfig())

    @pytest.mark.parametrize("workers, config, expected", [
        (1, SupervisorConfig(), InlineExecutor),
        (2, SupervisorConfig(), Supervisor),
        (1, SupervisorConfig(timeout=5.0), Supervisor),
        (1, SupervisorConfig(chaos="crash:0.1"), Supervisor),
        (1, SupervisorConfig(start_method="spawn"), Supervisor),
    ])
    def test_default_backend_runs_in_process_unless_isolation_is_asked(
        self, workers, config, expected
    ):
        executor = create_executor(
            None, ft.cheap_spec(), config, workers=workers
        )
        assert type(executor) is expected

    def test_local_backend_always_supervises(self):
        executor = create_executor("local", ft.cheap_spec(), SupervisorConfig())
        assert isinstance(executor, Supervisor)
        assert executor.workers == 1

    def test_fleet_config_is_rejected_for_local_backends(self):
        with pytest.raises(ConfigurationError, match="tcp"):
            run_sweep(
                ft.cheap_spec(n=2), backend="local", fleet=FleetConfig()
            )

    @pytest.mark.parametrize("backend", [None, "local"])
    def test_fleet_chaos_is_rejected_outside_tcp(self, backend):
        config = SupervisorConfig(
            chaos="crash:0.1,host-crash:0.1,drop:0.5", timeout=5.0
        )
        with pytest.raises(ConfigurationError, match="host-crash, drop"):
            run_sweep(ft.cheap_spec(n=2), workers=2, config=config,
                      backend=backend)


class TestStartMethodBackends:
    def test_fork_backend_agrees_with_serial(self):
        spec = ft.cheap_spec(n=4)
        serial = run_sweep(spec, workers=1)
        forked = run_sweep(
            spec, workers=2, config=SupervisorConfig(start_method="fork")
        )
        assert forked.ok
        assert forked.fingerprint() == serial.fingerprint()

    def test_spawn_backend_agrees_with_serial(self):
        # A built-in target: spawn children re-import the registry from
        # scratch, so test-local registrations would not exist there.
        from repro.sweep import SweepSpec

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
        spawned = run_sweep(
            spec, workers=2, config=SupervisorConfig(start_method="spawn")
        )
        assert spawned.ok
        assert spawned.fingerprint() == serial.fingerprint()


class TestBackoffDelay:
    def _config(self, jitter):
        return SupervisorConfig(jitter=jitter)

    def _base(self, attempt):
        return backoff_delay(self._config(0.0), 7, "ft", 0, attempt)

    def test_zero_jitter_is_the_plain_geometric_schedule(self):
        delays = [self._base(attempt) for attempt in range(1, 6)]
        assert delays[:2] == [0.0, RETRY_BACKOFF]
        for before, after in zip(delays[1:], delays[2:]):
            assert after == pytest.approx(2.0 * before)

    def test_jittered_delay_is_deterministic(self):
        config = self._config(0.5)
        first = [
            backoff_delay(config, 7, "ft", index, attempt)
            for index in range(4)
            for attempt in range(2, 5)
        ]
        again = [
            backoff_delay(config, 7, "ft", index, attempt)
            for index in range(4)
            for attempt in range(2, 5)
        ]
        assert first == again

    def test_jitter_stays_within_its_fraction_of_the_base(self):
        config = self._config(0.5)
        for index in range(8):
            for attempt in range(2, 6):
                base = self._base(attempt)
                delay = backoff_delay(config, 7, "ft", index, attempt)
                assert base <= delay <= base * 1.5

    def test_draws_differ_across_points_and_attempts(self):
        config = self._config(1.0)
        draws = {
            backoff_delay(config, 7, "ft", index, 2) for index in range(8)
        }
        assert len(draws) > 1
        chains = {
            backoff_delay(config, 7, "ft", 0, attempt) / self._base(attempt)
            for attempt in range(2, 8)
        }
        assert len(chains) > 1

    def test_first_attempt_has_no_delay_to_jitter(self):
        assert backoff_delay(self._config(1.0), 7, "ft", 0, 1) == 0.0

    def test_negative_jitter_is_rejected(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            SupervisorConfig(jitter=-0.1)


class TestFleetConfig:
    def test_defaults_are_valid(self):
        fleet = FleetConfig()
        assert fleet.effective_heartbeat_timeout == pytest.approx(
            10.0 * fleet.heartbeat_interval
        )

    def test_explicit_heartbeat_timeout_wins(self):
        fleet = FleetConfig(heartbeat_interval=0.1, heartbeat_timeout=2.0)
        assert fleet.effective_heartbeat_timeout == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_hosts": 0},
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 1.0, "heartbeat_timeout": 0.5},
            {"wait_for_hosts": 0.0},
        ],
    )
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetConfig(**kwargs)
