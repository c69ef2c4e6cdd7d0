"""The distributed tcp backend: sharding, host death, stealing, resume.

The acceptance bar for the fleet work: a tcp sweep sharded over loopback
worker hosts — with hosts SIGKILLed mid-run, stragglers injected via
chaos, and the coordinator itself killed and resumed from merged
journals — always hashes bit-identically to a serial single-process run.
"""

import multiprocessing
import os
import pathlib
import signal
import socket
import threading
import time

import pytest

from repro.sweep import ChaosSpec, FleetConfig, SweepSpec, run_sweep
from repro.sweep.backends import FleetError
from repro.sweep.coordinator import TcpCoordinator, _Host
from repro.sweep.frames import PROTOCOL_VERSION, recv_frame, send_frame
from repro.sweep.remote_worker import _WorkerHost, run_worker
from repro.sweep.supervisor import CHAOS_HOST_EXIT_CODE, SupervisorConfig

from tests.sweep import _ft_helpers as ft

#: Fork start method: loopback workers inherit the ft-* registrations.
_context = multiprocessing.get_context("fork")


def _worker_main(port, name, slots=1, journal=None):
    import sys

    sys.exit(run_worker(
        f"127.0.0.1:{port}", slots=slots, name=name, journal=journal,
    ))


def _resilient_worker_main(port, name):
    """A worker under a restart-on-crash process supervisor.

    ``host_crash`` chaos ``os._exit``\\ s the whole host; a real fleet
    runs workers under systemd/k8s which restart them.  This loop forks
    ``run_worker`` into a child and restarts it for as long as it keeps
    dying with the chaos exit code.
    """
    import sys

    while True:
        child = _context.Process(target=_worker_main, args=(port, name))
        child.start()
        child.join()
        if child.exitcode != CHAOS_HOST_EXIT_CODE:
            sys.exit(child.exitcode or 0)


class _Fleet:
    """Spawns ``count`` loopback workers the moment the port is known."""

    def __init__(self, count, slots=1, journal_dir=None, resilient=False):
        self.count = count
        self.slots = slots
        self.journal_dir = journal_dir
        self.resilient = resilient
        self.processes = []

    def on_listen(self, host, port):
        for rank in range(self.count):
            name = f"w{rank}"
            if self.resilient:
                process = _context.Process(
                    target=_resilient_worker_main, args=(port, name)
                )
            else:
                journal = (
                    str(self.journal_dir / f"{name}.jsonl")
                    if self.journal_dir is not None else None
                )
                process = _context.Process(
                    target=_worker_main,
                    args=(port, name, self.slots, journal),
                )
            process.start()
            self.processes.append(process)

    def config(self, **kwargs):
        kwargs.setdefault("min_hosts", self.count)
        kwargs.setdefault("wait_for_hosts", 30.0)
        return FleetConfig(on_listen=self.on_listen, **kwargs)

    def join(self, timeout=15.0):
        for process in self.processes:
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)


@pytest.fixture
def fleet_cleanup():
    fleets = []
    yield fleets.append
    for fleet in fleets:
        fleet.join()


def _tcp_sweep(spec, fleet, **policy):
    policy.setdefault("timeout", 30.0)
    return run_sweep(
        spec, backend="tcp", fleet=fleet.config(),
        config=SupervisorConfig(**policy),
    )


class TestFleetMatchesSerial:
    def test_two_host_fingerprint_is_bit_identical(self, fleet_cleanup):
        spec = ft.cheap_spec(n=8)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2)
        fleet_cleanup(fleet)
        sharded = _tcp_sweep(spec, fleet)
        assert sharded.ok
        assert sharded.fingerprint() == serial.fingerprint()
        assert sharded.harness["hosts_seen"] == 2.0
        assert sharded.harness["completed"] == 8.0
        assert [p.index for p in sharded.points] == list(range(8))

    def test_multi_axis_grid_order_survives_the_wire(self, fleet_cleanup):
        """Axis order defines point enumeration; the welcome frame must
        preserve it even though frames serialise with sorted keys."""
        spec = SweepSpec(
            name="ft-axes",
            target="ft-cheap",
            grid={"zz": [0, 1], "x": [0, 1, 2]},  # deliberately unsorted
            seed=13,
        )
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2)
        fleet_cleanup(fleet)
        sharded = _tcp_sweep(spec, fleet)
        assert sharded.ok
        assert sharded.fingerprint() == serial.fingerprint()
        assert [p.params for p in sharded.points] == [
            p.params for p in serial.points
        ]

    def test_fingerprint_identical_at_any_fleet_shape_under_stragglers(
        self, fleet_cleanup
    ):
        """1 local worker vs 2 vs 4 tcp hosts, with deterministic hang
        chaos injecting stragglers: all four fingerprints identical."""
        spec = ft.cheap_spec(n=6, seed=31)
        chaos = ChaosSpec(hang=0.35, hang_seconds=30.0)
        baseline = run_sweep(spec, workers=1)
        hung = run_sweep(
            spec, config=SupervisorConfig(chaos=chaos, timeout=0.5, retries=3)
        )
        assert hung.ok
        assert hung.fingerprint() == baseline.fingerprint()
        assert hung.harness["timeouts"] > 0  # the chaos actually fired
        prints = {baseline.fingerprint()}
        for hosts in (2, 4):
            fleet = _Fleet(hosts)
            fleet_cleanup(fleet)
            result = _tcp_sweep(
                spec, fleet, chaos=chaos, timeout=0.5, retries=3
            )
            assert result.ok
            assert result.harness["timeouts"] > 0
            prints.add(result.fingerprint())
        assert len(prints) == 1


class TestHostDeath:
    def test_sigkilled_host_work_is_requeued_to_survivors(
        self, fleet_cleanup
    ):
        spec = ft.slow_spec(n=8, sleep_s=0.15)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2)
        fleet_cleanup(fleet)
        killer = threading.Timer(
            0.6, lambda: fleet.processes[0].kill()
        )
        killer.start()
        try:
            result = _tcp_sweep(spec, fleet, retries=2)
        finally:
            killer.cancel()
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["hosts_lost"] == 1.0
        assert result.harness["hosts_seen"] == 2.0

    def test_silent_host_is_declared_dead_by_heartbeat(self, fleet_cleanup):
        """A host that handshakes then never speaks again (no heartbeat,
        no results) is dropped at the heartbeat deadline and its queued
        points — never started — are reassigned without burning retries."""
        spec = ft.cheap_spec(n=6)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(1)
        fleet_cleanup(fleet)
        mute = {}

        def mute_host_thread(port):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.connect(("127.0.0.1", port))
            mute["sock"] = sock  # keep it open, say nothing forever
            send_frame(sock, {
                "type": "hello", "protocol": PROTOCOL_VERSION,
                "name": "mute", "slots": 1,
            })
            welcome = recv_frame(sock)
            assert welcome is not None and welcome["type"] == "welcome"

        def connect_mute_host(host, port):
            # on_listen runs before the coordinator's accept loop, so the
            # handshake must happen concurrently, not inline.
            fleet.on_listen(host, port)
            thread = threading.Thread(
                target=mute_host_thread, args=(port,), daemon=True
            )
            thread.start()
            mute["thread"] = thread

        fleet_config = FleetConfig(
            min_hosts=2, heartbeat_interval=0.1, heartbeat_timeout=0.4,
            wait_for_hosts=30.0, on_listen=connect_mute_host,
        )
        result = run_sweep(
            spec, backend="tcp", fleet=fleet_config,
            config=SupervisorConfig(timeout=30.0),
        )
        mute["thread"].join(timeout=5.0)
        mute["sock"].close()
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["hosts_lost"] == 1.0
        assert result.harness["retries"] == 0.0  # unstarted: no retry cost

    def test_losing_every_host_raises_fleet_error(self, fleet_cleanup):
        spec = ft.slow_spec(n=8, sleep_s=0.2)
        fleet = _Fleet(1)
        fleet_cleanup(fleet)
        killer = threading.Timer(
            0.5, lambda: fleet.processes[0].kill()
        )
        killer.start()
        try:
            with pytest.raises(FleetError, match="all worker hosts lost"):
                run_sweep(
                    spec, backend="tcp", config=SupervisorConfig(timeout=30.0),
                    fleet=fleet.config(wait_for_hosts=1.0),
                )
        finally:
            killer.cancel()

    def test_no_hosts_at_all_raises_fleet_error(self):
        with pytest.raises(FleetError, match="waited .*for 1 worker"):
            run_sweep(
                ft.cheap_spec(n=2), backend="tcp",
                config=SupervisorConfig(timeout=30.0),
                fleet=FleetConfig(
                    wait_for_hosts=0.3, heartbeat_interval=0.1
                ),
            )


class TestChaosFaults:
    def test_host_crash_chaos_converges_under_a_restarting_fleet(
        self, fleet_cleanup
    ):
        spec = ft.cheap_spec(n=8, seed=91)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2, resilient=True)
        fleet_cleanup(fleet)
        result = run_sweep(
            spec, backend="tcp",
            config=SupervisorConfig(
                timeout=30.0, retries=4, chaos=ChaosSpec(host_crash=0.2),
            ),
            fleet=fleet.config(
                heartbeat_interval=0.1, wait_for_hosts=30.0
            ),
        )
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["hosts_lost"] >= 1.0  # the chaos fired
        assert result.harness["hosts_seen"] > 2.0  # and restarts rejoined

    def test_dropped_result_frames_are_recovered_by_timeout(
        self, fleet_cleanup
    ):
        spec = ft.cheap_spec(n=8, seed=47)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2)
        fleet_cleanup(fleet)
        result = _tcp_sweep(
            spec, fleet, timeout=0.6, retries=3,
            chaos=ChaosSpec(drop=0.3),
        )
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["timeouts"] > 0  # the drops actually fired

    def test_drop_chaos_without_a_timeout_is_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="timeout"):
            SupervisorConfig(chaos=ChaosSpec(drop=0.3))

    def test_delayed_result_frames_only_cost_wall_clock(self, fleet_cleanup):
        spec = ft.cheap_spec(n=6, seed=53)
        serial = run_sweep(spec, workers=1)
        fleet = _Fleet(2)
        fleet_cleanup(fleet)
        result = _tcp_sweep(
            spec, fleet, chaos=ChaosSpec(delay=0.5, delay_seconds=0.05),
        )
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["retries"] == 0.0


def _coordinator_main(spec, port_file, journal, fleet_kwargs):
    def on_listen(host, port):
        pathlib.Path(port_file).write_text(str(port))

    run_sweep(
        spec, backend="tcp", journal=journal,
        config=SupervisorConfig(timeout=30.0),
        fleet=FleetConfig(on_listen=on_listen, **fleet_kwargs),
    )


class TestKillAnySubset:
    def test_sigkilled_coordinator_resumes_from_merged_journals(
        self, tmp_path, fleet_cleanup
    ):
        """The tentpole scenario: coordinator + 2 journalling hosts,
        SIGKILL the coordinator mid-sweep, merge its journal with the
        hosts' and resume — fingerprint bit-identical to serial."""
        spec = ft.slow_spec(n=10, sleep_s=0.1)
        serial = run_sweep(spec, workers=1)
        coord_journal = tmp_path / "coord.jsonl"
        port_file = tmp_path / "port"
        coordinator = _context.Process(
            target=_coordinator_main,
            args=(spec, str(port_file), str(coord_journal),
                  {"min_hosts": 2, "wait_for_hosts": 30.0}),
        )
        coordinator.start()
        deadline = time.monotonic() + 30.0
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        port = int(port_file.read_text())
        fleet = _Fleet(2, journal_dir=tmp_path)
        fleet_cleanup(fleet)
        fleet.on_listen("127.0.0.1", port)
        # Kill the coordinator once it has journalled a few points but
        # before the sweep can finish.
        while time.monotonic() < deadline:
            if (
                coord_journal.exists()
                and len(coord_journal.read_text().splitlines()) >= 4
            ):
                break
            time.sleep(0.02)
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.join(timeout=10.0)
        fleet.join()  # workers exit once the coordinator socket dies
        journals = [coord_journal] + [
            path for path in (tmp_path / "w0.jsonl", tmp_path / "w1.jsonl")
            if path.exists()
        ]
        resumed = run_sweep(spec, workers=1, resume=journals)
        assert resumed.ok
        assert resumed.fingerprint() == serial.fingerprint()
        assert 0 < resumed.harness["resumed"] <= 10.0
        # The merged resume made the primary journal self-contained:
        # resuming again from it alone is a no-op with the same hash.
        again = run_sweep(spec, workers=1, resume=coord_journal)
        assert again.harness["dispatched"] == 0.0
        assert again.fingerprint() == serial.fingerprint()


def _welcome(spec):
    return {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "target": spec.target,
        "sweep": spec.name,
        "seed": spec.seed,
        "axes": [[name, values] for name, values in spec.grid.axes.items()],
        "chaos": None,
        "heartbeat_interval": 0.5,
        "collect_telemetry": False,
    }


class TestWorkStealing:
    def _worker_host(self, spec):
        coordinator_side, worker_side = socket.socketpair()
        host = _WorkerHost(
            worker_side, _welcome(spec), slots=1, name="w",
            journal_path=None, trace_dir=None,
        )
        return coordinator_side, host

    def test_revoke_donates_from_the_queue_tail(self):
        spec = ft.cheap_spec(n=6)
        coordinator_side, host = self._worker_host(spec)
        host.queue = [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert host._handle_frame({"type": "revoke", "count": 2}) is True
        assert host.queue == [(0, 1), (1, 1)]
        frame = recv_frame(coordinator_side)
        assert frame == {"type": "revoked", "indices": [3, 2]}
        coordinator_side.close()

    def test_revoke_of_an_empty_queue_donates_nothing(self):
        spec = ft.cheap_spec(n=6)
        coordinator_side, host = self._worker_host(spec)
        host._handle_frame({"type": "revoke", "count": 3})
        assert recv_frame(coordinator_side) == {
            "type": "revoked", "indices": [],
        }
        coordinator_side.close()

    def test_cancel_filters_the_queue(self):
        spec = ft.cheap_spec(n=6)
        coordinator_side, host = self._worker_host(spec)
        host.queue = [(0, 1), (1, 1), (2, 1)]
        host._handle_frame({"type": "cancel", "index": 1})
        assert host.queue == [(0, 1), (2, 1)]
        coordinator_side.close()

    def _coordinator(self, spec):
        return TcpCoordinator(
            spec, SupervisorConfig(retries=1),
            fleet=FleetConfig(),
        )

    def test_coordinator_steals_from_the_most_loaded_host(self):
        from repro.sweep.backends import _Task

        spec = ft.cheap_spec(n=8)
        coordinator = self._coordinator(spec)
        idle_sock, _idle_peer = socket.socketpair()
        loaded_sock, loaded_peer = socket.socketpair()
        idle = _Host(sock=idle_sock, name="idle", slots=1)
        loaded = _Host(sock=loaded_sock, name="loaded", slots=1)
        for index in range(4):
            loaded.tasks[index] = _Task(index=index, params={}, attempt=1)
        loaded.deadlines[0] = time.monotonic() + 60.0  # 0 started; 1-3 not
        coordinator._hosts = [idle, loaded]
        coordinator._steal(time.monotonic())
        assert loaded.stealing is True
        assert recv_frame(loaded_peer) == {"type": "revoke", "count": 1}
        # The donor's revoked reply returns the points to pending.
        coordinator._handle_frame(
            loaded, {"type": "revoked", "indices": [3]}, time.monotonic()
        )
        assert loaded.stealing is False
        assert [task.index for task in coordinator._pending] == [3]
        assert coordinator.counters["stolen"] == 1.0
        for sock in (idle_sock, _idle_peer, loaded_sock, loaded_peer):
            sock.close()

    def test_no_steal_while_points_are_still_pending(self):
        from repro.sweep.backends import _Task

        spec = ft.cheap_spec(n=8)
        coordinator = self._coordinator(spec)
        coordinator._pending = [_Task(index=7, params={}, attempt=1)]
        loaded_sock, loaded_peer = socket.socketpair()
        loaded = _Host(sock=loaded_sock, name="loaded", slots=1)
        loaded.tasks[1] = _Task(index=1, params={}, attempt=1)
        coordinator._hosts = [
            _Host(sock=None, name="idle", slots=1), loaded,
        ]
        coordinator._steal(time.monotonic())
        assert loaded.stealing is False
        loaded_peer.setblocking(False)
        with pytest.raises(BlockingIOError):
            loaded_peer.recv(1)  # nothing was sent
        for sock in (loaded_sock, loaded_peer):
            sock.close()


def _auth_worker_main(port, name, token):
    import sys

    try:
        code = run_worker(
            f"127.0.0.1:{port}", name=name, auth_token=token,
            connect_timeout=10.0,
        )
    except FleetError as error:
        print(error, file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


class TestFleetAuth:
    def _auth_fleet(self, port_to_tokens, processes):
        def on_listen(host, port):
            for rank, token in enumerate(port_to_tokens):
                process = _context.Process(
                    target=_auth_worker_main,
                    args=(port, f"auth-w{rank}", token),
                )
                process.start()
                processes.append(process)
        return on_listen

    def test_matching_tokens_sweep_normally(self):
        spec = ft.cheap_spec(n=6, seed=71)
        serial = run_sweep(spec, workers=1)
        processes = []
        try:
            result = run_sweep(
                spec, backend="tcp", config=SupervisorConfig(timeout=30.0),
                fleet=FleetConfig(
                    min_hosts=2, wait_for_hosts=30.0,
                    auth_token="s3cret",
                    on_listen=self._auth_fleet(
                        ["s3cret", "s3cret"], processes
                    ),
                ),
            )
        finally:
            for process in processes:
                process.join(timeout=15.0)
                if process.is_alive():
                    process.kill()
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert result.harness["hosts_seen"] == 2.0

    def test_bad_token_worker_fails_cleanly_and_sweep_survives(self):
        """A mismatched (or missing) token is rejected with an explicit
        frame: the worker exits with a clean FleetError — never a hang —
        while the correctly-authed host completes the sweep."""
        spec = ft.cheap_spec(n=4, seed=73)
        serial = run_sweep(spec, workers=1)
        processes = []
        try:
            result = run_sweep(
                spec, backend="tcp", config=SupervisorConfig(timeout=30.0),
                fleet=FleetConfig(
                    min_hosts=1, wait_for_hosts=30.0,
                    auth_token="s3cret",
                    on_listen=self._auth_fleet(
                        ["s3cret", "wrong", None], processes
                    ),
                ),
            )
            rejected_codes = []
            for process in processes[1:]:
                process.join(timeout=15.0)
                assert not process.is_alive(), "rejected worker hung"
                rejected_codes.append(process.exitcode)
        finally:
            for process in processes:
                process.join(timeout=15.0)
                if process.is_alive():
                    process.kill()
        assert result.ok
        assert result.fingerprint() == serial.fingerprint()
        assert rejected_codes == [2, 2]  # clean FleetError, not a traceback

    def test_rejected_frame_raises_fleet_error_with_the_reason(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def rejecting_coordinator():
            sock, _ = listener.accept()
            hello = recv_frame(sock)
            assert hello is not None and hello.get("token") == "nope"
            send_frame(sock, {
                "type": "rejected", "reason": "auth token mismatch",
            })
            sock.close()

        thread = threading.Thread(target=rejecting_coordinator, daemon=True)
        thread.start()
        try:
            with pytest.raises(FleetError, match="auth token mismatch"):
                run_worker(
                    f"127.0.0.1:{port}", auth_token="nope",
                    connect_timeout=5.0,
                )
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_token_absent_from_hello_when_not_configured(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        seen = {}

        def capturing_coordinator():
            sock, _ = listener.accept()
            seen["hello"] = recv_frame(sock)
            sock.close()

        thread = threading.Thread(target=capturing_coordinator, daemon=True)
        thread.start()
        try:
            with pytest.raises(FleetError):
                run_worker(f"127.0.0.1:{port}", connect_timeout=5.0)
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert "token" not in seen["hello"]


class TestWorkerHandshake:
    def test_unreachable_coordinator_raises_fleet_error(self):
        with pytest.raises(FleetError, match="could not reach"):
            run_worker("127.0.0.1:9", connect_timeout=0.3)

    def test_protocol_mismatch_raises_fleet_error(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def bad_coordinator():
            sock, _ = listener.accept()
            recv_frame(sock)
            send_frame(sock, {"type": "welcome", "protocol": 99})
            sock.close()

        thread = threading.Thread(target=bad_coordinator, daemon=True)
        thread.start()
        try:
            with pytest.raises(FleetError, match="protocol mismatch"):
                run_worker(f"127.0.0.1:{port}", connect_timeout=5.0)
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_bad_slots_are_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            run_worker("127.0.0.1:9", slots=0)
