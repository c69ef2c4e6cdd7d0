"""The ``tcp`` backend's coordinator: shard a sweep across worker hosts.

One coordinator process owns the grid and the (single, authoritative)
run journal; any number of worker hosts (:mod:`repro.sweep.remote_worker`,
CLI ``repro sweep-worker``) connect over TCP and are fed points in
length-prefixed JSON frames (:mod:`repro.sweep.frames`).  The scheduling
policy is the supervised pool's, lifted one level: hosts replace
workers, frames replace pipes, and every loss mode maps onto the same
bounded retry-or-ledger machinery in
:class:`~repro.sweep.backends.BaseExecutor`:

* a host that **dies** (connection EOF, torn frame, or silence past the
  heartbeat deadline) has its *started* points requeued with one retry
  consumed and its unstarted points returned untouched;
* a point that runs past the per-point ``timeout`` is **cancelled** on
  its host (the host kills the child running it) and requeued;
* an idle host **steals** work: the coordinator revokes unstarted points
  from the most-loaded host and reassigns them, so one straggler host
  cannot serialise the tail of a sweep.

Determinism is untouched by any of this: a point's outcome is a pure
function of ``(seed, sweep name, index)``, so the fingerprint is
bit-identical to a local run no matter how many hosts, deaths, steals or
retries the fleet saw.

Wire protocol (all frames are JSON objects with a ``type`` field):

=========== ========== ==================================================
frame       direction  payload
=========== ========== ==================================================
hello       w -> c     ``protocol``, ``name``, ``slots``, optional
                       ``token`` (shared secret when the fleet
                       demands one)
welcome     c -> w     ``protocol``, ``target``, ``sweep``, ``seed``,
                       ``axes``, ``chaos``, ``heartbeat_interval``,
                       ``collect_telemetry``
rejected    c -> w     ``reason`` — handshake refused (e.g. auth token
                       mismatch); the worker raises a clean error
assign      c -> w     ``index``, ``attempt``
started     w -> c     ``index``, ``attempt`` — point began executing
result      w -> c     ``index``, ``attempt``, ``point`` (journal record)
error       w -> c     ``index``, ``attempt``, ``error``
crashed     w -> c     ``index``, ``attempt``, ``error`` — child died
cancel      c -> w     ``index`` — kill the child running this point
revoke      c -> w     ``count`` — donate up to count unstarted points
revoked     w -> c     ``indices`` — the donated points
heartbeat   w -> c     (empty) — liveness only
shutdown    c -> w     (empty) — drain and exit
=========== ========== ==================================================

Workers only ever receive ``index``/``attempt`` — they recompute params
from their own copy of the grid (rebuilt from the welcome frame's
``axes``), so a param value can never be corrupted in transit and the
purity contract is structural, not just conventional.
"""

from __future__ import annotations

import hmac
import socket
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.sweep.backends import (
    FLEET_COUNTERS,
    BaseExecutor,
    FleetConfig,
    FleetError,
    PointFailure,
    SweepInterrupted,
    _Task,
)
from repro.sweep.frames import (
    PROTOCOL_VERSION,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["TcpCoordinator"]


@dataclass
class _Host:
    """One connected worker host, as the coordinator sees it."""

    sock: socket.socket
    name: str
    slots: int
    #: Assigned tasks by index; insertion order is assignment order.
    tasks: Dict[int, _Task] = field(default_factory=dict)
    #: Deadline per *started* point (absent = assigned but not started).
    deadlines: Dict[int, float] = field(default_factory=dict)
    last_seen: float = 0.0
    #: True while a revoke frame is outstanding (one steal at a time).
    stealing: bool = False

    @property
    def capacity(self) -> int:
        return self.slots  # multiplied by host_depth at dispatch

    @property
    def unstarted(self) -> List[int]:
        return [i for i in self.tasks if i not in self.deadlines]


class TcpCoordinator(BaseExecutor):
    """Drives one sweep's points through a fleet of TCP worker hosts."""

    def __init__(
        self,
        spec,
        config,
        fleet: Optional[FleetConfig] = None,
        trace_dir: Optional[str] = None,
        metrics=None,
        collect_telemetry: bool = False,
    ) -> None:
        super().__init__(spec, config, metrics=metrics)
        self.fleet = fleet or FleetConfig()
        self.trace_dir = trace_dir
        self.collect_telemetry = collect_telemetry
        for name in FLEET_COUNTERS:
            self.counters.setdefault(name, 0.0)
        chaos = config.chaos
        if chaos is not None and chaos.drop > 0 and config.timeout is None:
            raise ConfigurationError(
                "chaos drop injection needs a per-point timeout, or dropped "
                "result frames would stall the sweep forever"
            )
        self._listener: Optional[socket.socket] = None
        self._hosts: List[_Host] = []
        #: True once min_hosts was reached and dispatch opened.
        self._opened = False
        self._starved_since: Optional[float] = None

    # -- connection management --------------------------------------------

    def _bind(self) -> None:
        host, port = parse_address(self.fleet.listen)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        self._listener = listener
        bound_host, bound_port = listener.getsockname()[:2]
        if self.fleet.on_listen is not None:
            self.fleet.on_listen(bound_host, bound_port)

    def _welcome_payload(self) -> Dict[str, object]:
        chaos = self.config.chaos
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "target": self.spec.target,
            "sweep": self.spec.name,
            "seed": self.spec.seed,
            # A list of [name, values] pairs, NOT a dict: frames are
            # serialised with sorted keys, and axis *order* is load-
            # bearing (it defines the grid's point enumeration).
            "axes": [
                [name, values]
                for name, values in self.spec.grid.axes.items()
            ],
            "chaos": chaos.to_wire() if chaos is not None else None,
            "heartbeat_interval": self.fleet.heartbeat_interval,
            "collect_telemetry": self.collect_telemetry,
        }

    def _accept(self, now: float) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Handshake under a timeout so a stalled client cannot block the
        # event loop; established hosts are policed by heartbeats instead.
        sock.settimeout(self.fleet.effective_heartbeat_timeout)
        try:
            hello = recv_frame(sock)
        except (FrameError, OSError):
            sock.close()
            return
        if (
            hello is None
            or hello.get("type") != "hello"
            or hello.get("protocol") != PROTOCOL_VERSION
        ):
            sock.close()
            return
        if self.fleet.auth_token is not None:
            offered = hello.get("token")
            if not isinstance(offered, str) or not hmac.compare_digest(
                offered, self.fleet.auth_token
            ):
                # An explicit rejection (not a bare close): the worker
                # turns it into a clean FleetError naming the cause
                # instead of reporting an opaque EOF.
                try:
                    send_frame(
                        sock,
                        {"type": "rejected", "reason": "auth token mismatch"},
                    )
                except OSError:
                    pass
                sock.close()
                self.bump("rejected")
                return
        name = str(hello.get("name") or f"host-{len(self._hosts)}")
        slots = max(1, int(hello.get("slots", 1)))
        try:
            send_frame(sock, self._welcome_payload())
        except OSError:
            sock.close()
            return
        sock.settimeout(None)
        self._hosts.append(
            _Host(sock=sock, name=name, slots=slots, last_seen=now)
        )
        self.bump("hosts_seen", host=name)

    def _drop_host(
        self,
        host: _Host,
        reason: str,
        now: float,
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        """A host died: requeue its work, charging only started points."""
        if host not in self._hosts:
            return
        self._hosts.remove(host)
        try:
            host.sock.close()
        except OSError:
            pass
        self.bump("hosts_lost", host=host.name)
        for index, task in list(host.tasks.items()):
            if index in host.deadlines:
                # Started points died mid-execution: one attempt consumed.
                self.bump("requeued")
                self._retry_or_fail(
                    task, f"HostLost: {reason}", now, on_failure, strict
                )
            else:
                # Queued points never started; back untouched.
                self._pending.append(task)
        host.tasks.clear()
        host.deadlines.clear()

    # -- scheduling -------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        """Feed ready tasks to hosts, breadth-first across slot layers."""
        if not self._opened:
            return
        for depth in range(1, self.fleet.host_depth + 1):
            for host in list(self._hosts):
                while len(host.tasks) < depth * host.slots:
                    task = self._pop_ready(now)
                    if task is None:
                        return
                    try:
                        send_frame(host.sock, {
                            "type": "assign",
                            "index": task.index,
                            "attempt": task.attempt,
                        })
                    except OSError:
                        self._pending.append(task)
                        self._drop_host(
                            host, "connection lost during assign", now,
                            self._on_failure, self._strict,
                        )
                        break
                    host.tasks[task.index] = task
                    self.bump("dispatched", host=host.name)

    def _steal(self, now: float) -> None:
        """Revoke unstarted points from loaded hosts for idle capacity."""
        if not self.fleet.steal or len(self._hosts) < 2:
            return
        if self._pending:
            return  # dispatch handles it; stealing is for a dry queue
        idle = sum(
            max(0, host.slots - len(host.tasks)) for host in self._hosts
        )
        if idle <= 0:
            return
        donor = None
        for host in self._hosts:
            if host.stealing or len(host.unstarted) == 0:
                continue
            if donor is None or len(host.unstarted) > len(donor.unstarted):
                donor = host
        if donor is None:
            return
        count = min(idle, len(donor.unstarted))
        try:
            send_frame(donor.sock, {"type": "revoke", "count": count})
        except OSError:
            self._drop_host(
                donor, "connection lost during revoke", now,
                self._on_failure, self._strict,
            )
            return
        donor.stealing = True

    def _check_deadlines(
        self,
        now: float,
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        for host in list(self._hosts):
            for index, deadline in list(host.deadlines.items()):
                if now < deadline:
                    continue
                task = host.tasks.pop(index)
                del host.deadlines[index]
                self.bump("timeouts", host=host.name)
                self.bump("cancelled", host=host.name)
                try:
                    send_frame(host.sock, {"type": "cancel", "index": index})
                except OSError:
                    # Requeue this point first (retry consumed), then let
                    # the host teardown recycle the rest of its queue.
                    self._retry_or_fail(
                        task,
                        f"TimeoutError: point exceeded "
                        f"{self.config.timeout:g}s wall-clock budget",
                        now, on_failure, strict,
                    )
                    self._drop_host(
                        host, "connection lost during cancel", now,
                        on_failure, strict,
                    )
                    break
                self._retry_or_fail(
                    task,
                    f"TimeoutError: point exceeded "
                    f"{self.config.timeout:g}s wall-clock budget",
                    now, on_failure, strict,
                )

    def _check_heartbeats(
        self,
        now: float,
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        deadline = self.fleet.effective_heartbeat_timeout
        for host in list(self._hosts):
            if now - host.last_seen > deadline:
                self._drop_host(
                    host,
                    f"no frame from host {host.name!r} for {deadline:g}s",
                    now, on_failure, strict,
                )

    # -- frame handling ---------------------------------------------------

    def _handle_frame(
        self,
        host: _Host,
        frame: Dict[str, object],
        now: float,
        on_result: Callable[[object, int], None],
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        kind = frame.get("type")
        if kind == "heartbeat":
            return
        if kind == "started":
            index = int(frame["index"])
            task = host.tasks.get(index)
            # The attempt stamp guards against a stale frame from a
            # previous (since-requeued) attempt of the same index.
            if (
                task is not None
                and int(frame.get("attempt", task.attempt)) == task.attempt
                and self.config.timeout is not None
            ):
                host.deadlines[index] = now + self.config.timeout
            return
        if kind == "result":
            index = int(frame["index"])
            task = host.tasks.pop(index, None)
            host.deadlines.pop(index, None)
            if task is None:
                return  # stale: point was cancelled/requeued meanwhile
            from repro.sweep.journal import point_from_record

            try:
                result, _ = point_from_record(frame["point"])
            except (KeyError, TypeError, ValueError) as error:
                self.bump("errors", host=host.name)
                self._retry_or_fail(
                    task,
                    f"FrameError: host {host.name!r} sent a malformed "
                    f"result for point {index}: {error}",
                    now, on_failure, strict,
                )
                return
            self.bump("completed", host=host.name)
            self._outstanding -= 1
            on_result(result, task.attempt)
            return
        if kind in ("error", "crashed"):
            index = int(frame["index"])
            task = host.tasks.get(index)
            if task is None:
                return
            if int(frame.get("attempt", task.attempt)) != task.attempt:
                return  # a previous attempt's late failure: already charged
            host.tasks.pop(index, None)
            host.deadlines.pop(index, None)
            self.bump("crashes" if kind == "crashed" else "errors",
                      host=host.name)
            self._retry_or_fail(
                task, str(frame.get("error", "unknown remote failure")),
                now, on_failure, strict,
            )
            return
        if kind == "revoked":
            host.stealing = False
            indices = frame.get("indices") or []
            returned = 0
            for raw in indices:
                index = int(raw)
                task = host.tasks.pop(index, None)
                if task is None or index in host.deadlines:
                    continue
                self._pending.append(task)
                returned += 1
            if returned:
                self.bump("stolen", float(returned), host=host.name)
            return
        # Unknown frame types are ignored: forward compatibility.

    # -- the event loop ---------------------------------------------------

    def run(
        self,
        tasks: List[Tuple[int, Dict[str, object]]],
        on_result: Callable[[object, int], None],
        on_failure: Callable[[PointFailure], None],
        strict: bool = False,
    ) -> Dict[str, float]:
        """Run every (index, params) task across the fleet."""
        self._seed_tasks(tasks)
        self._on_failure = on_failure
        self._strict = strict
        if not self._pending:
            return dict(self.counters)
        self._bind()
        started_wait = time.monotonic()
        try:
            while self._outstanding > 0:
                now = time.monotonic()
                if not self._opened:
                    if len(self._hosts) >= self.fleet.min_hosts:
                        self._opened = True
                    elif now - started_wait > self.fleet.wait_for_hosts:
                        raise FleetError(
                            f"waited {self.fleet.wait_for_hosts:g}s for "
                            f"{self.fleet.min_hosts} worker host(s); only "
                            f"{len(self._hosts)} connected"
                        )
                if self._opened and not self._hosts:
                    if self._starved_since is None:
                        self._starved_since = now
                    elif now - self._starved_since > self.fleet.wait_for_hosts:
                        raise FleetError(
                            f"all worker hosts lost and none reconnected "
                            f"within {self.fleet.wait_for_hosts:g}s; "
                            f"{self._outstanding} point(s) unfinished"
                        )
                else:
                    self._starved_since = None
                self._check_heartbeats(now, on_failure, strict)
                self._check_deadlines(now, on_failure, strict)
                self._dispatch(now)
                self._steal(now)
                self._wait(on_result, on_failure, strict)
        except KeyboardInterrupt:
            raise SweepInterrupted(
                f"sweep {self.spec.name!r} interrupted; "
                f"{self._outstanding} point(s) unfinished"
            ) from None
        finally:
            self._shutdown()
        return dict(self.counters)

    def _wait_timeout(self, now: float) -> float:
        horizons = [now + self.fleet.heartbeat_interval]
        for host in self._hosts:
            if host.deadlines:
                horizons.append(min(host.deadlines.values()))
        wake = self._next_wake()
        # Only a *future* backoff expiry is a wake-up horizon.  A task
        # that is already ready but still pending is parked on host
        # capacity, and capacity only changes with an inbound frame —
        # which interrupts the wait by itself.  Treating a past-due
        # ready time as a horizon would turn this select into a busy
        # spin that starves the worker hosts of CPU.
        if wake is not None and wake > now:
            horizons.append(wake)
        return max(0.0, min(horizons) - now)

    def _wait(
        self,
        on_result: Callable[[object, int], None],
        on_failure: Callable[[PointFailure], None],
        strict: bool,
    ) -> None:
        now = time.monotonic()
        watched: List[object] = [self._listener]
        by_sock = {host.sock: host for host in self._hosts}
        watched.extend(by_sock)
        ready = connection.wait(watched, timeout=self._wait_timeout(now))
        now = time.monotonic()
        for sock in ready:
            if sock is self._listener:
                self._accept(now)
                continue
            host = by_sock.get(sock)
            if host is None or host not in self._hosts:
                continue
            try:
                frame = recv_frame(sock)
            except (FrameError, OSError) as error:
                # A host dying mid-frame surfaces as FrameError (torn
                # frame) or raw OSError (RST); both mean the host is gone.
                self._drop_host(host, str(error), now, on_failure, strict)
                continue
            if frame is None:
                self._drop_host(
                    host, "connection closed", now, on_failure, strict
                )
                continue
            host.last_seen = now
            self._handle_frame(
                host, frame, now, on_result, on_failure, strict
            )

    def _shutdown(self) -> None:
        # Close the listener first: a host that redials the moment its
        # shutdown frame lands must be refused (and retry), not accepted
        # into a backlog that is about to be reset.
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for host in self._hosts:
            try:
                send_frame(host.sock, {"type": "shutdown"})
            except OSError:
                pass
            try:
                host.sock.close()
            except OSError:
                pass
        self._hosts.clear()
