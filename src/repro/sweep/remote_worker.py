"""A sweep worker host: dial the coordinator, run points, stay honest.

``repro sweep-worker --connect HOST:PORT`` runs :func:`run_worker`: it
dials the :class:`~repro.sweep.coordinator.TcpCoordinator`, learns the
sweep from the welcome frame (target, seed, grid axes — the grid is
rebuilt locally so the host computes its own params from bare point
indices), and drives ``slots`` supervised child processes exactly like
the local executor does.  The host's main loop never runs a point
itself, so it stays responsive for heartbeats, cancels and work-stealing
revokes even while every child is stuck in a pathological point.

Crash-consistency mirrors the coordinator: with ``--journal`` the host
appends every completed point to its own ``repro.sweep.journal/v1`` file
*before* the result frame goes on the wire.  If the coordinator (or the
network) dies, the work the host finished is not lost —
``repro sweep --resume coordinator.jsonl --resume host.jsonl`` merges
the journals and completes the sweep without recomputing those points.

Chaos faults drawn host-side (all deterministic per
``(seed, sweep, index, attempt)``, identical at any fleet shape):

* ``host_crash`` — the whole host ``os._exit``\\ s before dispatching the
  point (the coordinator sees EOF and requeues);
* ``drop`` — the result is journalled locally but its frame never sent
  (the coordinator's per-point timeout recovers it);
* ``delay`` — the result frame is sent late by ``delay_seconds``.

Plain ``crash``/``hang`` draws still happen inside the child processes,
exactly as under the local backend.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple

from repro.sweep.backends import FleetError
from repro.sweep.frames import (
    PROTOCOL_VERSION,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.sweep.supervisor import (
    CHAOS_HOST_EXIT_CODE,
    ChaosSpec,
    _supervised_worker,
    process_context,
)

__all__ = ["run_worker"]


@dataclass
class _Child:
    """One supervised child process on this host."""

    process: object
    conn: object
    ready: bool = False
    #: (index, attempt) of the running point, or None when idle.
    busy: Optional[Tuple[int, int]] = None


class _WorkerHost:
    def __init__(
        self,
        sock: socket.socket,
        welcome: Dict[str, object],
        slots: int,
        name: str,
        journal_path: Optional[str],
        trace_dir: Optional[str],
    ) -> None:
        from repro.sweep.engine import SweepSpec
        from repro.sweep.targets import preload_target

        self.sock = sock
        self.name = name
        self.slots = slots
        self.trace_dir = trace_dir
        self.spec = SweepSpec(
            name=str(welcome["sweep"]),
            target=str(welcome["target"]),
            # Ordered [name, values] pairs: axis order defines the grid's
            # point enumeration, so it must survive the wire verbatim.
            grid={str(name): values for name, values in welcome["axes"]},
            seed=int(welcome["seed"]),
        )
        raw_chaos = welcome.get("chaos")
        self.chaos = (
            ChaosSpec(**raw_chaos) if isinstance(raw_chaos, dict) else None
        )
        self.heartbeat_interval = float(
            welcome.get("heartbeat_interval", 0.5)
        )
        self.collect_telemetry = bool(welcome.get("collect_telemetry", False))
        try:
            # Children fork from this host: load the target's modules once
            # here rather than in every child's first point.
            preload_target(self.spec.target)
        except (KeyError, ImportError):
            pass  # every point then reports the error against itself
        self._context = process_context()
        self._common = (
            self.spec.target, self.spec.name, self.spec.seed, trace_dir,
            self.chaos, self.collect_telemetry,
        )
        self.journal = None
        if journal_path is not None:
            from repro.sweep.journal import RunJournal

            self.journal = RunJournal(journal_path, self.spec, mode="fresh")
        self.children: List[_Child] = []
        #: FIFO of (index, attempt) assigned but not yet started.
        self.queue: List[Tuple[int, int]] = []
        self._next_heartbeat = time.monotonic() + self.heartbeat_interval

    # -- children ---------------------------------------------------------

    def _spawn_child(self) -> _Child:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_supervised_worker,
            args=(child_conn, self._common),
            daemon=True,
        )
        process.start()
        child_conn.close()
        child = _Child(process=process, conn=parent_conn)
        self.children.append(child)
        return child

    def _discard_child(self, child: _Child) -> None:
        try:
            child.conn.close()
        except OSError:
            pass
        if child.process.is_alive():
            child.process.kill()
        child.process.join(timeout=5.0)
        if child in self.children:
            self.children.remove(child)

    # -- scheduling -------------------------------------------------------

    def _dispatch(self) -> None:
        for child in self.children:
            if not self.queue:
                return
            if not child.ready or child.busy is not None:
                continue
            index, attempt = self.queue.pop(0)
            # The started frame goes first: a host_crash below must count
            # as a *started* point on the coordinator so the requeue
            # consumes a retry and the next attempt rolls fresh chaos
            # dice — otherwise the same deterministic draw would crash
            # every host the point is ever assigned to.
            send_frame(self.sock, {
                "type": "started", "index": index, "attempt": attempt,
            })
            if self.chaos is not None:
                action = self.chaos.draw_host(
                    self.spec.seed, self.spec.name, index, attempt
                )
                if action == "crash":
                    os._exit(CHAOS_HOST_EXIT_CODE)
            params = self.spec.grid.point(index).params
            try:
                child.conn.send((index, params, attempt))
            except (BrokenPipeError, OSError):
                self.queue.insert(0, (index, attempt))
                self._replace(child)
                continue
            child.busy = (index, attempt)

    def _replace(self, child: _Child) -> None:
        self._discard_child(child)
        if len(self.children) < self.slots:
            self._spawn_child()

    def _send_result(self, index: int, attempt: int, result) -> None:
        from repro.sweep.journal import point_record

        record = point_record(result, attempt)
        if self.journal is not None:
            # Journal before the net-chaos draw: the host durably did the
            # work even if the frame is about to be "lost in transit".
            self.journal.record_point(result, attempt)
        if self.chaos is not None:
            action = self.chaos.draw_net(
                self.spec.seed, self.spec.name, index, attempt
            )
            if action == "drop":
                return
            if action == "delay":
                time.sleep(self.chaos.delay_seconds)
        send_frame(self.sock, {
            "type": "result", "index": index, "attempt": attempt,
            "point": record,
        })

    # -- event handling ---------------------------------------------------

    def _handle_child(self, child: _Child) -> None:
        try:
            message = child.conn.recv()
        except (EOFError, OSError):
            child.process.join(timeout=5.0)
            code = child.process.exitcode
            busy = child.busy
            self._replace(child)
            if busy is not None:
                index, attempt = busy
                send_frame(self.sock, {
                    "type": "crashed", "index": index, "attempt": attempt,
                    "error": "WorkerCrash: worker process died "
                             f"(exit code {code})",
                })
            return
        kind, index, attempt, payload = message
        if kind == "ready":
            child.ready = True
            return
        if child.busy != (index, attempt):
            return  # a cancelled point's leftover message
        child.busy = None
        if kind == "ok":
            self._send_result(index, attempt, payload)
        else:
            send_frame(self.sock, {
                "type": "error", "index": index, "attempt": attempt,
                "error": str(payload),
            })

    def _handle_frame(self, frame: Dict[str, object]) -> bool:
        """Apply one coordinator frame; False means shutdown."""
        kind = frame.get("type")
        if kind == "assign":
            self.queue.append((int(frame["index"]), int(frame["attempt"])))
            return True
        if kind == "cancel":
            index = int(frame["index"])
            self.queue = [(i, a) for i, a in self.queue if i != index]
            for child in list(self.children):
                if child.busy is not None and child.busy[0] == index:
                    # The point is past recall: kill its child.
                    self._replace(child)
            return True
        if kind == "revoke":
            count = int(frame.get("count", 0))
            donated: List[int] = []
            # Donate from the queue's tail: the head is next to start.
            while self.queue and len(donated) < count:
                index, _attempt = self.queue.pop()
                donated.append(index)
            send_frame(self.sock, {"type": "revoked", "indices": donated})
            return True
        if kind == "shutdown":
            return False
        return True  # unknown frame: forward compatibility

    # -- the loop ---------------------------------------------------------

    def serve(self) -> int:
        for _ in range(self.slots):
            self._spawn_child()
        exit_code = 0
        try:
            while True:
                now = time.monotonic()
                if now >= self._next_heartbeat:
                    send_frame(self.sock, {"type": "heartbeat"})
                    self._next_heartbeat = now + self.heartbeat_interval
                self._dispatch()
                by_conn = {
                    child.conn: child
                    for child in self.children
                    if child.busy is not None or not child.ready
                }
                watched: List[object] = [self.sock]
                watched.extend(by_conn)
                timeout = max(0.0, self._next_heartbeat - now)
                ready = connection.wait(watched, timeout=timeout)
                for source in ready:
                    if source is self.sock:
                        try:
                            frame = recv_frame(self.sock)
                        except FrameError:
                            return 1
                        if frame is None:
                            return 1  # coordinator vanished
                        if not self._handle_frame(frame):
                            return 0
                        continue
                    child = by_conn.get(source)
                    if child is not None and child in self.children:
                        self._handle_child(child)
        except (BrokenPipeError, ConnectionError, OSError):
            exit_code = 1
        finally:
            self._teardown()
        return exit_code

    def _teardown(self) -> None:
        for child in list(self.children):
            try:
                child.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for child in list(self.children):
            child.process.join(timeout=1.0)
            self._discard_child(child)
        if self.journal is not None:
            self.journal.close()
        try:
            self.sock.close()
        except OSError:
            pass


def _connect(address: str, timeout: float) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` (it may boot late)."""
    host, port = parse_address(address)
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.connect((host, port))
        except OSError as error:
            sock.close()
            last_error = error
            time.sleep(0.05)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    raise FleetError(
        f"could not reach coordinator at {host}:{port} within {timeout:g}s"
        + (f": {last_error}" if last_error is not None else "")
    )


def run_worker(
    connect: str,
    *,
    slots: int = 1,
    name: Optional[str] = None,
    journal: Optional[str] = None,
    trace_dir: Optional[str] = None,
    connect_timeout: float = 30.0,
    auth_token: Optional[str] = None,
) -> int:
    """Serve one worker host until the coordinator shuts it down.

    ``auth_token`` is included in the hello frame when set; a fleet that
    demands one rejects a missing or mismatched token with an explicit
    ``rejected`` frame, which surfaces here as a clean
    :class:`~repro.sweep.backends.FleetError` (never a hang).

    Returns a process exit code: ``0`` after an orderly shutdown frame,
    ``1`` when the coordinator connection was lost mid-sweep.  Raises
    :class:`~repro.sweep.backends.FleetError` when the coordinator can't
    be reached at all, and ``ValueError`` on a handshake the worker
    cannot honour (protocol mismatch).
    """
    if slots < 1:
        raise ValueError(f"worker needs slots >= 1: {slots}")
    host_name = name or f"{socket.gethostname()}:{os.getpid()}"
    sock = _connect(connect, connect_timeout)
    try:
        hello: Dict[str, object] = {
            "type": "hello", "protocol": PROTOCOL_VERSION,
            "name": host_name, "slots": slots,
        }
        if auth_token is not None:
            hello["token"] = auth_token
        send_frame(sock, hello)
        welcome = recv_frame(sock)
    except (FrameError, OSError) as error:
        sock.close()
        raise FleetError(f"coordinator handshake failed: {error}") from None
    if welcome is not None and welcome.get("type") == "rejected":
        sock.close()
        raise FleetError(
            "coordinator rejected this worker: "
            f"{welcome.get('reason') or 'no reason given'}"
        )
    if welcome is None or welcome.get("type") != "welcome":
        sock.close()
        raise FleetError(
            "coordinator handshake failed: expected a welcome frame, got "
            f"{None if welcome is None else welcome.get('type')!r}"
        )
    if welcome.get("protocol") != PROTOCOL_VERSION:
        sock.close()
        raise FleetError(
            f"protocol mismatch: coordinator speaks "
            f"{welcome.get('protocol')!r}, this worker {PROTOCOL_VERSION}"
        )
    worker = _WorkerHost(
        sock, welcome, slots=slots, name=host_name,
        journal_path=journal, trace_dir=trace_dir,
    )
    return worker.serve()
