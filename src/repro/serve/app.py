"""The serve application: lifecycle, dispatch, caching and job execution.

``python -m repro serve`` builds one :class:`ServiceApp` from a
:class:`ServeConfig` and runs it forever.  The asyncio loop owns
connections, admission and the cache; simulations run on a small thread
pool (:class:`~concurrent.futures.ThreadPoolExecutor`) so the loop stays
responsive — and sweep requests immediately fan out to *processes* via
:func:`repro.sweep.engine.run_sweep`, inheriting the supervised harness:
crash detection, retries, parent-sentinel worker cleanup and the
crash-consistent run journal that makes a killed-and-restarted service
resume instead of recompute.

The caching contract, end to end:

1. the request canonicalises
   (:func:`repro.validate.fingerprint.canonical_request`) and hashes
   (:func:`~repro.validate.fingerprint.request_fingerprint`);
2. a cached artefact answers immediately — zero simulation, proven by
   the ``serve.kernel_events`` counter standing still;
3. an identical request already in flight *coalesces* — it awaits the
   running job's future instead of starting a second simulation;
4. only a genuinely cold request passes admission control and executes,
   and its deterministic body is published atomically to the store.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.observability import Telemetry
from repro.serve import http
from repro.serve.admission import AdmissionController, QuotaPolicy
from repro.serve.cache import ResultCache
from repro.serve.handlers import ROUTES, build_body


#: Modules the request path imports when a request first needs them:
#: the profile runners, fingerprinting and the sweep engine.  ``repro
#: serve`` imports them before it binds.
REQUEST_PATH = (
    "repro.profiles",
    "repro.validate.fingerprint",
    "repro.sweep.engine",
    "repro.observability.progress",
)


@dataclass
class ServeConfig:
    """Everything tunable about one serve process."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed/returned
    store: str = ".repro-serve"
    sweep_workers: int = 2
    job_workers: int = 1
    max_queue: int = 8
    quota: Optional[QuotaPolicy] = None  # None = unlimited
    max_body: int = 1_000_000
    #: Artefact max-age in seconds; ``None`` keeps artefacts forever.
    cache_ttl: Optional[float] = None
    clock: Callable[[], float] = time.monotonic


class _NullStream:
    """A /dev/null stream for progress reporters driven only for snapshots."""

    def write(self, text: str) -> None:  # pragma: no cover - trivial
        pass

    def flush(self) -> None:  # pragma: no cover - trivial
        pass


class ServiceApp:
    """One serve worker: connection handling down to job execution."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache = ResultCache(
            self.config.store,
            ttl=self.config.cache_ttl,
            clock=self.config.clock,
        )
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            quota=self.config.quota,
            clock=self.config.clock,
        )
        self.telemetry = Telemetry()
        #: Fingerprint -> future of the currently-running identical job.
        self.inflight: Dict[str, asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.job_workers),
            thread_name_prefix="repro-serve-job",
        )
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        """Release process-level resources (idempotent)."""
        self._executor.shutdown(wait=True)

    # -- metrics -----------------------------------------------------------

    def counter(self, name: str):
        return self.telemetry.metrics.counter(name)

    def refresh_gauges(self) -> None:
        """Mirror point-in-time state into gauges before a scrape."""
        registry = self.telemetry.metrics
        registry.gauge("serve.inflight").set(float(self.admission.inflight))
        for key, value in self.cache.stats.items():
            registry.gauge(f"serve.cache.{key}").set(float(value))

    # -- connection & dispatch ---------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, max_body=self.config.max_body
                    )
                except http.ProtocolError as error:
                    await http.write_response(
                        writer,
                        http.error_response(error.status, str(error)),
                    )
                    break
                if request is None:
                    break
                response = await self.dispatch(request)
                must_close = await http.write_response(writer, response)
                if must_close or request.headers.get("connection") == "close":
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def dispatch(self, request: http.ServeRequest):
        """Route one request; never raises — errors become responses."""
        handler = ROUTES.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in ROUTES}
            if request.path in known_paths:
                return http.error_response(
                    405, f"{request.method} not allowed on {request.path}"
                )
            return http.error_response(404, f"no route for {request.path}")
        try:
            return await handler(self, request)
        except http.ProtocolError as error:
            return http.error_response(error.status, str(error))
        except Exception as error:  # the loop must outlive any one request
            self.counter("serve.errors").inc(1)
            return http.error_response(
                500, f"{type(error).__name__}: {error}"
            )

    # -- submission --------------------------------------------------------

    async def submit(self, request: http.ServeRequest, kind: str):
        """The POST /v1/{profile,sweep} path: cache -> coalesce -> admit."""
        from repro.validate.fingerprint import (
            canonical_request,
            request_fingerprint,
        )

        payload = request.json()
        if not isinstance(payload, dict):
            return http.error_response(400, "request body must be an object")
        tenant = request.headers.get(
            "x-tenant", str(payload.get("tenant", "default"))
        )
        stream = request.query.get("stream", "") in ("1", "true", "yes")
        try:
            canonical = canonical_request(payload)
        except ValueError as error:
            return self._bad_request(kind, str(error))
        if canonical["kind"] != kind:
            return self._bad_request(
                kind,
                f"/v1/{kind} got a {canonical['kind']} request — "
                f"use /v1/{canonical['kind']}",
            )
        fingerprint = request_fingerprint(canonical)
        headers = {"X-Fingerprint": fingerprint}

        # 1. Cache: answer from the store, no quota charge, no simulation.
        body = self.cache.get(fingerprint)
        if body is not None:
            self.counter("serve.requests").inc(1, kind=kind, cache="hit")
            headers["X-Cache"] = "hit"
            if stream:
                return self._stream_cached(fingerprint, body, headers)
            return http.Response(200, body, headers=headers)

        # 2. Coalesce: an identical job is already running — join it.
        existing = self.inflight.get(fingerprint)
        if (
            existing is not None
            and not existing.done()
            and existing.get_loop() is asyncio.get_running_loop()
        ):
            self.counter("serve.requests").inc(
                1, kind=kind, cache="coalesced"
            )
            try:
                body = await asyncio.shield(existing)
            except (ConfigurationError, ValueError) as error:
                return self._bad_request(kind, str(error))
            headers["X-Cache"] = "coalesced"
            if stream:
                return self._stream_cached(fingerprint, body, headers)
            return http.Response(200, body, headers=headers)

        # 3. Cold: this request wants real simulation — admission decides.
        decision = self.admission.admit(tenant)
        if not decision.admitted:
            self.counter("serve.rejected").inc(
                1, reason=decision.reason, tenant=tenant
            )
            retry_after = decision.retry_after
            if not math.isfinite(retry_after):
                retry_after = self.admission.retry_after_cap
            return http.error_response(
                429,
                f"request shed ({decision.reason}); retry later",
                headers={
                    "Retry-After": str(max(1, math.ceil(retry_after))),
                    "X-Reject-Reason": decision.reason,
                },
            )
        self.counter("serve.requests").inc(1, kind=kind, cache="miss")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.inflight[fingerprint] = future
        headers["X-Cache"] = "miss"
        if stream:
            return self._stream_cold(canonical, fingerprint, kind)
        # Shielded: the job keeps running (and publishes to the cache)
        # even if this client disconnects mid-simulation.
        try:
            body = await asyncio.shield(
                self._start_job(canonical, fingerprint, progress=None)
            )
        except (ConfigurationError, ValueError) as error:
            # The run rejected a parameter value the canonical form
            # cannot check (``nodes: 0``); its message names the field.
            return self._bad_request(kind, str(error))
        return http.Response(200, body, headers=headers)

    def _bad_request(self, kind: str, message: str):
        self.counter("serve.bad_requests").inc(1, kind=kind)
        return http.error_response(400, message)

    def _stream_cached(self, fingerprint: str, body: bytes, headers):
        async def events():
            yield {
                "event": "accepted",
                "fingerprint": fingerprint,
                "cache": headers.get("X-Cache", "hit"),
            }
            yield {
                "event": "result",
                "fingerprint": fingerprint,
                "response": json.loads(body),
            }

        response = http.NdjsonResponse(events())
        response.headers.update(headers)
        return response

    def _stream_cold(self, canonical, fingerprint: str, kind: str):
        """Start a cold job now and stream its NDJSON events.

        The job task starts *before* the response generator is consumed,
        so an abandoned stream (client gone before reading a byte) still
        runs the job to completion, publishes the artefact and releases
        the admission slot.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        progress = None
        if kind == "sweep":
            from repro.observability.progress import SweepProgressReporter
            from repro.sweep import spec_from_request

            total = len(spec_from_request(canonical).points())
            reporter = SweepProgressReporter(
                total, telemetry=self.telemetry, stream=_NullStream()
            )

            def progress(point_result) -> None:  # runs on the job thread
                reporter(point_result)
                loop.call_soon_threadsafe(
                    queue.put_nowait,
                    {"event": "progress", **reporter.snapshot()},
                )

        job = self._start_job(canonical, fingerprint, progress=progress)

        async def events():
            yield {
                "event": "accepted",
                "fingerprint": fingerprint,
                "kind": kind,
                "cache": "miss",
            }
            while not (job.done() and queue.empty()):
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=0.05
                    )
                except asyncio.TimeoutError:
                    continue
                yield event
            try:
                body = job.result()
            except Exception as error:
                yield {
                    "event": "error",
                    "fingerprint": fingerprint,
                    "error": f"{type(error).__name__}: {error}",
                }
                return
            yield {
                "event": "result",
                "fingerprint": fingerprint,
                "response": json.loads(body),
            }

        response = http.NdjsonResponse(events())
        response.headers.update(
            {"X-Fingerprint": fingerprint, "X-Cache": "miss"}
        )
        return response

    def _start_job(
        self, canonical, fingerprint: str, progress
    ) -> "asyncio.Task":
        """Launch one admitted job as a loop-owned task."""
        task = asyncio.ensure_future(
            self._settle_job(canonical, fingerprint, progress)
        )
        # A stream abandoned before reading the result would otherwise
        # leave the task's exception unretrieved at GC time.
        task.add_done_callback(
            lambda t: t.cancelled() or t.exception()
        )
        return task

    async def _settle_job(
        self, canonical, fingerprint: str, progress
    ) -> bytes:
        """Run the job on the executor; settle the shared future."""
        future = self.inflight[fingerprint]
        try:
            body = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute, canonical, fingerprint,
                progress,
            )
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
                future.exception()  # consumed: coalesced waiters re-raise
            raise
        else:
            if not future.done():
                future.set_result(body)
            return body
        finally:
            self.admission.release()
            self.inflight.pop(fingerprint, None)

    # -- execution (job thread) --------------------------------------------

    def _execute(self, canonical, fingerprint: str, progress) -> bytes:
        """Synchronous job body: simulate, build the deterministic
        envelope, publish it atomically, account kernel events."""
        kind = canonical["kind"]
        if kind == "profile":
            document, kernel_events = self._execute_profile(canonical)
        else:
            document, kernel_events = self._execute_sweep(
                canonical, fingerprint, progress
            )
        body = build_body(canonical, fingerprint, document)
        self.cache.put(fingerprint, body)
        if kind == "sweep":
            self.cache.discard_journal(fingerprint)
        self.counter("serve.simulations").inc(1, kind=kind)
        self.counter("serve.kernel_events").inc(kernel_events, kind=kind)
        return body

    def _execute_profile(self, canonical):
        from repro import profiles
        from repro.validate.fingerprint import profile_fingerprint

        telemetry = Telemetry()
        result = profiles.run(
            canonical["profile"], telemetry, **canonical["params"]
        )
        document = profile_fingerprint(result)
        kernel_events = float(
            document["counters"].get("sim.events.fired", 0.0)
        )
        return document, kernel_events

    def _execute_sweep(self, canonical, fingerprint: str, progress):
        from repro.sweep import SupervisorConfig, run_sweep, spec_from_request
        from repro.validate.fingerprint import sweep_fingerprint

        spec = spec_from_request(canonical)
        journal = self.cache.journal_path(fingerprint)
        resuming = journal.exists()
        # Kernel events are charged for *executed* points only — resumed
        # points replay from the journal without simulating, and the
        # counter must say so.
        executed_events = [0.0]

        def on_point(point_result) -> None:
            executed_events[0] += float(
                point_result.counters.get("sim.events.fired", 0.0)
            )
            if progress is not None:
                progress(point_result)

        result = run_sweep(
            spec,
            workers=self.config.sweep_workers,
            progress=on_point,
            config=SupervisorConfig(strict=True),
            journal=None if resuming else str(journal),
            resume=str(journal) if resuming else None,
            telemetry=self.telemetry,
        )
        return sweep_fingerprint(result), executed_events[0]
