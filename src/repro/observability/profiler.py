"""Wall-clock profiler: deterministic phase attribution + stack sampling.

The tracer (:mod:`repro.observability.tracer`) answers "where does
*simulated* time go"; this module answers the complementary question —
"where does *host wall-clock* time go" when a profile or sweep runs.  Two
instruments, both off by default:

* :class:`PhaseProfiler` — wall seconds charged to a small set of named
  phases (kernel event dispatch, fabric congestion re-solves,
  routing/RouteCache lookups, telemetry recording itself).  Attribution
  is deterministic because the *set of calls timed* is a pure function
  of the workload — only the measured seconds vary run to run.
  Per-event-type latency histograms ride along: every kernel callback's
  wall latency lands in a fixed-bucket histogram keyed by the callback's
  qualified name.
* :class:`StackSampler` — an optional sampling stack profiler: a daemon
  thread snapshots the profiled thread's Python stack every ``interval``
  seconds via :func:`sys._current_frames`, accumulating collapsed
  (flamegraph-ready) stack counts.  Sampling is wall-clock driven and
  therefore not deterministic; it never perturbs simulation state.

Every instrumented call site goes through one wrapper, :func:`timed`,
except the kernel probe's per-event path
(:class:`~repro.observability.probes.ProfilingKernelProbe`).

Overhead contract (DESIGN.md §6): ``profiler=None`` is the only off
switch.  A run without a profiler pays one ``is not None`` test where
each instrumented function is bound (``timed`` hands the function back
untouched) and the kernel gets the plain counting probe.  With a
profiler the tax is two ``time.perf_counter`` calls and a list update
per timed call — gated under 5% by
``tests/observability/test_profiler_tax.py``.

Exports: :func:`profile_report` (the ``repro.profile/v1`` JSON document
behind ``python -m repro profile``) and :func:`collapsed_stack_lines` /
:func:`parse_collapsed` (folded-stack round trip).  With ``detail=True``
the profiler's :attr:`PhaseProfiler.tracer` holds one span per timed
call on the wall clock, written as Chrome ``trace_event`` JSON by
:func:`repro.observability.export.write_chrome_trace`.
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.observability.metrics import exponential_buckets
from repro.observability.tracer import Tracer

#: Phase names charged by the built-in instrumentation.
PHASE_DISPATCH = "kernel.dispatch"
PHASE_CONGESTION = "fabric.congestion_solve"
PHASE_ROUTING = "fabric.routing"
PHASE_TELEMETRY = "telemetry"
PHASE_RUN = "profile.run"

#: Profile-report document schema identifier.
REPORT_SCHEMA = "repro.profile/v1"

#: Event-latency histogram bounds (seconds): 1 us .. 1 s in decades.
LATENCY_BUCKETS = exponential_buckets(1e-6, 10.0, 7)

#: Most detail spans one profiler keeps; later ones only bump
#: :attr:`PhaseProfiler.records_dropped`.
MAX_DETAIL_RECORDS = 200_000

#: Deepest stack, in frames, one :class:`StackSampler` sample keeps.
MAX_STACK_DEPTH = 128


def callback_label(callback: object) -> str:
    """A stable, human-readable label for a kernel event callback.

    Bound methods and functions label as their ``__qualname__``
    (``ClusterSimulator._finish_job``); ``functools.partial`` unwraps to
    its target; anything else labels as its type name.  Labels are pure
    functions of the code object, so two runs of the same workload
    produce the same label set.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    func = getattr(callback, "func", None)
    if func is not None and func is not callback:
        return callback_label(func)
    return type(callback).__name__


def timed(
    profiler: Optional[PhaseProfiler], phase: str, fn: Callable
) -> Callable:
    """``fn`` with the wall time of every call charged to ``phase``.

    Returns ``fn`` itself when ``profiler`` is None, so an unprofiled
    run calls the original with no wrapper in between.  A call that
    raises is still charged.  The wrapper passes positional arguments
    only: it sits on the fabric's per-epoch path, where a ``**kwargs``
    dict per call would be measurable.
    """
    if profiler is None:
        return fn
    add = profiler.add
    clock = time.perf_counter

    def call(*args):
        start = clock()
        try:
            return fn(*args)
        finally:
            add(phase, clock() - start)

    return call


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase and per event type.

    Parameters
    ----------
    detail:
        When True each timed call and each dispatched event also records
        one span, category = phase, into :attr:`tracer` on wall-clock
        seconds since the profiler's creation (at most
        :data:`MAX_DETAIL_RECORDS`; the rest are counted in
        :attr:`records_dropped`).  Off by default: aggregate attribution
        needs no per-call allocation.
    """

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.origin = time.perf_counter()
        #: Bumped by :meth:`clear` so holders of :meth:`event_slot`
        #: accumulators know to re-fetch.
        self.generation = 0
        #: name -> [seconds, calls].  The dispatch phase is *derived* from
        #: ``_events`` at read time (see :meth:`_dispatch_bucket`), so the
        #: per-event hot path touches one list, not two.
        self._phases: Dict[str, List[float]] = {}
        #: event-type label -> [seconds, calls, bucket counts..., overflow]
        #: — totals and the latency histogram share one list so one event
        #: dispatch touches a single cache line.
        self._events: Dict[str, List[float]] = {}
        #: Detail spans on wall-clock seconds relative to ``origin``.
        self.tracer = Tracer()
        self.records_dropped = 0

    # --- recording --------------------------------------------------------------

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` of wall time (and ``calls`` entries) to a phase."""
        bucket = self._phases.get(phase)
        if bucket is None:
            bucket = self._phases[phase] = [0.0, 0]
        bucket[0] += seconds
        bucket[1] += calls
        if self.detail:
            self._record(phase, seconds)

    def event_slot(self, label: str) -> List[float]:
        """The live accumulator list for one event type:
        ``[seconds, calls, bucket counts..., overflow]``.

        :class:`~repro.observability.probes.ProfilingKernelProbe` caches
        these per callback code object so the per-event hot path is three
        list updates and a bisect instead of label + dict lookups.  The
        references die on :meth:`clear` — re-fetch when
        :attr:`generation` changes.
        """
        slot = self._events.get(label)
        if slot is None:
            slot = self._events[label] = (
                [0.0, 0] + [0] * (len(LATENCY_BUCKETS) + 1)
            )
        return slot

    def _dispatch_bucket(self) -> List[float]:
        """The dispatch phase ``[seconds, calls]``: any directly-charged
        time (via :meth:`add`) plus every dispatched event."""
        direct = self._phases.get(PHASE_DISPATCH)
        seconds = direct[0] if direct is not None else 0.0
        calls = direct[1] if direct is not None else 0
        for slot in self._events.values():
            seconds += slot[0]
            calls += slot[1]
        return [seconds, calls]

    def _record(self, phase: str, seconds: float) -> None:
        """One detail span for ``phase``, ending now and ``seconds`` long."""
        if len(self.tracer.spans) >= MAX_DETAIL_RECORDS:
            self.records_dropped += 1
            return
        end = time.perf_counter() - self.origin
        self.tracer.complete(phase, phase, end - seconds, end)

    # --- queries ----------------------------------------------------------------

    def _merged_phases(self) -> Dict[str, List[float]]:
        """``_phases`` with the derived dispatch bucket folded in."""
        merged = {
            name: v for name, v in self._phases.items()
            if name != PHASE_DISPATCH
        }
        dispatch = self._dispatch_bucket()
        if dispatch[1] or PHASE_DISPATCH in self._phases:
            merged[PHASE_DISPATCH] = dispatch
        return merged

    @property
    def phases(self) -> Dict[str, Tuple[float, int]]:
        """``{phase: (seconds, calls)}`` snapshot of the accumulators."""
        return {
            name: (v[0], int(v[1])) for name, v in self._merged_phases().items()
        }

    def seconds(self, phase: str) -> float:
        """Total wall seconds charged to one phase (0.0 if never entered)."""
        if phase == PHASE_DISPATCH:
            return self._dispatch_bucket()[0]
        bucket = self._phases.get(phase)
        return bucket[0] if bucket is not None else 0.0

    def calls(self, phase: str) -> int:
        """How many times one phase was entered (0 if never)."""
        if phase == PHASE_DISPATCH:
            return int(self._dispatch_bucket()[1])
        bucket = self._phases.get(phase)
        return int(bucket[1]) if bucket is not None else 0

    def phase_table(self) -> List[Tuple[str, float, int, float]]:
        """``(phase, seconds, calls, mean)`` rows, hottest first.

        Ties (including the all-zero phases of a run too fast to measure)
        break by phase name, so the table order is deterministic.
        """
        rows = [
            (name, v[0], int(v[1]), v[0] / v[1] if v[1] else 0.0)
            for name, v in self._merged_phases().items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def event_table(self) -> List[Tuple[str, float, int, float]]:
        """``(event type, seconds, calls, mean)`` rows, hottest first."""
        rows = [
            (name, v[0], int(v[1]), v[0] / v[1] if v[1] else 0.0)
            for name, v in self._events.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def event_latency(self, label: str) -> List[int]:
        """Per-bucket latency counts for one event type (overflow last)."""
        slot = self._events.get(label)
        if slot is None:
            return [0] * (len(LATENCY_BUCKETS) + 1)
        return [int(count) for count in slot[2:]]

    def clear(self) -> None:
        """Drop every accumulated phase, event type and detail record."""
        self._phases.clear()
        self._events.clear()
        self.tracer.clear()
        self.records_dropped = 0
        self.origin = time.perf_counter()
        self.generation += 1


class StackSampler:
    """Samples one thread's Python stack on a fixed wall-clock interval.

    Start/stop around the workload (or use as a context manager); the
    sampler thread is a daemon and never touches simulation state, so the
    profiled run's outputs stay bit-identical.  ``counts`` maps
    root-first frame tuples to the number of samples that observed them.
    """

    def __init__(self, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"sampler interval must be positive: {interval}"
            )
        self.interval = interval
        self.counts: Dict[Tuple[str, ...], int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target: Optional[int] = None

    def start(self) -> "StackSampler":
        """Begin sampling the *calling* thread from a daemon thread."""
        if self._thread is not None:
            raise ConfigurationError("stack sampler already started")
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                code = frame.f_code
                stack.append(
                    f"{pathlib.Path(code.co_filename).name}:{code.co_name}"
                )
                frame = frame.f_back
                depth += 1
            key = tuple(reversed(stack))  # root-first, flamegraph order
            self.counts[key] = self.counts.get(key, 0) + 1
            self.samples += 1

    def top_frames(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` frames observed in the most samples (inclusive counts).

        A frame counts once per sample it appears in, however deep — the
        flamegraph "total" column, not the leaf-only "self" column.
        """
        inclusive: Dict[str, int] = {}
        for stack, count in self.counts.items():
            for frame in set(stack):
                inclusive[frame] = inclusive.get(frame, 0) + count
        ranked = sorted(inclusive.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:n]


# --- exports --------------------------------------------------------------------


def collapsed_stack_lines(
    source: Union[StackSampler, Dict[Tuple[str, ...], int]]
) -> List[str]:
    """Folded-stack lines (``frame;frame;frame count``) for a flamegraph.

    Accepts a :class:`StackSampler` or its ``counts`` dict.  Lines sort
    by stack so the export is deterministic for a given sample set; feed
    them to any ``flamegraph.pl``-compatible renderer.
    """
    counts = source.counts if isinstance(source, StackSampler) else source
    return [
        ";".join(stack) + f" {count}"
        for stack, count in sorted(counts.items())
    ]


def parse_collapsed(
    lines: Iterable[str],
) -> Dict[Tuple[str, ...], int]:
    """Rebuild folded-stack counts from :func:`collapsed_stack_lines` output.

    Raises ``ValueError`` naming the offending line on a malformed entry
    (no count, or a non-integer count).
    """
    counts: Dict[Tuple[str, ...], int] = {}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            raise ValueError(
                f"collapsed-stack line {number} has no sample count: {line!r}"
            )
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(
                f"collapsed-stack line {number} has a non-integer count: "
                f"{count_text!r}"
            ) from None
        key = tuple(stack_text.split(";"))
        counts[key] = counts.get(key, 0) + count
    return counts


def write_collapsed(
    source: Union[StackSampler, Dict[Tuple[str, ...], int]],
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Write the folded-stack export; returns the path written."""
    output = pathlib.Path(path)
    lines = collapsed_stack_lines(source)
    output.write_text("\n".join(lines) + ("\n" if lines else ""))
    return output


def profile_report(
    profiler: PhaseProfiler,
    sampler: Optional[StackSampler] = None,
    name: str = "",
    top: int = 20,
) -> dict:
    """The ``repro.profile/v1`` JSON document for one profiled run.

    Phases and event types are ranked hottest-first with per-phase
    seconds, call counts and means; when a :class:`StackSampler` ran, its
    inclusive top frames and total sample count ride along.
    """
    wall = sum(seconds for _, (seconds, _) in profiler.phases.items())
    document = {
        "schema": REPORT_SCHEMA,
        "name": name,
        "wall_seconds_attributed": wall,
        "phases": [
            {
                "phase": phase,
                "seconds": seconds,
                "calls": calls,
                "mean_seconds": mean,
            }
            for phase, seconds, calls, mean in profiler.phase_table()
        ],
        "event_types": [
            {
                "name": label,
                "seconds": seconds,
                "calls": calls,
                "mean_seconds": mean,
            }
            for label, seconds, calls, mean in profiler.event_table()[:top]
        ],
        "event_latency_buckets": list(LATENCY_BUCKETS),
        "event_latency": {
            label: profiler.event_latency(label)
            for label, _, _, _ in profiler.event_table()[:top]
        },
    }
    if sampler is not None:
        document["stack_samples"] = sampler.samples
        document["sample_interval_seconds"] = sampler.interval
        document["top_frames"] = [
            {"frame": frame, "samples": count}
            for frame, count in sampler.top_frames(top)
        ]
    return document
