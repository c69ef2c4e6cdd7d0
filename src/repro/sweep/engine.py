"""The scenario-sweep engine.

:func:`run_sweep` hands the points of a :class:`SweepSpec` to one
executor (:func:`repro.sweep.backends.create_executor`) and collects one
:class:`PointResult` per point.  A one-worker sweep with no ``backend``
that needs no process boundary runs in the calling process; every other
sweep runs under the supervisor (:mod:`repro.sweep.supervisor`) or the
``tcp`` fleet coordinator.

Determinism contract
--------------------
The aggregated result is **bit-identical at any worker count**.  Two rules
make that hold:

* Each point's randomness comes from
  ``RandomSource(seed, name=f"sweep/{spec.name}").spawn(point.index)`` —
  a function of the sweep seed and the point's stable grid index only,
  never of which worker ran it or in what order.
* Results are reassembled in grid order, whatever order they completed
  in, and wall-clock fields are excluded from
  :meth:`SweepResult.fingerprint`.

Workers resolve the target by *name* inside the child process, so a spec
is a small picklable value even under the ``spawn`` start method.

Fault tolerance
---------------
One :class:`~repro.sweep.supervisor.SupervisorConfig` holds the policy
every executor follows: a failing point is retried up to ``retries``
times (default 2) and then lands in the error ledger
(``result.failures``) of the partial :class:`SweepResult` that
``run_sweep`` returns, or raises at once when the config is ``strict``.
The supervisor also detects worker crashes and hangs (``timeout``) and
requeues the lost points.  ``journal=path`` records every completed
point in an append-only crash-consistent JSONL file, and
``run_sweep(spec, resume=path)`` finishes an interrupted sweep with a
fingerprint bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import gc
import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.observability import Telemetry, Tracer, write_jsonl
from repro.observability.summary import merge_summaries, summarize_telemetry
from repro.sweep.backends import (
    FleetConfig,
    PointFailure,
    SweepInterrupted,
    create_executor,
)
from repro.sweep.grid import ParameterGrid, ScenarioPoint
from repro.sweep.supervisor import SupervisorConfig
from repro.sweep.targets import preload_target, resolve_target


@dataclass
class SweepSpec:
    """A declarative sweep: a named target over a parameter grid.

    ``grid`` accepts either a built :class:`ParameterGrid` or the plain
    axis mapping it would be built from.  ``seed`` is the root of every
    point's RNG; two runs of the same spec are bit-identical.
    """

    name: str
    target: str
    grid: Union[ParameterGrid, Mapping[str, Sequence[object]]]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep needs a non-empty name")
        if not isinstance(self.grid, ParameterGrid):
            self.grid = ParameterGrid(self.grid)

    def points(self) -> List[ScenarioPoint]:
        return self.grid.points()

    def rng_for(self, point_index: int) -> RandomSource:
        """The point's RNG: a pure function of (seed, sweep name, index)."""
        return RandomSource(self.seed, name=f"sweep/{self.name}").spawn(point_index)


@dataclass
class PointResult:
    """Outcome of one scenario point.

    ``telemetry`` is the point's full telemetry summary
    (:func:`repro.observability.summary.summarize_telemetry`) when the
    sweep ran with ``collect_telemetry=True``; ``None`` otherwise.  It
    never enters :meth:`SweepResult.fingerprint` — the summary's counter
    totals duplicate ``counters``, which already does.
    """

    index: int
    params: Dict[str, object]
    metrics: Dict[str, float]
    counters: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    telemetry: Optional[Dict[str, object]] = None

    def record(self) -> Dict[str, object]:
        """Flat ``params + metrics`` dict — one table row per point."""
        row: Dict[str, object] = dict(self.params)
        row.update(self.metrics)
        return row

    def payload(self) -> Dict[str, object]:
        """Index, repr'd params, metrics and counters: the deterministic
        fields every sweep digest hashes (never wall clock or telemetry)."""
        return {
            "index": self.index,
            "params": {k: repr(v) for k, v in self.params.items()},
            "metrics": self.metrics,
            "counters": self.counters,
        }


def finite_values(mapping: Mapping[str, object], where: str) -> Dict[str, float]:
    """``{k: float(v)}``; a value that is not a number, NaN or infinite
    raises ``ValueError`` naming ``where[k]``."""
    values = {}
    for key, value in mapping.items():
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}[{key!r}] is not a number: {value!r}"
            ) from None
        if not math.isfinite(number):
            raise ValueError(f"{where}[{key!r}] is non-finite ({number!r})")
        values[key] = number
    return values


@dataclass
class SweepResult:
    """All point results of one sweep run, in grid order.

    ``failures`` is the error ledger: points that exhausted their retry
    budget (empty for a clean run — ``result.ok``).  ``harness`` holds
    the supervisor's retry/timeout/requeue counters.  Neither enters
    :meth:`fingerprint`, which hashes scenario outcomes only.
    """

    name: str
    target: str
    seed: int
    workers: int
    points: List[PointResult]
    wall_seconds: float = 0.0
    failures: List[PointFailure] = field(default_factory=list)
    harness: Dict[str, float] = field(default_factory=dict)
    #: Merged telemetry summary (point-index fold order — bit-identical
    #: at any worker count) when the sweep collected telemetry.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when every point completed (empty error ledger)."""
        return not self.failures

    def records(self) -> List[Dict[str, object]]:
        """One flat row per point (params + metrics), in grid order."""
        return [point.record() for point in self.points]

    def fingerprint(self) -> str:
        """A stable digest of every deterministic field.

        Covers params, metrics and counters of every point — but no
        wall-clock — so equal fingerprints mean bit-identical scenario
        outcomes regardless of worker count.
        """
        import hashlib
        import json

        payload = json.dumps([p.payload() for p in self.points], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def spec_from_request(request: Mapping[str, object]) -> SweepSpec:
    """The executable :class:`SweepSpec` for a canonical serve request.

    This is the in-process submission path used by ``python -m repro
    serve``: the request is first normalised through
    :func:`repro.validate.fingerprint.canonical_request` (idempotent for
    already-canonical documents) and the spec is built **from the
    canonical form** — sorted axis names included — so the cache key and
    the executed grid can never disagree.
    """
    from repro.validate.fingerprint import canonical_request

    canonical = canonical_request(request)
    if canonical["kind"] != "sweep":
        raise ConfigurationError(
            f"expected a sweep request, got kind={canonical['kind']!r}"
        )
    return SweepSpec(
        name=str(canonical["name"]),
        target=str(canonical["target"]),
        grid=canonical["axes"],
        seed=int(canonical["seed"]),
    )


def _run_point(args) -> PointResult:
    """Worker body: run one scenario point (module-level for pickling).

    ``args`` is ``(target, sweep, seed, index, params, trace_dir,
    collect_telemetry)``.
    """
    (target_name, sweep_name, seed, index, params, trace_dir,
     collect_telemetry) = args
    target = resolve_target(target_name)
    rng = RandomSource(seed, name=f"sweep/{sweep_name}").spawn(index)
    # Only trace files and telemetry summaries read the trace.
    tracer = Tracer(enabled=trace_dir is not None or collect_telemetry)
    telemetry = Telemetry(tracer=tracer)
    started = time.perf_counter()
    metrics = target(dict(params), telemetry, rng)
    wall = time.perf_counter() - started
    if not isinstance(metrics, dict):
        raise TypeError(
            f"sweep target {target_name!r} returned {type(metrics).__name__}, "
            "expected a metrics dict"
        )
    where = f"sweep target {target_name!r} point {index}"
    metrics = finite_values(metrics, f"{where} metrics")
    counters = finite_values(
        {
            metric.name: metric.total()
            for metric in telemetry.metrics
            if metric.kind == "counter"
        },
        f"{where} counters",
    )
    if trace_dir is not None:
        directory = pathlib.Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_jsonl(telemetry.tracer, directory / f"point-{index:04d}.jsonl")
    return PointResult(
        index=index,
        params=dict(params),
        metrics=metrics,
        counters=counters,
        wall_seconds=wall,
        telemetry=summarize_telemetry(telemetry) if collect_telemetry else None,
    )


def _start_worker(target_name: str) -> None:
    """Worker start-up: load the target's modules, then freeze the heap.

    Under ``fork`` the modules are inherited and the import is a no-op;
    under ``spawn`` it runs here instead of inside the first point.  The
    freeze moves the heap the worker starts with into the collector's
    permanent generation, so a gen-2 collection walks (and, under fork,
    copies on write) only what the points allocate.  It is O(1) and
    leaves the parent's collector alone.
    """
    try:
        preload_target(target_name)
    except (KeyError, ImportError):
        pass  # every point then reports the error against itself
    gc.freeze()


def _assemble(
    spec: SweepSpec,
    workers: int,
    completed: Dict[int, PointResult],
    failures: List[PointFailure],
    wall: float,
    harness: Dict[str, float],
    collect_telemetry: bool = False,
) -> SweepResult:
    points = [completed[index] for index in sorted(completed)]
    # Merge strictly in point-index order: float addition is order
    # dependent, and index order is the only order every worker count
    # (and every resume) reproduces.
    merged = (
        merge_summaries(point.telemetry for point in points)
        if collect_telemetry
        else None
    )
    return SweepResult(
        name=spec.name,
        target=spec.target,
        seed=spec.seed,
        workers=workers,
        points=points,
        wall_seconds=wall,
        failures=sorted(failures, key=lambda failure: failure.index),
        harness=dict(harness),
        telemetry=merged,
    )


def _execute(
    spec: SweepSpec,
    executor,
    workers: int,
    progress,
    journal: Optional[str],
    resume: Optional[List[str]],
    collect_telemetry: bool,
    started: float,
) -> SweepResult:
    """Drive ``executor`` over the points ``resume`` has not completed."""
    from repro.sweep.journal import RunJournal, merge_journals

    completed: Dict[int, PointResult] = {}
    foreign: Dict[int, int] = {}
    journal_path = resume[0] if resume else journal
    if resume:
        state = merge_journals(resume)
        mismatch = state.matches(spec)
        if mismatch is not None:
            raise ConfigurationError(
                f"cannot resume sweep {spec.name!r} from {resume[0]}: "
                f"{mismatch}"
            )
        completed.update(state.completed)
        # Records merged in from secondary journals (worker hosts of an
        # interrupted fleet run) get copied into the primary below, so
        # the primary is self-contained for any later resume.
        foreign = {
            index: state.attempts.get(index, 1)
            for index in state.completed
            if state.origin.get(index) != str(pathlib.Path(resume[0]))
        }
    run_journal = (
        RunJournal(
            journal_path, spec,
            mode="resume" if resume else "fresh",
        )
        if journal_path is not None else None
    )
    if run_journal is not None:
        for index in sorted(foreign):
            run_journal.record_point(completed[index], foreign[index])
    if completed:
        executor.bump("resumed", float(len(completed)))
    failures: List[PointFailure] = []

    def on_result(result: PointResult, attempts: int) -> None:
        completed[result.index] = result
        if run_journal is not None:
            run_journal.record_point(result, attempts)
        if progress is not None:
            progress(result)

    def on_failure(failure: PointFailure) -> None:
        failures.append(failure)
        if run_journal is not None:
            run_journal.record_failure(
                failure.index, failure.error, failure.attempts
            )

    tasks = [
        (point.index, point.params)
        for point in spec.points()
        if point.index not in completed
    ]
    try:
        harness = executor.run(tasks, on_result, on_failure)
    except SweepInterrupted as interrupt:
        interrupt.partial = _assemble(
            spec, workers, completed, failures,
            time.perf_counter() - started, executor.counters,
            collect_telemetry=collect_telemetry,
        )
        raise
    finally:
        if run_journal is not None:
            run_journal.close()
    return _assemble(
        spec, workers, completed, failures,
        time.perf_counter() - started, harness,
        collect_telemetry=collect_telemetry,
    )


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    trace_dir: Optional[str] = None,
    progress=None,
    *,
    config: Optional[SupervisorConfig] = None,
    journal: Union[str, pathlib.Path, None] = None,
    resume: Union[str, pathlib.Path, Sequence[Union[str, pathlib.Path]],
                  None] = None,
    telemetry: Optional[Telemetry] = None,
    collect_telemetry: bool = False,
    backend: Optional[str] = None,
    fleet: Optional[FleetConfig] = None,
) -> SweepResult:
    """Run every point of ``spec`` and return the assembled result.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` with no ``backend``, and a ``config``
        with no ``timeout``, ``chaos`` or ``start_method``, runs the
        points in this process (no child, easiest to debug); anything
        else runs them under the supervisor.  The aggregated result is
        bit-identical either way and at any value.
    trace_dir:
        When given, each point writes its telemetry trace as
        ``point-NNNN.jsonl`` under this directory.
    progress:
        Optional callable ``progress(point_result)`` invoked as results
        arrive, in completion order.
    config:
        The fault-tolerance policy
        (:class:`~repro.sweep.supervisor.SupervisorConfig`, default
        ``SupervisorConfig()``): per-point ``timeout``, the ``retries``
        budget and its backoff ``jitter``, injected ``chaos``,
        ``strict`` fail-fast raising
        (:class:`~repro.sweep.backends.SweepPointError`) instead of an
        error ledger, and the local ``start_method``.
    journal / resume:
        ``journal=path`` starts a fresh crash-consistent run journal at
        ``path``; ``resume=path`` loads one, skips its completed points
        and appends to it.  ``resume`` also accepts a *sequence* of
        paths — an interrupted fleet run's coordinator journal plus its
        worker-host journals — which are merged
        (:func:`repro.sweep.journal.merge_journals`) with the
        first-listed path becoming the journal the resumed run appends
        to (foreign records are copied in, so it ends self-contained).
        The resumed result is bit-identical to an uninterrupted run.
    telemetry:
        When given, executor events are counted on
        ``telemetry.metrics`` as ``sweep.supervisor.*`` counters.
    collect_telemetry:
        When True each point also returns its full telemetry summary
        (``PointResult.telemetry``), the summaries cross the worker
        pipes, and the parent merges them in point-index order into
        ``SweepResult.telemetry`` — bit-identical at any worker count,
        and journalled so a resumed run reconstructs the same aggregate.
    backend / fleet:
        ``backend`` picks the executor substrate (``local`` or ``tcp``;
        see :mod:`repro.sweep.backends`); ``fleet`` carries the ``tcp``
        backend's :class:`~repro.sweep.backends.FleetConfig` (listen
        address, heartbeats, work stealing).

    The target is resolved once up front, with every module its points
    import, so an unknown name fails fast and forked workers inherit the
    modules; each worker then resolves it again by name.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    preload_target(spec.target)
    if isinstance(resume, (str, pathlib.Path)):
        resume = [str(resume)]
    elif resume is not None:
        resume = [str(path) for path in resume]
        if not resume:
            resume = None
    if resume and journal is not None and (
        pathlib.Path(resume[0]) != pathlib.Path(journal)
    ):
        raise ConfigurationError(
            "pass either journal= (fresh) or resume= (continue), not two "
            "different paths"
        )
    journal = None if journal is None else str(journal)
    started = time.perf_counter()
    executor = create_executor(
        backend, spec, config or SupervisorConfig(),
        workers=workers, fleet=fleet, trace_dir=trace_dir,
        metrics=telemetry.metrics if telemetry is not None else None,
        collect_telemetry=collect_telemetry,
    )
    return _execute(
        spec, executor, workers, progress, journal, resume,
        collect_telemetry, started,
    )
