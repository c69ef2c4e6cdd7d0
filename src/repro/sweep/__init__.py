"""Parallel scenario sweeps: declarative grids fanned over worker processes.

The sweep engine turns "run the congestion study at every (topology,
policy, load)" into three declarative pieces:

* :class:`~repro.sweep.grid.ParameterGrid` — the cross product of named
  axes, enumerated in a stable order (:mod:`repro.sweep.grid`),
* a registered **target** — the function one grid point runs, looked up
  by name so specs stay picklable (:mod:`repro.sweep.targets`),
* :func:`~repro.sweep.engine.run_sweep` — the fan-out over one executor
  (:mod:`repro.sweep.backends`) with per-point telemetry capture
  (:mod:`repro.sweep.engine`).

Determinism is the headline contract: every point draws randomness from
``spawn(point.index)`` off the sweep seed, so the aggregated result is
bit-identical at any worker count (``SweepResult.fingerprint()`` proves
it).  Results persist as ``repro.sweep/v1`` JSON documents
(:mod:`repro.sweep.store`) and aggregate into tables via
:mod:`repro.analysis.aggregate`.

Fault tolerance rides on the same contract.  One
:class:`~repro.sweep.supervisor.SupervisorConfig` —
``run_sweep(spec, config=SupervisorConfig(timeout=..., retries=...,
chaos=..., strict=...))`` — is the whole policy every executor reads.
The supervised executor (:mod:`repro.sweep.supervisor`), which runs
every sweep but a plain one-worker one, detects crashed and hung
workers and requeues their points under the bounded retry budget.  Any
run can journal every completed point to a crash-consistent JSONL file
(:mod:`repro.sweep.journal`) and resume an interrupted sweep —
``run_sweep(spec, resume=path)`` — with a fingerprint bit-identical to
an uninterrupted run.

Distribution is the other executor backend
(:mod:`repro.sweep.backends`): ``run_sweep(spec, backend="tcp",
fleet=FleetConfig(...))`` shards the grid over TCP worker hosts
(``repro sweep-worker``) with heartbeats, dead-host requeue and
work-stealing (:mod:`repro.sweep.coordinator`,
:mod:`repro.sweep.remote_worker`); killing any subset of hosts and
resuming from the merged journals
(:func:`~repro.sweep.journal.merge_journals`) still reproduces the
single-process fingerprint.

Quickstart
----------
>>> from repro.sweep import SweepSpec, run_sweep
>>> spec = SweepSpec(
...     name="demo", target="fabric-congestion", seed=7,
...     grid={"topology": ["dragonfly"], "load": [0.5, 0.9], "flows": [16]},
... )
>>> result = run_sweep(spec, workers=2)   # doctest: +SKIP
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".backends": (
        "BACKEND_NAMES", "BaseExecutor", "FleetConfig", "FleetError",
        "PointFailure", "SweepInterrupted", "SweepPointError",
        "backoff_delay", "create_executor",
    ),
    ".engine": (
        "PointResult", "SweepResult", "SweepSpec", "run_sweep",
        "spec_from_request",
    ),
    ".grid": ("ParameterGrid", "ScenarioPoint"),
    ".journal": (
        "RunJournal", "load_journal", "merge_journals", "point_payload_digest",
    ),
    ".remote_worker": ("run_worker",),
    ".store": ("SCHEMA", "load_sweep", "save_sweep", "sweep_document"),
    ".supervisor": ("ChaosSpec", "SupervisorConfig", "parse_chaos"),
    ".targets": (
        "FABRIC_CONGESTION_VARIANTS", "NAMED_SWEEPS", "TARGETS", "named_sweep",
        "register_target", "resolve_target",
    ),
})

__all__ = [
    "BACKEND_NAMES",
    "BaseExecutor",
    "ChaosSpec",
    "FABRIC_CONGESTION_VARIANTS",
    "FleetConfig",
    "FleetError",
    "NAMED_SWEEPS",
    "ParameterGrid",
    "PointFailure",
    "PointResult",
    "RunJournal",
    "SCHEMA",
    "ScenarioPoint",
    "SupervisorConfig",
    "SweepInterrupted",
    "SweepPointError",
    "SweepResult",
    "SweepSpec",
    "TARGETS",
    "backoff_delay",
    "create_executor",
    "load_journal",
    "load_sweep",
    "merge_journals",
    "named_sweep",
    "parse_chaos",
    "point_payload_digest",
    "register_target",
    "resolve_target",
    "run_sweep",
    "run_worker",
    "save_sweep",
    "spec_from_request",
    "sweep_document",
]
