"""Validation and conformance: invariants, golden fingerprints, differentials.

The simulators in this repository are *models*, and models drift: a refactor
that changes a tie-break, a cache that returns a stale route, a counter that
misses a code path — none of these crash, they just quietly change answers.
This package is the regression net that catches them:

* :class:`InvariantChecker` — attaches through the kernel's
  :class:`~repro.core.events.SimulationHooks` (chaining in front of any
  probe already installed) and asserts conservation laws at run end:
  monotone event time and non-negative clocks in the DES kernel, job/ledger
  conservation in the cluster, bytes offered = delivered + lost in the
  fabric, cost/energy non-negativity in every counter.
* :class:`GoldenStore` / :func:`profile_fingerprint` /
  :func:`sweep_fingerprint` — tolerance-aware ``repro.validate/v1`` result
  fingerprints for every run profile and named sweep, recorded under
  ``tests/golden/`` and compared with drift-explaining messages.
* :func:`run_differential_checks` — fast paths pitted against independent
  references: :class:`~repro.interconnect.routecache.RouteCache` vs
  uncached shortest paths, collective closed forms vs step-by-step loops,
  Young/Daly vs a numeric grid optimum, the sweep fork-pool vs serial,
  the tcp fleet sharded over loopback hosts vs serial.
* :func:`validate` / ``python -m repro validate`` — the orchestrator with
  ``--record`` and ``--check`` modes that ties all three together.

Like :mod:`repro.profiles`, this package sits *above* the subsystems: it
imports scheduling, interconnect and sweep freely.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".differential": (
        "DifferentialResult", "check_checkpointing", "check_collectives",
        "check_distributed", "check_memerrors", "check_resume", "check_routes",
        "check_serve", "check_solvers", "check_sweep",
        "run_differential_checks",
    ),
    ".fingerprint": (
        "DEFAULT_RTOL", "REQUEST_SCHEMA", "SCHEMA", "GoldenStore",
        "canonical_request", "compare_fingerprints", "profile_defaults",
        "profile_fingerprint", "request_fingerprint", "sweep_fingerprint",
    ),
    ".invariants": (
        "InvariantChecker", "InvariantViolation", "KernelInvariantHooks",
        "Violation",
    ),
    ".runner": (
        "DEFAULT_GOLDEN_DIR", "ValidationEntry", "ValidationReport",
        "run_validated", "validate",
    ),
})

__all__ = [
    "DEFAULT_GOLDEN_DIR",
    "DEFAULT_RTOL",
    "REQUEST_SCHEMA",
    "SCHEMA",
    "DifferentialResult",
    "GoldenStore",
    "InvariantChecker",
    "InvariantViolation",
    "KernelInvariantHooks",
    "ValidationEntry",
    "ValidationReport",
    "Violation",
    "check_checkpointing",
    "check_collectives",
    "check_distributed",
    "check_memerrors",
    "check_resume",
    "check_routes",
    "check_solvers",
    "check_serve",
    "check_sweep",
    "canonical_request",
    "compare_fingerprints",
    "profile_defaults",
    "profile_fingerprint",
    "request_fingerprint",
    "run_differential_checks",
    "run_validated",
    "sweep_fingerprint",
    "validate",
]
