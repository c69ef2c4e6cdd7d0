"""The validation orchestrator behind ``python -m repro validate``.

:func:`run_validated` runs one profile with an :class:`InvariantChecker`
wired in: a :class:`_ValidatingTelemetry` subclass intercepts
``bind_simulation`` so the checker's chaining kernel hooks install at the
same moment telemetry's probe does — every profile gets kernel invariants
without the profiles themselves knowing validation exists. Fabric-only
profiles (no simulation) still get the post-run telemetry ledger checks.

:func:`validate` is the full record/check pipeline over all profiles and
named sweeps plus the differential checks, returning a structured
:class:`ValidationReport` the CLI renders and exits on.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.observability import Telemetry
from repro.validate.fingerprint import (
    DEFAULT_RTOL,
    GoldenStore,
    profile_fingerprint,
    sweep_fingerprint,
)
from repro.validate.invariants import InvariantChecker

#: Where committed goldens live: ``tests/golden`` of the checkout this
#: package was imported from (``src/repro/validate`` -> checkout root), so
#: ``repro validate`` finds them from any working directory.
DEFAULT_GOLDEN_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"
)


class _ValidatingTelemetry(Telemetry):
    """Telemetry that chains invariant hooks onto any simulation it binds.

    ``bind_simulation`` is first-binding-wins in the base class; the
    checker attaches only on the binding that actually took, *after* the
    base installed its ``KernelProbe``, so the invariant hooks wrap the
    probe and both observe every event.
    """

    def __init__(self, checker: InvariantChecker) -> None:
        super().__init__()
        self._checker = checker

    def bind_simulation(self, simulation) -> None:
        if self.simulation is not None:
            return  # base class would no-op too; keep hooks untouched
        super().bind_simulation(simulation)
        self._checker.attach(simulation)


def run_validated(
    profile_id: str, **overrides: object
) -> Tuple[object, InvariantChecker]:
    """Run one profile with invariants armed; returns (result, checker).

    The checker has already run its end-of-run kernel and telemetry
    checks; callers decide between inspecting ``checker.violations`` and
    calling ``checker.assert_clean()``.
    """
    from repro import profiles

    checker = InvariantChecker(name=profile_id.upper())
    telemetry = _ValidatingTelemetry(checker)
    result = profiles.run(profile_id, telemetry, **overrides)
    checker.check_kernel()
    checker.check_telemetry(telemetry, subject=f"{result.experiment_id}")
    return result, checker


@dataclass(frozen=True)
class ValidationEntry:
    """One line of a validation report: a subject and its verdict."""

    kind: str  # "profile" | "sweep" | "differential"
    subject: str
    status: str  # "ok" | "recorded" | "drift" | "violation" | "missing" | "failed"
    details: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "recorded")


@dataclass
class ValidationReport:
    """Everything one ``validate`` invocation concluded."""

    mode: str
    rtol: float
    golden_dir: pathlib.Path
    entries: List[ValidationEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def render(self) -> str:
        """The human-readable report the CLI prints."""
        lines: List[str] = []
        for entry in self.entries:
            marker = "ok" if entry.ok else entry.status.upper()
            suffix = (
                f" — {entry.details[0]}"
                if entry.ok and entry.details else ""
            )
            lines.append(f"{entry.kind} {entry.subject}: {marker}{suffix}")
            if not entry.ok:
                lines.extend(f"  - {detail}" for detail in entry.details)
        good = sum(1 for e in self.entries if e.ok)
        bad = len(self.entries) - good
        lines.append(
            f"validate: {good} ok, {bad} failing "
            f"[{self.mode} mode, rtol {self.rtol:g}, "
            f"goldens at {self.golden_dir}]"
        )
        return "\n".join(lines)


def _profile_entry(
    profile_id: str, store: GoldenStore, mode: str, rtol: float
) -> ValidationEntry:
    result, checker = run_validated(profile_id)
    if not checker.ok:
        return ValidationEntry(
            "profile", profile_id, "violation",
            tuple(str(v) for v in checker.violations),
        )
    document = profile_fingerprint(result)
    if mode == "record":
        path = store.record(document)
        return ValidationEntry(
            "profile", profile_id, "recorded", (f"wrote {path}",)
        )
    drifts = store.check(document, rtol=rtol)
    if drifts:
        status = "missing" if "no golden recorded" in drifts[0] else "drift"
        return ValidationEntry("profile", profile_id, status, tuple(drifts))
    counters = len(document["counters"])
    metrics = len(document["metrics"])
    return ValidationEntry(
        "profile", profile_id, "ok",
        (f"{metrics} metrics and {counters} counters match golden",),
    )


def _sweep_entry(
    sweep_name: str, store: GoldenStore, mode: str, rtol: float
) -> ValidationEntry:
    from repro.sweep import named_sweep, run_sweep

    result = run_sweep(named_sweep(sweep_name), workers=1)
    document = sweep_fingerprint(result)
    if mode == "record":
        path = store.record(document)
        return ValidationEntry(
            "sweep", sweep_name, "recorded", (f"wrote {path}",)
        )
    drifts = store.check(document, rtol=rtol)
    if drifts:
        status = "missing" if "no golden recorded" in drifts[0] else "drift"
        return ValidationEntry("sweep", sweep_name, status, tuple(drifts))
    return ValidationEntry(
        "sweep", sweep_name, "ok",
        (f"{len(result.points)} points match golden "
         f"(digest {result.fingerprint()[:12]})",),
    )


def validate(
    mode: str = "check",
    profiles: Optional[Sequence[str]] = None,
    sweeps: Optional[Sequence[str]] = None,
    golden_dir=None,
    rtol: float = DEFAULT_RTOL,
    differential: bool = True,
    sweep_workers: int = 2,
) -> ValidationReport:
    """Record or check goldens for profiles and sweeps, plus differentials.

    Parameters
    ----------
    mode:
        ``"check"`` compares against stored goldens; ``"record"``
        (re)writes them. Invariants and differentials run in both modes.
    profiles / sweeps:
        Subjects to cover; ``None`` means every run profile and every
        named sweep. Pass empty sequences to skip a category.
    golden_dir:
        Golden directory (default :data:`DEFAULT_GOLDEN_DIR`).  When it is
        left out and the default does not exist (an installed package with
        no checkout), :class:`~repro.core.errors.ConfigurationError` is
        raised naming ``--golden-dir``.
    differential:
        Whether to run the differential checks.
    """
    from repro.profiles import PROFILES
    from repro.sweep import NAMED_SWEEPS

    if mode not in ("check", "record"):
        raise ValueError(f"mode must be 'check' or 'record', not {mode!r}")
    profile_ids = (
        sorted(PROFILES) if profiles is None
        else [p.upper() for p in profiles]
    )
    sweep_names = list(NAMED_SWEEPS) if sweeps is None else list(sweeps)
    if golden_dir is None and not DEFAULT_GOLDEN_DIR.is_dir():
        raise ConfigurationError(
            f"no golden directory at {DEFAULT_GOLDEN_DIR} (repro is not "
            "running from a checkout); pass --golden-dir PATH"
        )
    directory = pathlib.Path(
        golden_dir if golden_dir is not None else DEFAULT_GOLDEN_DIR
    )
    store = GoldenStore(directory)
    report = ValidationReport(mode=mode, rtol=rtol, golden_dir=directory)

    for profile_id in profile_ids:
        report.entries.append(_profile_entry(profile_id, store, mode, rtol))
    for sweep_name in sweep_names:
        report.entries.append(_sweep_entry(sweep_name, store, mode, rtol))
    if differential:
        from repro.validate.differential import run_differential_checks

        for result in run_differential_checks(sweep_workers=sweep_workers):
            report.entries.append(
                ValidationEntry(
                    "differential", result.name,
                    "ok" if result.passed else "failed",
                    (result.detail,),
                )
            )
    return report
