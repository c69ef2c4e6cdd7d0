"""Runtime invariants: conservation laws checked at run end.

Every simulator in the library obeys laws that hold regardless of
parameters, seeds or faults:

* **kernel** — event time is monotone non-decreasing, the clock never goes
  negative, and the event ledger balances (the kernel's own counts never
  show more fires + cancels than schedules; the live count never goes
  negative).
* **cluster** — ``submitted == completed + dead + in_flight``
  (the :func:`~repro.resilience.metrics.conservation` identity), and
  goodput never exceeds utilization.
* **fabric** — per flow, delivered bytes never exceed the flow size and
  finish never precedes start; across the run, bytes offered at admission
  equal bytes delivered plus bytes lost to drops.
* **economics / telemetry** — every counter total is finite and
  non-negative (dollars, joules, bytes — a NaN or negative cost is always
  a bug), and the job/event counter ledgers balance.

:class:`InvariantChecker` collects :class:`Violation` records instead of
raising at the first failure, so one run reports *all* broken laws;
:meth:`InvariantChecker.assert_clean` turns them into a single
:class:`InvariantViolation` (a :class:`~repro.core.errors.SimulationError`).

The kernel checks attach through :class:`KernelInvariantHooks`, which
*chains*: the kernel has a single hooks slot, which a profiled run's
:class:`~repro.observability.probes.ProfilingKernelProbe` occupies, so
the invariant hooks wrap whatever is installed and delegate to it after
checking. Attaching the checker never changes what telemetry observes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.events import Event, Simulation, SimulationHooks

#: Slack for floating-point time comparisons (simulated seconds).
TIME_EPSILON = 1e-9

#: Relative slack for floating-point byte conservation across counters.
BYTES_RTOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which law, on what subject, and how."""

    check: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


class InvariantViolation(SimulationError):
    """Raised by :meth:`InvariantChecker.assert_clean` when laws broke."""

    def __init__(self, violations: Iterable[Violation]) -> None:
        self.violations: Tuple[Violation, ...] = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n{lines}"
        )


class KernelInvariantHooks(SimulationHooks):
    """Chaining kernel observer: checks each event, then delegates.

    Wraps whatever hooks were installed before it (a profiled run's
    ``ProfilingKernelProbe``, or none) so both observers see every
    schedule/fire/cancel.  It counts nothing: the ledger law reads the
    kernel's own counts.  Violations are recorded on the owning
    :class:`InvariantChecker`; the hot path stays assertion-free so a
    clean run pays only comparisons.
    """

    def __init__(
        self,
        checker: "InvariantChecker",
        subject: str,
        inner: Optional[SimulationHooks] = None,
    ) -> None:
        self.checker = checker
        self.subject = subject
        self.inner = inner
        self.last_fire_time: Optional[float] = None

    def on_schedule(self, simulation: Simulation, event: Event) -> None:
        if event.time < simulation.now - TIME_EPSILON:
            self.checker.fail(
                "kernel.causality", self.subject,
                f"event scheduled at t={event.time} behind the clock "
                f"(now={simulation.now})",
            )
        if self.inner is not None:
            self.inner.on_schedule(simulation, event)

    def on_fire_start(self, simulation: Simulation, event: Event) -> None:
        # No invariant to check pre-callback, but the wrapped probe may be
        # a wall-clock profiler that times the callback — keep delegating.
        if self.inner is not None:
            self.inner.on_fire_start(simulation, event)

    def on_fire(self, simulation: Simulation, event: Event) -> None:
        now = simulation.now
        if now < 0.0:
            self.checker.fail(
                "kernel.clock", self.subject, f"clock went negative: {now}"
            )
        if (
            self.last_fire_time is not None
            and now < self.last_fire_time - TIME_EPSILON
        ):
            self.checker.fail(
                "kernel.monotone-time", self.subject,
                f"event fired at t={now} after one at "
                f"t={self.last_fire_time} (time ran backwards)",
            )
        self.last_fire_time = now
        if simulation.pending < 0:
            self.checker.fail(
                "kernel.ledger", self.subject,
                f"live-event count went negative: {simulation.pending}",
            )
        if self.inner is not None:
            self.inner.on_fire(simulation, event)

    def on_cancel(self, simulation: Simulation, event: Event) -> None:
        if self.inner is not None:
            self.inner.on_cancel(simulation, event)


class InvariantChecker:
    """Collects conservation-law violations across one run.

    Use :meth:`attach` to chain kernel hooks onto a simulation *before*
    events are scheduled, run the workload, then call the ``check_*``
    methods (or let :func:`repro.validate.runner.run_validated` do it) and
    finally :meth:`assert_clean`.
    """

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.violations: List[Violation] = []
        self._kernel_hooks: List[Tuple[Simulation, KernelInvariantHooks]] = []

    # --- recording -----------------------------------------------------------

    def fail(self, check: str, subject: str, message: str) -> None:
        """Record one violation (never raises — see :meth:`assert_clean`)."""
        self.violations.append(Violation(check, subject, message))

    @property
    def ok(self) -> bool:
        """``True`` while no invariant has been violated."""
        return not self.violations

    def summary(self) -> str:
        """One line per violation, or a clean bill of health."""
        if self.ok:
            checks = len(self._kernel_hooks)
            return f"{self.name}: all invariants held ({checks} kernel(s))"
        lines = [f"{self.name}: {len(self.violations)} violation(s)"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if any law was broken."""
        if self.violations:
            raise InvariantViolation(self.violations)

    # --- kernel --------------------------------------------------------------

    def attach(
        self, simulation: Simulation, subject: str = "simulation"
    ) -> KernelInvariantHooks:
        """Chain invariant hooks in front of the simulation's observer.

        The previously installed hooks (a ``ProfilingKernelProbe`` or
        anything else) keep receiving every callback via delegation.
        """
        hooks = KernelInvariantHooks(self, subject, inner=simulation.hooks)
        simulation.set_hooks(hooks)
        self._kernel_hooks.append((simulation, hooks))
        return hooks

    def check_kernel(self) -> None:
        """End-of-run kernel laws for every attached simulation."""
        for simulation, hooks in self._kernel_hooks:
            if simulation.now < 0.0:
                self.fail(
                    "kernel.clock", hooks.subject,
                    f"final clock is negative: {simulation.now}",
                )
            if simulation.pending < 0:
                self.fail(
                    "kernel.ledger", hooks.subject,
                    f"final live-event count is negative: "
                    f"{simulation.pending}",
                )
            scheduled, fired, cancelled = simulation.event_counts
            if fired + cancelled > scheduled:
                self.fail(
                    "kernel.ledger", hooks.subject,
                    f"fired+cancelled ({fired}+{cancelled}) "
                    f"exceeds scheduled ({scheduled}) — events "
                    "materialised out of nowhere",
                )

    # --- cluster -------------------------------------------------------------

    def check_cluster(self, cluster, subject: Optional[str] = None) -> None:
        """Job-ledger conservation and goodput <= utilization for a cluster.

        Generalises :func:`repro.resilience.metrics.check_conservation`:
        instead of raising on the first break it records every broken term.
        """
        from repro.resilience.metrics import conservation

        subject = subject or f"cluster:{cluster.site.name}"
        tally = conservation(cluster)
        balance = tally["completed"] + tally["dead"] + tally["in_flight"]
        if balance != tally["submitted"]:
            self.fail(
                "cluster.conservation", subject,
                f"submitted={tally['submitted']} but completed+dead"
                f"+in_flight={balance} ({tally})",
            )
        utilization = cluster.utilization()
        if not 0.0 <= utilization <= 1.0 + TIME_EPSILON:
            self.fail(
                "cluster.utilization", subject,
                f"utilization {utilization} outside [0, 1]",
            )
        makespan = cluster.makespan()
        if makespan > 0:
            goodput = cluster.useful_device_seconds / (
                cluster.nominal_capacity * makespan
            )
            if goodput > utilization + TIME_EPSILON:
                self.fail(
                    "cluster.goodput", subject,
                    f"goodput {goodput} exceeds utilization {utilization} "
                    "(useful work counted that was never run)",
                )
        for label, value in (
            ("useful_device_seconds", cluster.useful_device_seconds),
            ("wasted_device_seconds", cluster.wasted_device_seconds),
        ):
            if value < 0.0 or not math.isfinite(value):
                self.fail(
                    "cluster.accounting", subject,
                    f"{label} is {value} (must be finite and >= 0)",
                )

    # --- fabric --------------------------------------------------------------

    def check_fabric(self, stats, subject: str = "fabric") -> None:
        """Per-flow byte/time laws over a run's ``FlowStats`` list."""
        for flow in stats:
            label = f"{subject}/flow:{flow.flow_id}"
            if flow.delivered_bytes < 0.0:
                self.fail(
                    "fabric.bytes", label,
                    f"delivered {flow.delivered_bytes} bytes (< 0)",
                )
            if flow.delivered_bytes > flow.size * (1.0 + BYTES_RTOL):
                self.fail(
                    "fabric.bytes", label,
                    f"delivered {flow.delivered_bytes} of a "
                    f"{flow.size}-byte flow (over-delivery)",
                )
            if flow.finish_time < flow.start_time - TIME_EPSILON:
                self.fail(
                    "fabric.time", label,
                    f"finished at t={flow.finish_time} before starting "
                    f"at t={flow.start_time}",
                )
            if not flow.dropped and flow.delivered_bytes < flow.size * (
                1.0 - BYTES_RTOL
            ):
                self.fail(
                    "fabric.bytes", label,
                    f"completed flow delivered only {flow.delivered_bytes} "
                    f"of {flow.size} bytes",
                )

    # --- telemetry-level ledgers ---------------------------------------------

    def check_telemetry(
        self, telemetry, subject: str = "telemetry", drained: bool = True
    ) -> None:
        """Counter-level conservation over a run's metrics registry.

        * every counter total (and every labelled value) is finite and
          non-negative — this is the economics law: dollars, joules and
          bytes can never go negative or NaN;
        * ``fabric.flow_bytes_offered == fabric.flow_bytes +
          fabric.flow_bytes_lost`` when the fabric ran;
        * ``sim.events.fired + cancelled <= scheduled``;
        * with ``drained=True`` (a run that completed), every submitted job
          is accounted: ``cluster.jobs.submitted == finished + dead``.
        """
        registry = telemetry.metrics

        def total(name: str) -> float:
            return registry.get(name).total() if name in registry else 0.0

        for metric in registry:
            if metric.kind != "counter":
                continue
            value = metric.total()
            if not math.isfinite(value) or value < 0.0:
                self.fail(
                    "telemetry.non-negative", f"{subject}/{metric.name}",
                    f"counter total is {value} (must be finite and >= 0)",
                )
                continue
            for labels in metric.label_sets():
                labelled = metric.value(**labels)
                if not math.isfinite(labelled) or labelled < 0.0:
                    self.fail(
                        "telemetry.non-negative",
                        f"{subject}/{metric.name}{labels}",
                        f"counter value is {labelled} "
                        "(must be finite and >= 0)",
                    )

        if "fabric.flow_bytes_offered" in registry:
            offered = total("fabric.flow_bytes_offered")
            settled = total("fabric.flow_bytes") + total(
                "fabric.flow_bytes_lost"
            )
            if abs(offered - settled) > BYTES_RTOL * max(
                offered, settled, 1.0
            ):
                self.fail(
                    "fabric.conservation", subject,
                    f"bytes offered ({offered}) != delivered + lost "
                    f"({settled}) — "
                    f"{abs(offered - settled)} bytes unaccounted",
                )

        if "sim.events.scheduled" in registry:
            scheduled = total("sim.events.scheduled")
            settled_events = total("sim.events.fired") + total(
                "sim.events.cancelled"
            )
            if settled_events > scheduled:
                self.fail(
                    "kernel.ledger", subject,
                    f"fired+cancelled counters ({settled_events}) exceed "
                    f"scheduled ({scheduled})",
                )

        if drained and "cluster.jobs.submitted" in registry:
            submitted = total("cluster.jobs.submitted")
            settled_jobs = (
                total("cluster.jobs.finished") + total("cluster.jobs.dead")
            )
            if submitted != settled_jobs:
                self.fail(
                    "cluster.conservation", subject,
                    f"cluster.jobs.submitted ({submitted}) != finished + "
                    f"dead ({settled_jobs}) after the run drained",
                )
