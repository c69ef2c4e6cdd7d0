"""Cloud bursting and the staged path to the compute exchange.

The paper (§III.G) describes a staircase of intermediate steps towards the
Open Compute Exchange:

1. **bursting** — overflow to a cloud partner when the local queue peaks,
2. **fluidity** — workloads move freely "between different sites under
   different administrations",
3. **new compute grid** — cross-institutional bootstrapping with security
   and data governance addressed,
4. **open compute exchange** — anyone contributes to supply and demand.

:class:`DeliveryStage` names the stages and encodes which placement
freedoms each allows; :class:`BurstingPolicy` implements stage 1's
queue-threshold overflow decision, reused by the staircase experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.federation.site import Site, SiteKind
from repro.observability.probes import Telemetry
from repro.workloads.base import Job


class DeliveryStage(IntEnum):
    """The §III.G staircase. Higher stages strictly widen placement freedom."""

    ON_PREMISE_ONLY = 0
    BURSTING = 1
    FLUIDITY = 2
    COMPUTE_GRID = 3
    OPEN_EXCHANGE = 4

    @property
    def description(self) -> str:
        descriptions = {
            DeliveryStage.ON_PREMISE_ONLY: "static on-premise capacity only",
            DeliveryStage.BURSTING: "overflow to one contracted cloud",
            DeliveryStage.FLUIDITY: "workloads move freely across owned/partner sites",
            DeliveryStage.COMPUTE_GRID: "cross-institutional grid with governance",
            DeliveryStage.OPEN_EXCHANGE: "open market over all providers",
        }
        return descriptions[self]

    def allowed_sites(self, home: Site, all_sites: List[Site]) -> List[Site]:
        """Which sites a job submitted at ``home`` may run on at this stage."""
        if self is DeliveryStage.ON_PREMISE_ONLY:
            return [home]
        if self is DeliveryStage.BURSTING:
            clouds = [s for s in all_sites if s.kind is SiteKind.CLOUD]
            return [home] + clouds[:1]  # one contracted cloud partner
        if self is DeliveryStage.FLUIDITY:
            return [
                s
                for s in all_sites
                if s.kind in (SiteKind.ON_PREMISE, SiteKind.CLOUD, SiteKind.COLO)
                or s is home
            ]
        # COMPUTE_GRID and OPEN_EXCHANGE: everything.
        return list(all_sites)


@dataclass
class BurstingPolicy:
    """Stage-1 bursting: overflow when the local queue exceeds a threshold.

    Attributes
    ----------
    queue_threshold:
        Estimated local queue wait (seconds) above which jobs burst.
    burst_premium:
        Price multiplier accepted when bursting (cloud on-demand premium).
    max_burst_fraction:
        Cap on the fraction of jobs allowed to burst (budget guard).
    telemetry:
        Optional :class:`~repro.observability.probes.Telemetry`; when set,
        every decision bumps ``federation.burst.considered`` and (for
        positive decisions) ``federation.burst.bursted``, with the refusal
        reason labelled on ``federation.burst.refused``.
    """

    queue_threshold: float = 3_600.0
    burst_premium: float = 2.0
    max_burst_fraction: float = 0.5
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.queue_threshold < 0:
            raise ConfigurationError("queue_threshold must be non-negative")
        if self.burst_premium < 1.0:
            raise ConfigurationError("burst_premium must be >= 1")
        if not 0.0 <= self.max_burst_fraction <= 1.0:
            raise ConfigurationError("max_burst_fraction must be in [0, 1]")
        self._bursted = 0
        self._considered = 0

    def should_burst(self, job: Job, estimated_local_wait: float) -> bool:
        """Decide whether ``job`` bursts given the predicted local wait.

        Synchronisation-sensitive jobs never burst (cloud noise would
        destroy them, §II.C); otherwise burst when the wait exceeds the
        threshold and the burst budget is not exhausted.
        """
        self._considered += 1
        if self.telemetry is not None:
            self.telemetry.counter("federation.burst.considered").inc()
        if job.is_synchronisation_sensitive:
            return self._refuse("sync_sensitive")
        if estimated_local_wait <= self.queue_threshold:
            return self._refuse("below_threshold")
        if self._considered > 0:
            burst_fraction = self._bursted / self._considered
            if burst_fraction >= self.max_burst_fraction:
                return self._refuse("budget_exhausted")
        self._bursted += 1
        if self.telemetry is not None:
            self.telemetry.counter("federation.burst.bursted").inc()
        return True

    def _refuse(self, reason: str) -> bool:
        if self.telemetry is not None:
            self.telemetry.counter("federation.burst.refused").inc(reason=reason)
        return False

    @property
    def burst_rate(self) -> float:
        """Fraction of considered jobs that bursted."""
        if self._considered == 0:
            return 0.0
        return self._bursted / self._considered
