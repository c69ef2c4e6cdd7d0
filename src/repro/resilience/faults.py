"""Declarative fault campaigns: who fails, when, and for how long.

A :class:`FaultCampaign` is a pure description — node failures, link flaps
and site outages over a time horizon — that expands into a concrete,
sorted :class:`FaultEvent` timeline with :meth:`FaultCampaign.timeline`.
The expansion draws only from named forks of the :class:`RandomSource` it
is given, so the same ``(seed, campaign)`` pair always yields bit-identical
timelines regardless of which process or sweep worker performs the draw —
the same contract the sweep engine guarantees for scenario points.

Arrival processes are exponential (memoryless, the classical MTBF model)
or Weibull (``shape < 1`` captures infant mortality / hazard decreasing
with uptime, ``shape > 1`` wear-out), parameterised by their *mean* so an
MTBF measured on a real system can be pasted in directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource

#: Separator joining the two endpoints of a link into a FaultEvent target.
#: Node names ("s3", "t17") never contain it.
LINK_SEPARATOR = "~"


class FaultKind(Enum):
    """What kind of component a fault takes down."""

    NODE = "node"
    LINK = "link"
    SITE = "site"
    #: A memory upset (see :mod:`repro.resilience.memerrors`); the target
    #: is a region label and the event carries its ECC classification.
    MEMORY = "memory"


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault: ``target`` goes down at ``time`` for ``duration``.

    ``target`` is a site name for NODE faults (the injector picks the
    victim node inside that site's pool), ``"u~v"`` for LINK faults (see
    :data:`LINK_SEPARATOR`), and a site name for SITE outages.
    """

    time: float
    kind: FaultKind
    target: str
    duration: float

    @property
    def link(self) -> Tuple[str, str]:
        """The ``(u, v)`` endpoints of a LINK fault's target."""
        if self.kind is not FaultKind.LINK:
            raise ValueError(f"{self.kind.value} fault has no link endpoints")
        u, _, v = self.target.partition(LINK_SEPARATOR)
        return (u, v)


@dataclass(frozen=True)
class FailureProcess:
    """A renewal process of failures with the given mean interarrival time.

    ``shape == 1`` (default) is exponential; any other shape is Weibull
    with the scale chosen so the mean stays ``mtbf``.
    """

    mtbf: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        # Negated comparisons, so a NaN (false under every comparison)
        # is rejected too.
        if not 0.0 < self.mtbf < math.inf:
            raise ConfigurationError(
                f"mtbf must be positive and finite, got {self.mtbf!r}"
            )
        if not 0.0 < self.shape < math.inf:
            raise ConfigurationError(
                f"shape must be positive and finite, got {self.shape!r}"
            )

    def draw(self, rng: RandomSource) -> float:
        """One interarrival time."""
        if self.shape == 1.0:
            return rng.exponential(self.mtbf)
        scale = self.mtbf / math.gamma(1.0 + 1.0 / self.shape)
        return float(scale * rng.numpy.weibull(self.shape))


@dataclass(frozen=True)
class NodeFaultSpec:
    """Node failures at ``site``: a renewal process of single-node deaths.

    ``process.mtbf`` is the *aggregate* rate at the site (system MTBF =
    node MTBF / node count, per :class:`~repro.scheduling.checkpointing.FailureModel`).
    Each failure takes one node out for ``repair_time`` seconds.
    """

    site: str
    process: FailureProcess
    repair_time: float = 300.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.repair_time < math.inf:
            raise ConfigurationError(
                f"repair_time must be non-negative and finite, "
                f"got {self.repair_time!r}"
            )


@dataclass(frozen=True)
class LinkFlapSpec:
    """Fabric link flaps: each arrival downs one random switch link.

    The link population comes from the ``links`` argument of
    :meth:`FaultCampaign.timeline` (typically the switch-to-switch edges
    of the topology under test); each flap lasts ``repair_time`` seconds.
    """

    process: FailureProcess
    repair_time: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.repair_time < math.inf:
            raise ConfigurationError(
                f"repair_time must be non-negative and finite, "
                f"got {self.repair_time!r}"
            )


@dataclass(frozen=True)
class SiteOutageSpec:
    """A whole-site outage, either scheduled (``at``) or stochastic.

    Exactly one of ``at`` (a deterministic outage instant) or ``process``
    (a renewal process of outages) must be set.
    """

    site: str
    duration: float = 3_600.0
    at: Optional[float] = None
    process: Optional[FailureProcess] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.duration < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, got {self.duration!r}"
            )
        if (self.at is None) == (self.process is None):
            raise ConfigurationError(
                "exactly one of at= or process= must be given"
            )
        if self.at is not None and not 0.0 <= self.at < math.inf:
            raise ConfigurationError(
                f"at must be non-negative and finite, got {self.at!r}"
            )


@dataclass(frozen=True)
class FaultCampaign:
    """A declarative fault schedule over ``[0, horizon]``.

    ``timeline(rng)`` expands the specs into sorted :class:`FaultEvent`
    objects. Each spec draws from its own named fork of ``rng``
    (``node/<i>``, ``link/<i>``, ``site/<i>``), so adding a spec never
    perturbs the timelines of the others.
    """

    horizon: float
    node_faults: Tuple[NodeFaultSpec, ...] = field(default_factory=tuple)
    link_flaps: Tuple[LinkFlapSpec, ...] = field(default_factory=tuple)
    site_outages: Tuple[SiteOutageSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon!r}"
            )
        # Accept lists in the constructor but store hashable tuples.
        object.__setattr__(self, "node_faults", tuple(self.node_faults))
        object.__setattr__(self, "link_flaps", tuple(self.link_flaps))
        object.__setattr__(self, "site_outages", tuple(self.site_outages))

    def timeline(
        self,
        rng: RandomSource,
        links: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> List[FaultEvent]:
        """Expand the campaign into a sorted fault-event timeline.

        ``links`` is the link population flaps pick victims from; it is
        required iff the campaign has link flaps.
        """
        if self.link_flaps and not links:
            raise ConfigurationError(
                "campaign has link flaps but no links= population was given"
            )
        events: List[FaultEvent] = []
        for index, spec in enumerate(self.node_faults):
            fork = rng.fork(f"node/{index}")
            clock = spec.process.draw(fork)
            while clock <= self.horizon:
                events.append(
                    FaultEvent(clock, FaultKind.NODE, spec.site, spec.repair_time)
                )
                clock += spec.process.draw(fork)
        for index, spec in enumerate(self.link_flaps):
            fork = rng.fork(f"link/{index}")
            clock = spec.process.draw(fork)
            while clock <= self.horizon:
                u, v = fork.choice(list(links))
                events.append(
                    FaultEvent(
                        clock, FaultKind.LINK,
                        f"{u}{LINK_SEPARATOR}{v}", spec.repair_time,
                    )
                )
                clock += spec.process.draw(fork)
        for index, spec in enumerate(self.site_outages):
            if spec.at is not None:
                if spec.at <= self.horizon:
                    events.append(
                        FaultEvent(spec.at, FaultKind.SITE, spec.site, spec.duration)
                    )
                continue
            fork = rng.fork(f"site/{index}")
            clock = spec.process.draw(fork)
            while clock <= self.horizon:
                events.append(
                    FaultEvent(clock, FaultKind.SITE, spec.site, spec.duration)
                )
                # Outages cannot overlap themselves: the next draw starts
                # after the site is back.
                clock += spec.duration + spec.process.draw(fork)
        events.sort(key=lambda e: e.time)  # stable: spec order breaks ties
        return events
