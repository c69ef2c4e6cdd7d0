"""Declarative fault campaigns: who fails, when, and for how long.

A :class:`FaultCampaign` is a pure description — node failures over a
time horizon — that expands into a concrete,
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
from typing import List, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource


def _check_finite(name: str, value: object, *, positive: bool) -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``value``
    is a finite number, above zero when ``positive``, else at least zero.

    The negated comparisons reject a NaN (false under every comparison),
    and a non-number (a comparison raises ``TypeError``) is rejected too.
    """
    try:
        valid = (0.0 < value < math.inf) if positive else (
            0.0 <= value < math.inf
        )
    except TypeError:
        valid = False
    if not valid:
        sign = "positive" if positive else "non-negative"
        raise ConfigurationError(
            f"{name} must be {sign} and finite, got {value!r}"
        )


class FaultKind(Enum):
    """What kind of component a fault takes down."""

    NODE = "node"
    #: A memory upset (see :mod:`repro.resilience.memerrors`); the target
    #: is a region label and the event carries its ECC classification.
    MEMORY = "memory"


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault: ``target`` goes down at ``time`` for ``duration``.

    ``target`` is a site name for NODE faults (the injector picks the
    victim node inside that site's pool) and a region label for MEMORY
    upsets.
    """

    time: float
    kind: FaultKind
    target: str
    duration: float


@dataclass(frozen=True)
class FailureProcess:
    """A renewal process of failures with the given mean interarrival time.

    ``shape == 1`` (default) is exponential; any other shape is Weibull
    with the scale chosen so the mean stays ``mtbf``.
    """

    mtbf: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        _check_finite("mtbf", self.mtbf, positive=True)
        _check_finite("shape", self.shape, positive=True)

    def draw(self, rng: RandomSource) -> float:
        """One interarrival time."""
        if self.shape == 1.0:
            return rng.exponential(self.mtbf)
        scale = self.mtbf / math.gamma(1.0 + 1.0 / self.shape)
        return scale * rng.weibull(self.shape)


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
        if not isinstance(self.site, str) or not self.site:
            raise ConfigurationError(
                f"site must be a non-empty site name, got {self.site!r}"
            )
        if not isinstance(self.process, FailureProcess):
            raise ConfigurationError(
                "process must be a FailureProcess, got "
                f"{type(self.process).__name__}"
            )
        _check_finite("repair_time", self.repair_time, positive=False)


@dataclass(frozen=True)
class FaultCampaign:
    """A declarative fault schedule over ``[0, horizon]``.

    ``timeline(rng)`` expands the specs into sorted :class:`FaultEvent`
    objects. Each spec draws from its own named fork of ``rng``
    (``node/<i>``), so adding a spec never perturbs the timelines of the
    others.
    """

    horizon: float
    node_faults: Tuple[NodeFaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_finite("horizon", self.horizon, positive=True)
        # Accept lists in the constructor but store hashable tuples.
        specs = self.node_faults
        if isinstance(specs, (list, tuple)):
            specs = tuple(specs)
        if not isinstance(specs, tuple) or not all(
            isinstance(spec, NodeFaultSpec) for spec in specs
        ):
            raise ConfigurationError(
                "node_faults must be a sequence of NodeFaultSpec, got "
                f"{self.node_faults!r}"
            )
        object.__setattr__(self, "node_faults", specs)

    def timeline(self, rng: RandomSource) -> List[FaultEvent]:
        """Expand the campaign into a sorted fault-event timeline."""
        events: List[FaultEvent] = []
        for index, spec in enumerate(self.node_faults):
            fork = rng.fork(f"node/{index}")
            clock = spec.process.draw(fork)
            while clock <= self.horizon:
                events.append(
                    FaultEvent(clock, FaultKind.NODE, spec.site, spec.repair_time)
                )
                clock += spec.process.draw(fork)
        events.sort(key=lambda e: e.time)  # stable: spec order breaks ties
        return events
