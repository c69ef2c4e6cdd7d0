"""Memory-error processes: bit flips, MBU clusters, scrub and ECC policy.

Node, link and site failures (:mod:`repro.resilience.faults`) treat
memory as perfect.  This module adds the missing failure domain: a
deterministic soft-error process over a device's memory capacity —
Poisson single-bit upsets plus clustered multi-bit upsets — classified
by an ECC policy (SEC-DED, Chipkill-class symbol correction) and a
patrol-scrub policy into one of three outcomes:

``corrected``
    The ECC logic fixed the upset in place; the workload never notices.
``due``
    Detected-uncorrectable: the machine-check fires and the job owning
    the region dies (routed to the cluster's existing ``fail_job``
    kill/retry path by :func:`bind_memory`).
``silent``
    The upset escaped both correction and detection (silent data
    corruption); it is counted but deliberately has no simulated effect.

Everything is a pure function of ``(seed, spec index)``: each
:class:`MemoryErrorSpec` expands from its own ``mem/<i>`` fork, so
memory-error timelines are bit-identical at any worker count and never
perturb — or are perturbed by — the ``node/<i>`` / ``link/<i>`` /
``site/<i>`` forks of an existing :class:`~repro.resilience.faults.FaultCampaign`.
Arrival times and cluster sizes are drawn independently of the ECC/scrub
policy (the classification draws are always consumed), so sweeping
policy strength against a fixed seed holds the upset timeline constant.

The analytic side — :func:`outcome_fractions`, :func:`due_rate`,
:func:`effective_mtbf` — is the closed form the ``check_memerrors``
differential validates the injected simulation against, and the bridge
into the Young/Daly machinery: :func:`memory_failure_model` turns a
job's memory footprint plus the node's ECC policy into the
:class:`~repro.scheduling.checkpointing.FailureModel` that
:meth:`~repro.resilience.recovery.CheckpointPlan.from_target` picks
checkpoint intervals from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.hardware.reliability import MemoryReliabilitySpec, reliability_for
from repro.observability.metrics import CounterSeries
from repro.resilience.faults import FaultCampaign, FaultEvent, FaultKind
from repro.resilience.injector import FaultInjector
from repro.scheduling.checkpointing import FailureModel

#: Outcome labels (also the telemetry counter suffixes).
CORRECTED = "corrected"
DUE = "due"
SILENT = "silent"
OUTCOMES = (CORRECTED, DUE, SILENT)


@dataclass(frozen=True)
class EccPolicy:
    """An ECC scheme's correction/detection envelope per cluster size.

    ``correct_bits`` is the largest upset cluster corrected in place;
    ``detect_bits`` the largest reliably *detected* (clusters between the
    two become DUEs; beyond ``detect_bits`` the upset is silent).
    """

    name: str
    correct_bits: int
    detect_bits: int

    def __post_init__(self) -> None:
        if self.correct_bits < 0:
            raise ConfigurationError("correct_bits must be non-negative")
        if self.detect_bits < self.correct_bits:
            raise ConfigurationError(
                f"{self.name}: detect_bits ({self.detect_bits}) must be >= "
                f"correct_bits ({self.correct_bits})"
            )

    def classify_bits(self, bits: int) -> str:
        """Outcome of a ``bits``-wide cluster, ignoring accumulation."""
        if bits <= self.correct_bits:
            return CORRECTED
        if bits <= self.detect_bits:
            return DUE
        return SILENT

    @property
    def escalation_outcome(self) -> str:
        """What a scrub-missed accumulated correctable error becomes."""
        return DUE if self.detect_bits > self.correct_bits else SILENT


#: No ECC: nothing corrected, nothing detected — every upset is silent.
ECC_NONE = EccPolicy("none", correct_bits=0, detect_bits=0)

#: Classic SEC-DED: single-bit correct, double-bit detect.
SEC_DED = EccPolicy("sec-ded", correct_bits=1, detect_bits=2)

#: Chipkill-class symbol correction: an 8-bit symbol corrected, double
#: symbols detected.
CHIPKILL = EccPolicy("chipkill", correct_bits=8, detect_bits=16)

ECC_POLICIES: Dict[str, EccPolicy] = {
    policy.name: policy for policy in (ECC_NONE, SEC_DED, CHIPKILL)
}


def ecc_policy(name: str) -> EccPolicy:
    """Look up an ECC policy by name (CLI / sweep-axis entry point)."""
    try:
        return ECC_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(ECC_POLICIES))
        raise ConfigurationError(
            f"unknown ECC policy {name!r}; known policies: {known}"
        ) from None


@dataclass(frozen=True)
class ScrubPolicy:
    """Patrol scrubbing: a background pass over the whole capacity.

    A correctable upset that sits unscrubbed accumulates with later
    upsets; the phenomenological escalation probability is
    ``interval / (interval + accumulation_time)`` — monotone in the
    scrub period, 0 in the scrub-constantly limit and 1 with scrubbing
    off (``interval=inf``, :data:`NO_SCRUB`).  Scrubbing is not free:
    each pass reads the capacity, so the policy charges a standing
    ``scrub_power`` that the energy/carbon accounting picks up.
    """

    interval: float = 900.0
    energy_per_byte: float = 60e-12

    def __post_init__(self) -> None:
        if not self.interval > 0:
            raise ConfigurationError(
                f"scrub interval must be positive (inf disables): {self.interval}"
            )
        if self.energy_per_byte < 0:
            raise ConfigurationError("energy_per_byte must be non-negative")

    def escalation_probability(self, accumulation_time: float) -> float:
        """P(a correctable upset escalates before the next scrub pass)."""
        if math.isinf(self.interval):
            return 1.0
        return self.interval / (self.interval + accumulation_time)

    def scrub_power(self, capacity_bytes: float) -> float:
        """Standing watts spent patrol-reading ``capacity_bytes``."""
        if capacity_bytes < 0:
            raise ConfigurationError("capacity_bytes must be non-negative")
        if math.isinf(self.interval):
            return 0.0
        return capacity_bytes * self.energy_per_byte / self.interval


#: Scrubbing disabled: accumulated correctable errors always escalate.
NO_SCRUB = ScrubPolicy(interval=math.inf)


@dataclass(frozen=True)
class MemoryUpset(FaultEvent):
    """One concrete upset: ``bits`` flipped in region ``target``.

    The outcome is pre-classified at expansion time (a pure function of
    the draw and the spec's ECC/scrub policy) so replaying a timeline
    never re-draws.
    """

    bits: int = 1
    outcome: str = CORRECTED
    spec_index: int = 0


@dataclass(frozen=True)
class MemoryErrorSpec:
    """A memory-error process over one device's memory region.

    FIT rate, MBU mix and accumulation constant default from the
    :mod:`repro.hardware.reliability` catalog entry for ``device``;
    each may be overridden.  ``region`` labels the events (the C-series
    profiles use the site name so bindings can filter); ``capacity_bytes``
    defaults to the device's full memory capacity.
    """

    device: str = "epyc-class-cpu"
    region: str = "pool"
    capacity_bytes: Optional[float] = None
    fit_per_gib: Optional[float] = None
    mbu_fraction: Optional[float] = None
    mbu_cluster_mean: Optional[float] = None
    accumulation_time: Optional[float] = None
    ecc: EccPolicy = SEC_DED
    scrub: ScrubPolicy = field(default_factory=ScrubPolicy)

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and not (
            0.0 < self.capacity_bytes < math.inf
        ):
            raise ConfigurationError(
                f"capacity_bytes must be positive and finite, "
                f"got {self.capacity_bytes!r}"
            )
        if not self.region:
            raise ConfigurationError("region must be non-empty")
        # Resolve the catalog entry eagerly so a bad device name fails at
        # spec construction, not mid-expansion.
        self.reliability()

    def reliability(self) -> MemoryReliabilitySpec:
        """The catalog envelope with this spec's overrides applied."""
        base = reliability_for(self.device)
        overrides = {}
        if self.fit_per_gib is not None:
            overrides["fit_per_gib"] = self.fit_per_gib
        if self.mbu_fraction is not None:
            overrides["mbu_fraction"] = self.mbu_fraction
        if self.mbu_cluster_mean is not None:
            overrides["mbu_cluster_mean"] = self.mbu_cluster_mean
        if self.accumulation_time is not None:
            overrides["accumulation_time"] = self.accumulation_time
        return replace(base, **overrides) if overrides else base

    def capacity(self) -> float:
        """Protected capacity in bytes (device default unless overridden)."""
        if self.capacity_bytes is not None:
            return self.capacity_bytes
        from repro.hardware.catalog import default_catalog

        return default_catalog().get(self.device).spec.memory_capacity

    def upset_rate(self) -> float:
        """Raw upsets per second over the spec's capacity."""
        return self.reliability().upset_rate(self.capacity())


def _cluster_geometry(mbu_cluster_mean: float) -> float:
    """The geometric parameter p for cluster size ``K = 2 + Geom0(p)``.

    ``mean(K) = 2 + (1-p)/p`` solved for p; a mean of exactly 2 gives
    p=1 (every cluster is a double-bit upset).
    """
    excess = mbu_cluster_mean - 2.0
    if excess <= 0:
        return 1.0
    return 1.0 / (1.0 + excess)


def _cluster_cdf(bits: int, p: float) -> float:
    """P(cluster size <= bits) for ``K = 2 + Geom0(p)``."""
    if bits < 2:
        return 0.0
    # P(Geom0(p) <= g) = 1 - (1-p)^(g+1) with g = bits - 2.
    return 1.0 - (1.0 - p) ** (bits - 1)


def _cluster_bits(u: float, p: float) -> int:
    """Inverse-transform a uniform into a cluster size (>= 2 bits)."""
    if p >= 1.0:
        return 2
    # Geom0: G = floor(log(1-u) / log(1-p)).
    return 2 + int(math.floor(math.log1p(-u) / math.log1p(-p)))


def outcome_fractions(spec: MemoryErrorSpec) -> Dict[str, float]:
    """The closed-form corrected/due/silent split of the upset stream.

    This is the analytic side of the ``check_memerrors`` differential:
    the empirical outcome fractions of an expanded timeline converge to
    exactly these numbers.
    """
    reliability = spec.reliability()
    f_mbu = reliability.mbu_fraction
    p_geo = _cluster_geometry(reliability.mbu_cluster_mean)
    p_esc = spec.scrub.escalation_probability(reliability.accumulation_time)
    c, d = spec.ecc.correct_bits, spec.ecc.detect_bits

    def prob_at_most(bits: int) -> float:
        """P(K <= bits) over the SBU/MBU mixture."""
        single = 1.0 if bits >= 1 else 0.0
        return (1.0 - f_mbu) * single + f_mbu * _cluster_cdf(bits, p_geo)

    correctable = prob_at_most(c)
    detectable = prob_at_most(d) - correctable
    beyond = 1.0 - correctable - detectable
    fractions = {
        CORRECTED: correctable * (1.0 - p_esc),
        DUE: detectable,
        SILENT: beyond,
    }
    fractions[spec.ecc.escalation_outcome] += correctable * p_esc
    return fractions


def due_rate(spec: MemoryErrorSpec,
             footprint_bytes: Optional[float] = None) -> float:
    """Detected-uncorrectable errors per second.

    ``footprint_bytes`` scales the rate to a job's memory footprint
    instead of the spec's full capacity (upsets land uniformly over the
    capacity, so a job owning half the memory sees half the DUEs).
    """
    capacity = spec.capacity() if footprint_bytes is None else footprint_bytes
    if capacity <= 0:
        return 0.0
    rate = spec.reliability().upset_rate(capacity)
    return rate * outcome_fractions(spec)[DUE]


def effective_mtbf(
    footprint_bytes: float,
    spec: MemoryErrorSpec,
    node_mtbf: float = math.inf,
) -> float:
    """A job's MTBF from its memory footprint plus the node's own MTBF.

    Memory DUEs and node failures are independent Poisson processes, so
    the hazards add: ``1/mtbf = 1/node_mtbf + due_rate(footprint)``.
    """
    if footprint_bytes < 0:
        raise ConfigurationError("footprint_bytes must be non-negative")
    if node_mtbf <= 0:
        raise ConfigurationError(f"node_mtbf must be positive: {node_mtbf}")
    hazard = due_rate(spec, footprint_bytes)
    if not math.isinf(node_mtbf):
        hazard += 1.0 / node_mtbf
    if hazard <= 0:
        return math.inf
    return 1.0 / hazard


def memory_failure_model(
    footprint_bytes: float,
    spec: MemoryErrorSpec,
    nodes: int = 1,
    node_mtbf: float = math.inf,
) -> FailureModel:
    """The FIT-derived :class:`FailureModel` for Young/Daly planning.

    ``footprint_bytes`` is the per-node memory footprint; the returned
    model's ``system_mtbf`` divides by ``nodes`` exactly like the
    hand-set models, so
    :meth:`CheckpointPlan.from_target <repro.resilience.recovery.CheckpointPlan.from_target>`
    accepts it unchanged and picks checkpoint intervals from FIT rates.
    """
    return FailureModel(
        node_mtbf=effective_mtbf(footprint_bytes, spec, node_mtbf),
        nodes=nodes,
    )


def expand_spec(
    spec: MemoryErrorSpec,
    horizon: float,
    rng: RandomSource,
    spec_index: int = 0,
) -> List[MemoryUpset]:
    """Expand one spec into its sorted upset timeline over ``[0, horizon]``.

    Four draws are consumed per upset — interarrival gap, MBU bernoulli,
    cluster size, escalation — *unconditionally*, so arrival times and
    cluster sizes are identical across ECC/scrub policies at a fixed
    seed: policy sweeps see the same upsets, classified differently.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive: {horizon}")
    rate = spec.upset_rate()
    if rate <= 0:
        return []
    reliability = spec.reliability()
    p_geo = _cluster_geometry(reliability.mbu_cluster_mean)
    p_esc = spec.scrub.escalation_probability(reliability.accumulation_time)
    mean_gap = 1.0 / rate
    upsets: List[MemoryUpset] = []
    clock = rng.exponential(mean_gap)
    while clock <= horizon:
        u_mbu = rng.uniform()
        u_size = rng.uniform()
        u_esc = rng.uniform()
        bits = _cluster_bits(u_size, p_geo) if u_mbu < reliability.mbu_fraction else 1
        outcome = spec.ecc.classify_bits(bits)
        if outcome == CORRECTED and u_esc < p_esc:
            outcome = spec.ecc.escalation_outcome
        upsets.append(
            MemoryUpset(
                time=clock, kind=FaultKind.MEMORY, target=spec.region,
                duration=0.0, bits=bits, outcome=outcome,
                spec_index=spec_index,
            )
        )
        clock += rng.exponential(mean_gap)
    return upsets


@dataclass(frozen=True)
class MemoryErrorCampaign:
    """A fault campaign extended with memory-error processes.

    Duck-types :class:`~repro.resilience.faults.FaultCampaign` for the
    injector: ``timeline(rng)`` merges the base campaign's node/link/site
    events (drawn from their unchanged ``node/<i>``-style forks) with
    each memory spec's upsets (drawn from ``mem/<i>`` forks), so adding
    memory errors to an existing campaign is bit-stable for both sides.
    """

    horizon: float
    memory: Tuple[MemoryErrorSpec, ...] = field(default_factory=tuple)
    base: Optional[FaultCampaign] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon!r}"
            )
        object.__setattr__(self, "memory", tuple(self.memory))

    def timeline(
        self,
        rng: RandomSource,
        links: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> List[FaultEvent]:
        events: List[FaultEvent] = []
        if self.base is not None:
            events.extend(self.base.timeline(rng, links=links))
        for index, spec in enumerate(self.memory):
            fork = rng.fork(f"mem/{index}")
            events.extend(expand_spec(spec, self.horizon, fork, index))
        events.sort(key=lambda e: e.time)  # stable: base before memory at ties
        return events


class MemoryErrorStats:
    """Running totals a :func:`bind_memory` binding accumulates."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.kills = 0

    @property
    def corrected(self) -> int:
        return self.counts[CORRECTED]

    @property
    def due(self) -> int:
        return self.counts[DUE]

    @property
    def silent(self) -> int:
        return self.counts[SILENT]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def bind_memory(
    injector: FaultInjector,
    cluster,
    rng: Optional[RandomSource] = None,
    region: Optional[str] = None,
) -> MemoryErrorStats:
    """Route MEMORY upsets to ECC telemetry and the cluster kill path.

    Corrected and silent upsets only bump counters
    (``resilience.memerrors.<outcome>``, labelled by region); a DUE
    kills one running job through the cluster's existing ``fail_job``
    retry/checkpoint machinery — the victim weighted by device footprint
    when ``rng`` is given, the lowest job id otherwise.  A DUE landing
    on an idle cluster kills nothing (the region had no job in it).

    ``cluster`` duck-types :class:`~repro.scheduling.cluster.ClusterSimulator`
    (``running_jobs()`` and ``fail_job()``); ``region`` filters events to
    one region label (default: react to all).  Returns the live
    :class:`MemoryErrorStats` the caller can read after the run.
    """
    stats = MemoryErrorStats()
    telemetry = injector.telemetry
    # (outcome, region) -> counter series, resolved at first use.
    series: Dict[Tuple[str, str], CounterSeries] = {}

    def react(event: FaultEvent, repaired: bool) -> None:
        if repaired or not isinstance(event, MemoryUpset):
            return
        if region is not None and event.target != region:
            return
        stats.counts[event.outcome] += 1
        if telemetry is not None:
            key = (event.outcome, event.target)
            counted = series.get(key)
            if counted is None:
                counted = series[key] = telemetry.counter(
                    f"resilience.memerrors.{event.outcome}",
                    "memory upsets by ECC outcome",
                ).series(region=event.target)
            counted.inc()
        if event.outcome != DUE:
            return
        running = cluster.running_jobs()
        if not running:
            return
        if rng is not None:
            victim, _ = rng.choice(
                running, weights=[needed for _, needed in running]
            )
        else:
            victim = running[0][0]
        cluster.fail_job(victim)
        stats.kills += 1

    injector.on(FaultKind.MEMORY, react)
    return stats
