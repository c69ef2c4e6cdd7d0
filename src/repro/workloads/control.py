"""Real-time instrument control: automation vs the human in the loop.

The paper (§III.A): "real-time predictive analytics, control, and
optimization is needed to minimize the need of a human-in-the-loop for
operating the instrumentation edge." And §III.D: the challenge is
"balancing the degree of human in the loop — just enough to maintain
control over some of the high-level decisions — not too much to maintain
the sufficient automation."

Model
-----
An instrument raises *control events* (drifting beam, detector fault,
interesting transient) at some rate; each event needs a decision within a
deadline or its science value is lost. A :class:`DecisionMaker` is
characterised by a decision latency distribution and a throughput
capacity:

* **human operator** — tens of seconds latency, ~0.05 decisions/s,
* **remote AI** — inference at the supercomputing core behind a WAN round
  trip,
* **edge AI** — local inference in microseconds-to-milliseconds.

:func:`science_yield` combines timeliness (P[latency <= deadline], with
M/M/1 queueing delay once utilisation rises) and capacity saturation into
the fraction of events acted on in time. A :class:`TieredControlPolicy`
routes a configurable fraction of (high-level) decisions to the human and
the rest to automation — the paper's "just enough ... not too much"
balance, swept by the C18 experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class DecisionMaker:
    """A decision-making tier for instrument control events.

    Attributes
    ----------
    name:
        Label for reports.
    service_latency:
        Mean time to make one decision once started, seconds.
    capacity:
        Sustainable decisions per second (1 / service time of the whole
        pipeline; a human operator is far below ``1/service_latency``
        because of context switching — set explicitly).
    """

    name: str
    service_latency: float
    capacity: float

    def __post_init__(self) -> None:
        if self.service_latency <= 0 or self.capacity <= 0:
            raise ConfigurationError(f"{self.name}: invalid parameters")

    def utilisation(self, event_rate: float) -> float:
        """Offered load over capacity (can exceed 1 = saturated)."""
        if event_rate < 0:
            raise ValueError("event_rate must be non-negative")
        return event_rate / self.capacity

    def timeliness(self, event_rate: float, deadline: float) -> float:
        """P[decision within deadline] for an M/M/1 sojourn time.

        The M/M/1 sojourn is exponential with rate ``capacity - rate``;
        saturated tiers never meet any deadline.
        """
        if deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        rho = self.utilisation(event_rate)
        if rho >= 1.0:
            return 0.0
        sojourn_rate = self.capacity - event_rate
        # Shift by the intrinsic service latency floor: nothing decides
        # faster than its own inference/reaction time.
        effective = deadline - self.service_latency
        if effective <= 0:
            return 0.0
        return 1.0 - math.exp(-sojourn_rate * effective)


def human_operator() -> DecisionMaker:
    """A trained instrument operator: ~20 s per decision, 3/minute."""
    return DecisionMaker("human-operator", service_latency=20.0, capacity=0.05)


def remote_ai(wan_rtt: float = 0.04, inference_latency: float = 0.01,
              capacity: float = 2_000.0) -> DecisionMaker:
    """Inference at the supercomputing core behind a WAN round trip."""
    return DecisionMaker(
        "remote-ai",
        service_latency=wan_rtt + inference_latency,
        capacity=capacity,
    )


def edge_ai(inference_latency: float = 0.001, capacity: float = 20_000.0) -> DecisionMaker:
    """In-situ inference on the facility-edge accelerator."""
    return DecisionMaker("edge-ai", service_latency=inference_latency,
                         capacity=capacity)


def science_yield(maker: DecisionMaker, event_rate: float, deadline: float) -> float:
    """Fraction of control events acted on within the deadline.

    Timeliness already accounts for saturation (zero beyond capacity).
    """
    return maker.timeliness(event_rate, deadline)


@dataclass(frozen=True)
class TieredControlPolicy:
    """Split control between automation and a supervising human.

    ``human_fraction`` of events (the high-level ones) go to the human;
    the rest to the automated tier. The paper's balance: enough human for
    control, enough automation for throughput.
    """

    automated: DecisionMaker
    human: DecisionMaker
    human_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.human_fraction <= 1.0:
            raise ConfigurationError("human_fraction must be in [0, 1]")

    def yield_at(self, event_rate: float, deadline: float,
                 human_deadline: float = 120.0) -> float:
        """Combined science yield.

        Automated decisions face the hard real-time deadline; the human's
        high-level decisions get a relaxed deadline (they gate quality,
        not event survival) — but a saturated human still drops them.
        """
        human_rate = event_rate * self.human_fraction
        automated_rate = event_rate * (1.0 - self.human_fraction)
        automated_yield = (
            self.automated.timeliness(automated_rate, deadline)
            if automated_rate > 0 else 1.0
        )
        human_yield = (
            self.human.timeliness(human_rate, human_deadline)
            if human_rate > 0 else 1.0
        )
        return (
            (1.0 - self.human_fraction) * automated_yield
            + self.human_fraction * human_yield
        )
