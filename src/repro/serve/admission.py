"""Admission control: per-tenant token buckets and load shedding.

The policy protects *simulation capacity*, the scarce resource — so it
sits in front of cold runs only; cache hits and coalesced joins answer
from memory and are always admitted.  Two gates, in order:

1. **Load shedding** — a bounded in-flight count (queued + running
   jobs).  Past the bound every request sheds with 429 regardless of
   tenant, because admitting work the queue cannot absorb only converts
   overload into latency.
2. **Per-tenant quota** — a token bucket per tenant name (rate tokens/s,
   ``burst`` capacity).  ``rate=0`` makes the bucket a hard budget of
   ``burst`` requests, which is what the deterministic load-shed tests
   and CI smoke use: no clock in the outcome at all.

Every rejection carries a ``Retry-After`` hint: the token deficit
divided by the refill rate (capped), or the configured queue drain hint.
The clock is injectable, so tests can prove quota refill behaviour
without sleeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""  # "" | "queue" | "quota"
    retry_after: float = 0.0


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s refill, ``burst`` cap."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock()

    def _refill(self, now: float) -> None:
        if self.rate > 0 and now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
        self._last = now

    def take(self) -> AdmissionDecision:
        """Consume one token, or say how long until one exists."""
        self._refill(self.clock())
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return AdmissionDecision(True)
        if self.rate <= 0:
            # A pure budget: it never refills, so there is no honest
            # retry hint — callers cap this to their configured maximum.
            return AdmissionDecision(False, "quota", math.inf)
        return AdmissionDecision(
            False, "quota", (1.0 - self.tokens) / self.rate
        )


@dataclass
class QuotaPolicy:
    """Per-tenant quota settings; ``rate=None`` disables quotas entirely."""

    rate: Optional[float] = None
    burst: float = 8.0

    @classmethod
    def parse(cls, text: str) -> "QuotaPolicy":
        """Parse the CLI spelling ``RATE:BURST`` (e.g. ``0:2``, ``1.5:8``)."""
        rate_text, separator, burst_text = text.partition(":")
        try:
            rate = float(rate_text)
            burst = float(burst_text) if separator else rate
        except ValueError:
            raise ValueError(
                f"bad quota {text!r}; expected RATE:BURST, e.g. '0:2'"
            ) from None
        for name, value in (("rate", rate), ("burst", burst)):
            if not 0.0 <= value < math.inf:  # also rejects NaN
                raise ValueError(
                    f"quota {text!r}: {name} must be non-negative and "
                    f"finite, got {value!r}"
                )
        return cls(rate=rate, burst=burst)


class AdmissionController:
    """The two-gate admission policy described in the module docstring."""

    def __init__(
        self,
        max_queue: int = 8,
        quota: Optional[QuotaPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        retry_after_cap: float = 60.0,
        queue_retry_after: float = 1.0,
    ) -> None:
        self.max_queue = max(1, int(max_queue))
        self.quota = quota if quota is not None else QuotaPolicy()
        self.clock = clock
        self.retry_after_cap = float(retry_after_cap)
        self.queue_retry_after = float(queue_retry_after)
        self.inflight = 0
        self.buckets: Dict[str, TokenBucket] = {}

    def admit(self, tenant: str) -> AdmissionDecision:
        """Decide one cold request.  Admission takes an in-flight slot
        (pair every admit with a :meth:`release`); rejections take
        nothing — a shed request consumes neither a slot nor a token."""
        if self.inflight >= self.max_queue:
            return AdmissionDecision(
                False, "queue",
                min(self.queue_retry_after, self.retry_after_cap),
            )
        if self.quota.rate is not None:
            bucket = self.buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self.quota.rate, self.quota.burst, self.clock
                )
                self.buckets[tenant] = bucket
            decision = bucket.take()
            if not decision.admitted:
                return AdmissionDecision(
                    False, "quota",
                    min(decision.retry_after, self.retry_after_cap),
                )
        self.inflight += 1
        return AdmissionDecision(True)

    def release(self) -> None:
        self.inflight = max(0, self.inflight - 1)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state for health endpoints and tests."""
        return {
            "inflight": self.inflight,
            "max_queue": self.max_queue,
            "quota_rate": self.quota.rate,
            "quota_burst": self.quota.burst,
            "tenants": {
                tenant: round(bucket.tokens, 6)
                for tenant, bucket in sorted(self.buckets.items())
            },
        }
