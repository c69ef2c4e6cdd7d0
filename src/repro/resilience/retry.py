"""Retry policies: bounded retries with capped exponential backoff."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff.

    A job's ``n``-th restart (``n`` counted from 0) is delayed by::

        min(base_delay * multiplier**n, max_delay)

    a pure function of the attempt number.  After ``max_retries`` failed
    attempts have been retried, the next failure declares the job dead
    (it lands on the cluster's dead-job ledger instead of the queue).
    """

    max_retries: int = 3
    base_delay: float = 10.0
    multiplier: float = 2.0
    max_delay: float = 3_600.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before restart number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt}")
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)
