"""OS and interference noise: why clouds break barrier-synchronised codes.

The paper (§II.C): "the interference of other applications running over the
same interconnect, storage network and compute ... creates noise and makes
barrier-based synchronizations ineffective (the slowest component dictates
performance)."

Model
-----
In a BSP superstep, P ranks each compute for a nominally equal time ``t``,
then synchronise at a barrier. With multiplicative noise, rank i takes
``t * (1 + X_i)`` with ``X_i ~ N(0, cv^2)``; the superstep takes the
*maximum* over ranks. The expected maximum of P iid normals grows like
``cv * sqrt(2 ln P)``, so the slowdown

    ``E[superstep] / t  ≈  1 + cv * sqrt(2 ln P)``

grows without bound in P — tiny per-node noise (cv ~ 0.3%) is harmless at
any scale, cloud-level noise (cv ~ 8%) halves efficiency at a few thousand
ranks. This order-statistics effect is exactly the paper's claim, and the
C7 experiment sweeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource


def expected_max_of_normals(count: int, std: float) -> float:
    """Expected maximum of ``count`` iid N(0, std^2) variables.

    Uses the asymptotic ``std * sqrt(2 ln n)`` with the standard
    second-order correction; exact small-n values for n <= 2.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if std < 0:
        raise ValueError("std must be non-negative")
    if std == 0 or count == 1:
        return 0.0
    if count == 2:
        return std / math.sqrt(math.pi)
    log_n = math.log(count)
    primary = math.sqrt(2.0 * log_n)
    correction = (math.log(log_n) + math.log(4.0 * math.pi)) / (2.0 * primary)
    return std * max(primary - correction, 0.0)


def bsp_slowdown(ranks: int, noise_cv: float) -> float:
    """Expected BSP superstep slowdown at ``ranks`` with noise ``noise_cv``.

    Returns ``E[max_i (1 + X_i)] >= 1``; deterministic closed form used by
    runtime prediction (the sampling model below is for validation).
    """
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if noise_cv < 0:
        raise ValueError("noise_cv must be non-negative")
    return 1.0 + expected_max_of_normals(ranks, noise_cv)


@dataclass
class NoiseModel:
    """A samplable noise model for validation and stochastic simulation.

    Attributes
    ----------
    noise_cv:
        Coefficient of variation of per-rank compute time.
    heavy_tail_probability / heavy_tail_magnitude:
        With this probability a rank additionally suffers a straggler event
        (e.g. page migration, daemon wakeup) multiplying its time by the
        magnitude — clouds have fatter tails than dedicated systems.
    """

    noise_cv: float
    heavy_tail_probability: float = 0.0
    heavy_tail_magnitude: float = 3.0

    def __post_init__(self) -> None:
        if self.noise_cv < 0:
            raise ConfigurationError("noise_cv must be non-negative")
        if not 0.0 <= self.heavy_tail_probability <= 1.0:
            raise ConfigurationError("heavy_tail_probability must be in [0, 1]")
        if self.heavy_tail_magnitude < 1.0:
            raise ConfigurationError("heavy_tail_magnitude must be >= 1")

    def sample_superstep(
        self, ranks: int, nominal_time: float, rng: RandomSource
    ) -> float:
        """One sampled superstep duration (max over noisy ranks)."""
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        if nominal_time < 0:
            raise ValueError("nominal_time must be non-negative")
        draws = rng.normals(0.0, self.noise_cv, ranks)
        if not self.heavy_tail_probability:
            # ``1 + noise`` rounds monotonically, so the largest draw is
            # the slowest rank.
            return nominal_time * max(0.0, 1.0 + max(draws))
        worst = 0.0
        for noise in draws:
            factor = max(0.0, 1.0 + noise)
            if self.heavy_tail_probability and rng.bernoulli(self.heavy_tail_probability):
                factor *= self.heavy_tail_magnitude
            worst = max(worst, factor)
        return nominal_time * worst

    def expected_slowdown(self, ranks: int) -> float:
        """Closed-form expected slowdown (ignores the heavy tail term)."""
        base = bsp_slowdown(ranks, self.noise_cv)
        # A rank straggling with probability p inflates the expected max by
        # roughly p * ranks capped at 1 occurrences of the magnitude.
        if self.heavy_tail_probability > 0 and ranks > 1:
            expected_stragglers = min(1.0, self.heavy_tail_probability * ranks)
            base += expected_stragglers * (self.heavy_tail_magnitude - 1.0)
        return base
