"""Seeded random-number management.

Every stochastic component in the library draws from a :class:`RandomSource`
rather than the global :mod:`random` state, so simulations are reproducible
from a single seed and independent subsystems can be given independent
streams (via :meth:`RandomSource.fork`) without correlated draws.
"""

from __future__ import annotations

import math
import zlib
from typing import List, Optional, Sequence, TypeVar

from repro.core.pcg import PCG64, seed_state

T = TypeVar("T")


def _check_scale(value: float, name: str) -> None:
    """numpy's non-negativity check: ``-0.0`` is negative too."""
    if math.copysign(1.0, value) < 0 and not math.isnan(value):
        raise ValueError(f"{name} < 0")


class RandomSource:
    """A named, seeded stream of numpy's ``default_rng`` draws, in pure Python.

    Every draw is the one ``numpy.random.default_rng(seed)`` makes for the
    same sequence of calls, computed by the stdlib-only
    :class:`repro.core.pcg.PCG64`.

    Parameters
    ----------
    seed:
        A non-negative integer. ``None`` produces OS entropy (not
        reproducible); prefer an integer.
    name:
        Label used when deriving child streams, so forked streams differ
        deterministically by purpose.
    """

    def __init__(self, seed: Optional[int] = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._bits = PCG64(seed)

    def fork(self, name: str) -> "RandomSource":
        """Derive an independent child stream keyed by ``name``.

        Forking with the same parent seed and name always yields the same
        stream — including across processes: the name is hashed with CRC32,
        not Python's per-process-randomised ``hash()``.
        """
        if not name:
            # CRC32("") is 0, which collides with any name hashing to 0 and
            # silently yields a stream indistinguishable from a typo'd call.
            raise ValueError("fork needs a non-empty name")
        if self.seed is None:
            child_seed = None
        else:
            name_key = zlib.crc32(name.encode("utf-8"))
            child_seed = seed_state([self.seed, name_key], 1)[0]
        return RandomSource(seed=child_seed, name=f"{self.name}/{name}")

    def spawn(self, index: int) -> "RandomSource":
        """Child stream for scenario/worker ``index`` of a fan-out.

        The stream depends only on the parent seed and the index — not on
        which process draws from it or how many siblings exist — so a
        parameter sweep gets bit-identical results at any worker count.
        """
        if index < 0:
            raise ValueError(f"spawn index must be non-negative, got {index}")
        return self.fork(f"spawn/{index}")

    # --- draws ---------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float drawn uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(
                f"uniform bounds are inverted: low={low} > high={high}"
            )
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self._bits.random()

    def integer(self, low: int, high: int) -> int:
        """An integer drawn uniformly from ``[low, high]`` inclusive."""
        low, high = int(low), int(high)
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high >= 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            raise ValueError("low > high")
        return low + self._bits.bounded(high - low)

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean (``mean > 0``)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(mean * self._bits.standard_exponential())

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """A Gaussian variate."""
        _check_scale(std, "scale")
        return float(mean + std * self._bits.standard_normal())

    def normals(self, mean: float, std: float, count: int) -> List[float]:
        """``count`` Gaussian variates, the same as ``count`` calls to
        :meth:`normal`."""
        _check_scale(std, "scale")
        mean, std = float(mean), float(std)
        draw = self._bits.standard_normal
        return [mean + std * draw() for _ in range(count)]

    def lognormal(self, median: float, sigma: float) -> float:
        """A log-normal variate parameterised by its median and log-std."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        _check_scale(sigma, "sigma")
        return math.exp(math.log(median) + sigma * self._bits.standard_normal())

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """A Pareto variate ``scale * (1 + Pareto(shape))`` — heavy tailed."""
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        return float(scale * (1.0 + math.expm1(self._bits.standard_exponential() / shape)))

    def weibull(self, shape: float) -> float:
        """A standard Weibull variate ``E ** (1 / shape)``, ``E`` a unit
        exponential; ``shape == 0`` gives 0."""
        _check_scale(shape, "a")
        if shape == 0.0:
            return 0.0
        return float(self._bits.standard_exponential() ** (1.0 / shape))

    def choice(self, items: Sequence[T], weights: Optional[Sequence[float]] = None) -> T:
        """One element of ``items``, optionally weighted."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        if weights is not None:
            if len(weights) != len(items):
                raise ValueError(
                    f"got {len(weights)} weights for {len(items)} items"
                )
            if any(w < 0 for w in weights):
                raise ValueError("weights must be non-negative")
            total = float(sum(weights))
            if not math.isfinite(total):
                raise ValueError("weights must sum to a finite value")
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            index = self._bits.weighted_index([w / total for w in weights])
        else:
            index = self._bits.bounded(len(items) - 1)
        return items[index]

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements of ``items`` in random order."""
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if k > len(items):
            raise ValueError(f"cannot sample {k} items from {len(items)}")
        return [items[i]
                for i in self._bits.choice_without_replacement(len(items), k)]

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._bits.shuffle(items)

    def bernoulli(self, probability: float) -> bool:
        """``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._bits.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomSource(seed={self.seed!r}, name={self.name!r})"
