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

import numpy as np
# numpy 2 loads ``numpy.random`` on first attribute access.  Import it
# here, with numpy, so the cost lands in the import and not in the first
# RandomSource of each forked sweep worker.
import numpy.random  # noqa: F401

T = TypeVar("T")


class RandomSource:
    """A named, seeded wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Any value accepted by :func:`numpy.random.default_rng`. ``None``
        produces OS entropy (not reproducible); prefer an integer.
    name:
        Label used when deriving child streams, so forked streams differ
        deterministically by purpose.
    """

    def __init__(self, seed: Optional[int] = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = np.random.default_rng(seed)

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
            child_seed = np.random.SeedSequence(
                [self.seed, name_key]
            ).generate_state(1)[0]
        return RandomSource(seed=int(child_seed) if child_seed is not None else None,
                            name=f"{self.name}/{name}")

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
        return float(self._rng.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """An integer drawn uniformly from ``[low, high]`` inclusive."""
        return int(self._rng.integers(low, high, endpoint=True))

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean (``mean > 0``)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._rng.exponential(mean))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """A Gaussian variate."""
        return float(self._rng.normal(mean, std))

    def lognormal(self, median: float, sigma: float) -> float:
        """A log-normal variate parameterised by its median and log-std."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return float(self._rng.lognormal(math.log(median), sigma))

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """A Pareto variate ``scale * (1 + Pareto(shape))`` — heavy tailed."""
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        return float(scale * (1.0 + self._rng.pareto(shape)))

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
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            probabilities = [w / total for w in weights]
            index = int(self._rng.choice(len(items), p=probabilities))
        else:
            index = int(self._rng.integers(0, len(items)))
        return items[index]

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements of ``items`` in random order."""
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if k > len(items):
            raise ValueError(f"cannot sample {k} items from {len(items)}")
        indices = self._rng.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in indices]

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)  # type: ignore[arg-type]

    def bernoulli(self, probability: float) -> bool:
        """``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return bool(self._rng.uniform() < probability)

    @property
    def numpy(self) -> np.random.Generator:
        """The underlying numpy generator, for bulk vectorised draws."""
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomSource(seed={self.seed!r}, name={self.name!r})"
