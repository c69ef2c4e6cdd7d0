"""Summary statistics for experiment series.

The arithmetic is numpy's, so every figure matches what ``np.mean``,
``np.std`` and ``np.percentile`` give to the last bit: sums are numpy's
pairwise summation, and percentiles are the default ``linear`` method's
interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: numpy's pairwise-summation block (``PW_BLOCKSIZE``).
_BLOCK = 128


def _pairwise_sum(data: List[float], start: int, count: int) -> float:
    """numpy's ``pairwise_sum`` of ``data[start:start + count]``."""
    if count < 8:
        total = -0.0
        for i in range(start, start + count):
            total += data[i]
        return total
    if count <= _BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = data[start:start + 8]
        end = start + count - count % 8
        for i in range(start + 8, end, 8):
            r0 += data[i]
            r1 += data[i + 1]
            r2 += data[i + 2]
            r3 += data[i + 3]
            r4 += data[i + 4]
            r5 += data[i + 5]
            r6 += data[i + 6]
            r7 += data[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + count):
            total += data[i]
        return total
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(data, start, half)
            + _pairwise_sum(data, start + half, count - half))


def pairwise_sum(data: List[float]) -> float:
    """``np.sum`` of a float64 array: numpy's pairwise summation."""
    return _pairwise_sum(data, 0, len(data))


def mean(data: List[float]) -> float:
    """``np.mean``."""
    return pairwise_sum(data) / len(data)


def std(data: List[float]) -> float:
    """``np.std`` (population, ``ddof=0``)."""
    centre = mean(data)
    return math.sqrt(pairwise_sum([(x - centre) * (x - centre) for x in data])
                     / len(data))


def percentile(ordered: List[float], q: float) -> float:
    """``np.percentile(data, q)`` with the default ``linear`` method, for
    ``ordered`` the sorted data."""
    count = len(ordered)
    virtual = (count - 1) * (q / 100)
    if virtual >= count - 1:
        # numpy indexes the last element as -1 here, so gamma is past 1.
        below = above = ordered[-1]
        gamma = virtual + 1
    else:
        index = math.floor(virtual)
        below, above = ordered[index], ordered[index + 1]
        gamma = virtual - index
    # numpy's ``_lerp``: from the nearer end, so gamma 1 gives ``above``.
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def _floats(samples: Sequence[float]) -> List[float]:
    return [float(x) for x in samples]


def _has_nan(data: List[float]) -> bool:
    return any(x != x for x in data)


@dataclass(frozen=True)
class Percentiles:
    """Standard latency percentiles of a sample."""

    p50: float
    p90: float
    p99: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Percentiles":
        if not samples:
            raise ValueError("cannot compute percentiles of an empty sample")
        data = _floats(samples)
        if _has_nan(data):
            # numpy's percentile of a sample holding NaN is NaN.
            return cls(p50=math.nan, p90=math.nan, p99=math.nan)
        data.sort()
        return cls(
            p50=percentile(data, 50),
            p90=percentile(data, 90),
            p99=percentile(data, 99),
        )


@dataclass(frozen=True)
class SeriesStats:
    """Mean/std/min/max plus percentiles of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentiles: Percentiles

    @property
    def cv(self) -> float:
        """Coefficient of variation (0 for a zero-mean series)."""
        if self.mean == 0:
            return 0.0
        return self.std / abs(self.mean)


def summarize(samples: Sequence[float]) -> SeriesStats:
    """Full summary of a numeric sample."""
    if not samples:
        raise ValueError("cannot summarise an empty sample")
    data = _floats(samples)
    nan = _has_nan(data)
    return SeriesStats(
        count=len(data),
        mean=mean(data),
        std=std(data),
        minimum=math.nan if nan else min(data),
        maximum=math.nan if nan else max(data),
        percentiles=Percentiles.of(data),
    )
