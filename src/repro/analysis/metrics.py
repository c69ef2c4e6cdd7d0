"""Summary statistics for experiment series.

The arithmetic is numpy's, so every figure matches what ``np.mean``,
``np.std`` and ``np.percentile`` give to the last bit: sums are numpy's
pairwise summation, and percentiles are the default ``linear`` method's
interpolation.
"""

from __future__ import annotations

import math
from typing import List

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


def percentile(data: List[float], q: float) -> float:
    """``np.percentile(data, q)`` with the default ``linear`` method.

    ``data`` may come in any order: it is sorted here, and sorting data
    that is already sorted takes one linear pass.
    """
    ordered = sorted(data)
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

