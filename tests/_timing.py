"""Attributed-cost helpers for the tier-1 overhead gates.

A wall-clock A/B of a run with and without an observer cannot resolve a
5% bound on a shared host: back-to-back identical runs spread by 5-30%.
The overhead gates therefore *attribute* the cost instead.  The
observer's extra cost per call is timed in a tight loop, split into
chunks, and the fastest chunk is kept, because host interference (CPU
steal, frequency dips) only ever adds time.  That per-call cost, times
the calls a real run makes, divided by the run's CPU time, is the tax.
"""

from __future__ import annotations

import time


def seconds_per_call(fn, *args, chunks: int = 30, iterations: int = 2_000) -> float:
    """Fastest-chunk seconds for one ``fn(*args)`` call."""
    best = float("inf")
    for _ in range(chunks):
        begin = time.perf_counter()
        for _ in range(iterations):
            fn(*args)
        best = min(best, (time.perf_counter() - begin) / iterations)
    return best


def min_cpu_seconds(fn, repeats: int = 3) -> float:
    """Smallest ``time.process_time`` cost of ``fn()`` over ``repeats`` calls.

    CPU time, unlike wall time, does not count the spans in which the
    host descheduled the test.
    """
    best = float("inf")
    for _ in range(repeats):
        begin = time.process_time()
        fn()
        best = min(best, time.process_time() - begin)
    return best
