"""Named metrics: counters, gauges, fixed-bucket histograms, samplers.

A :class:`MetricsRegistry` is the single place an instrumented run
accumulates numbers: monotonically-increasing :class:`Counter`\\ s,
last-value :class:`Gauge`\\ s and fixed-bucket :class:`Histogram`\\ s, each
optionally split by labels (``counter.inc(1, site="east")``). The
:class:`PeriodicSampler` drives gauge snapshots off the **simulation
clock**, so sampled series line up with traced spans.

Everything here depends only on :mod:`repro.core` — the instrumented
subsystems (scheduling, interconnect, federation) import this package,
never the reverse.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.core.events import Simulation

#: Canonical key for an unlabelled observation.
_NO_LABELS: Tuple[Tuple[str, str], ...] = ()


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    if len(labels) == 1:  # the common single-label call: nothing to sort
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_index(bounds: Sequence[float], value: float) -> int:
    """The histogram bucket ``value`` falls in (``le`` semantics).

    The first bound ``>= value``; ``len(bounds)`` (the overflow bucket)
    above the last bound, and for NaN, which compares false with every
    bound and which a bare ``bisect_left`` would put in bucket 0.
    """
    if value <= bounds[-1]:
        return bisect_left(bounds, value)
    return len(bounds)


class Metric:
    """Base class: a named metric with per-label-set storage."""

    kind = "metric"

    def __init__(self, name: str, description: str = "") -> None:
        if not name:
            raise ConfigurationError("metric needs a non-empty name")
        self.name = name
        self.description = description

    def label_sets(self) -> List[Dict[str, str]]:
        """Every label combination observed so far, as dicts."""
        return [dict(key) for key in self._keys()]

    def _keys(self) -> Iterator[Tuple[Tuple[str, str], ...]]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically-increasing count (events, bytes, decisions)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (non-negative and finite) to the labelled series."""
        if not 0.0 <= amount < math.inf:
            raise ConfigurationError(
                f"{self.name}: counters only go up by a finite amount, "
                f"got {amount!r}"
            )
        key = _label_key(labels) if labels else _NO_LABELS
        self._values[key] = self._values.get(key, 0.0) + amount

    def series(self, **labels: object) -> "CounterSeries":
        """A handle on one labelled series, for a hot call site.

        ``series.inc(amount)`` is ``counter.inc(amount, **labels)`` with
        the label key built once.  Creating the handle records nothing:
        the series appears at its first increment.
        """
        return CounterSeries(self, _label_key(labels) if labels else _NO_LABELS)

    def publish(self, label: str, totals: Mapping[str, float]) -> None:
        """Write run totals for single-label series, ``{label: total}``.

        For a writer that accumulates a whole run locally and publishes
        once.  Each total must be finite and no lower than the series'
        current count; a series not seen before is created, in the
        order of ``totals``.
        """
        values = self._values
        for value, total in totals.items():
            key = ((label, str(value)),)
            if not values.get(key, 0.0) <= total < math.inf:
                raise ConfigurationError(
                    f"{self.name}: counters only go up by a finite amount, "
                    f"got a total of {total!r} for {label}={value}"
                )
            values[key] = total

    def value(self, **labels: object) -> float:
        """Current count for one label set (0 if never incremented)."""
        key = _label_key(labels) if labels else _NO_LABELS
        return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def _keys(self):
        return iter(self._values)


class CounterSeries:
    """One label set of a :class:`Counter`, from :meth:`Counter.series`.

    Writes into the counter it came from, so it is only valid while that
    counter is registered (a :meth:`MetricsRegistry.reset` drops it).
    """

    __slots__ = ("_name", "_values", "_key")

    def __init__(
        self, counter: Counter, key: Tuple[Tuple[str, str], ...]
    ) -> None:
        self._name = counter.name
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (non-negative and finite) to the series."""
        if not 0.0 <= amount < math.inf:
            raise ConfigurationError(
                f"{self._name}: counters only go up by a finite amount, "
                f"got {amount!r}"
            )
        values = self._values
        key = self._key
        values[key] = values.get(key, 0.0) + amount


class Gauge(Metric):
    """A last-value-wins measurement (queue depth, free devices)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Record the current value for the labelled series."""
        key = _label_key(labels) if labels else _NO_LABELS
        self._values[key] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        """Adjust the current value (gauges may go down)."""
        key = _label_key(labels) if labels else _NO_LABELS
        self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels: object) -> float:
        """Current value for one label set (0 if never set)."""
        key = _label_key(labels) if labels else _NO_LABELS
        return self._values.get(key, 0.0)

    def _keys(self):
        return iter(self._values)


class Histogram(Metric):
    """Fixed-bucket histogram of observations.

    ``buckets`` are strictly-increasing upper bounds; an implicit
    overflow bucket (+inf) always exists, so ``counts`` has
    ``len(buckets) + 1`` entries. Bucket test is ``value <= bound``
    (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float],
        description: str = "",
    ) -> None:
        super().__init__(name, description)
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ConfigurationError(f"{name}: histogram needs >= 1 bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigurationError(f"{name}: bucket bounds must strictly increase")
        self.buckets = bounds
        self._counts: Dict[Tuple[Tuple[str, str], ...], List[int]] = {}
        self._sums: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Add one observation to the labelled series."""
        key = _label_key(labels) if labels else _NO_LABELS
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        counts[bucket_index(self.buckets, value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value

    def publish(
        self, label: str, series: Mapping[str, Tuple[List[int], float]]
    ) -> None:
        """Write run totals for single-label series, ``{label: (counts, sum)}``.

        The :meth:`Counter.publish` of histograms: ``counts`` has one
        entry per bucket plus the overflow bucket, as :meth:`counts`
        returns them.
        """
        width = len(self.buckets) + 1
        for value, (counts, total) in series.items():
            if len(counts) != width:
                raise ConfigurationError(
                    f"{self.name}: {label}={value} has {len(counts)} bucket "
                    f"counts, expected {width}"
                )
            key = ((label, str(value)),)
            self._counts[key] = list(counts)
            self._sums[key] = total

    def counts(self, **labels: object) -> List[int]:
        """Per-bucket counts (last entry is the +inf overflow bucket)."""
        key = _label_key(labels) if labels else _NO_LABELS
        return list(self._counts.get(key, [0] * (len(self.buckets) + 1)))

    def count(self, **labels: object) -> int:
        """Total number of observations for one label set."""
        return sum(self.counts(**labels))

    def sum(self, **labels: object) -> float:
        """Sum of observed values for one label set."""
        key = _label_key(labels) if labels else _NO_LABELS
        return self._sums.get(key, 0.0)

    def mean(self, **labels: object) -> float:
        """Mean observation (0 for an empty series)."""
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def _keys(self):
        return iter(self._counts)


def exponential_buckets(start: float, factor: float, count: int) -> List[float]:
    """Geometric bucket bounds: ``start * factor**i`` for ``i < count``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ConfigurationError("need start > 0, factor > 1, count >= 1")
    return [start * factor ** i for i in range(count)]


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name returns the existing instance; requesting it as a
    different kind (or a histogram with different buckets) raises — the
    name is the contract.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        description: str = "",
    ) -> Histogram:
        """Get or create a :class:`Histogram` (bucket bounds must match)."""
        existing = self._metrics.get(name)
        if existing is None:
            metric = Histogram(name, buckets, description)
            self._metrics[name] = metric
            return metric
        if not isinstance(existing, Histogram):
            raise ConfigurationError(
                f"{name} is a {existing.kind}, not a histogram"
            )
        if existing.buckets != [float(b) for b in buckets]:
            raise ConfigurationError(f"{name}: bucket bounds differ from existing")
        return existing

    def _get_or_create(self, cls, name: str, description: str):
        existing = self._metrics.get(name)
        if existing is None:
            metric = cls(name, description)
            self._metrics[name] = metric
            return metric
        if not isinstance(existing, cls):
            raise ConfigurationError(
                f"{name} is a {existing.kind}, not a {cls.kind}"
            )
        return existing

    def get(self, name: str) -> Metric:
        """Look up a metric by name (KeyError with the known names if absent)."""
        try:
            return self._metrics[name]
        except KeyError:
            known = ", ".join(sorted(self._metrics))
            raise KeyError(f"unknown metric {name!r}; registry has: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (for reuse across experiment repetitions)."""
        self._metrics.clear()


class PeriodicSampler:
    """Calls ``fn(now)`` every ``period`` simulated seconds.

    Driven by the simulation's own event queue, so samples interleave
    deterministically with the workload. Two stopping modes:

    * default (``keepalive=False``): ticks are scheduled as **daemon**
      events, so they never count towards ``Simulation.pending`` and a
      plain ``Simulation.run()`` still drains once real work finishes —
      any number of samplers can coexist without keeping each other (or
      the simulation) alive;
    * ``keepalive=True``: ticks are ordinary live events; the run must be
      bounded with ``Simulation.run(until=...)`` (or the sampler
      explicitly :meth:`stop`\\ ped), matching the kernel's
      clock-advance-to-horizon semantics.
    """

    def __init__(
        self,
        simulation: Simulation,
        period: float,
        fn: Callable[[float], None],
        keepalive: bool = False,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"sampler period must be positive: {period}")
        self.simulation = simulation
        self.period = period
        self.fn = fn
        self.keepalive = keepalive
        self.samples_taken = 0
        self._stopped = False
        self._armed = False

    def start(self, delay: Optional[float] = None) -> "PeriodicSampler":
        """Arm the first tick ``delay`` seconds from now (default: one period)."""
        if self._armed:
            raise ConfigurationError("sampler already started")
        self._armed = True
        self._stopped = False
        self.simulation.schedule(
            self.period if delay is None else delay, self._tick,
            daemon=not self.keepalive,
        )
        return self

    def stop(self) -> None:
        """Stop sampling; the already-armed tick (if any) becomes a no-op."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fn(self.simulation.now)
        self.samples_taken += 1
        self.simulation.schedule(
            self.period, self._tick, daemon=not self.keepalive
        )
