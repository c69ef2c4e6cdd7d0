"""Tests for counters, gauges, histograms, the registry and samplers."""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.core.events import Simulation
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSampler,
    bucket_index,
    exponential_buckets,
)


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("jobs")
        counter.inc()
        counter.inc(2.0, site="east")
        counter.inc(3.0, site="east")
        assert counter.value() == 1.0
        assert counter.value(site="east") == 5.0
        assert counter.total() == 6.0

    def test_label_order_is_irrelevant(self):
        counter = Counter("xfers")
        counter.inc(1.0, src="a", dst="b")
        assert counter.value(dst="b", src="a") == 1.0

    def test_negative_increment_raises(self):
        with pytest.raises(ConfigurationError):
            Counter("jobs").inc(-1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_increment_raises_naming_the_metric(self, amount):
        counter = Counter("bytes")
        with pytest.raises(ConfigurationError, match="bytes"):
            counter.inc(amount, tag="flow")
        assert counter.label_sets() == []

    def test_publish_writes_totals_in_order(self):
        counter = Counter("bytes")
        counter.inc(2.0, tag="b")
        counter.publish("tag", {"a": 1.5, "b": 3.0})
        assert counter.label_sets() == [{"tag": "b"}, {"tag": "a"}]
        assert counter.value(tag="a") == 1.5
        assert counter.value(tag="b") == 3.0

    @pytest.mark.parametrize("total", [math.nan, math.inf, 1.0])
    def test_publish_refuses_a_non_finite_or_falling_total(self, total):
        counter = Counter("bytes")
        counter.inc(2.0, tag="a")
        with pytest.raises(ConfigurationError, match="bytes"):
            counter.publish("tag", {"a": total})
        assert counter.value(tag="a") == 2.0


class TestGauge:
    def test_set_overwrites_and_add_adjusts(self):
        gauge = Gauge("depth")
        gauge.set(4.0)
        gauge.set(2.0)
        gauge.add(-1.5)
        assert gauge.value() == 0.5


class TestHistogramBucketEdges:
    def test_value_on_bound_lands_in_that_bucket(self):
        # Prometheus `le` semantics: value <= bound.
        hist = Histogram("lat", buckets=[1.0, 10.0])
        hist.observe(1.0)
        hist.observe(10.0)
        assert hist.counts() == [1, 1, 0]

    def test_value_above_last_bound_overflows(self):
        hist = Histogram("lat", buckets=[1.0, 10.0])
        hist.observe(10.0001)
        assert hist.counts() == [0, 0, 1]

    @pytest.mark.parametrize(
        "value, bucket",
        [(0.5, 0), (-math.inf, 0), (1.0, 0), (5.0, 1), (10.0, 1),
         (10.0001, 2), (math.inf, 2), (math.nan, 2)],
    )
    def test_bucket_index(self, value, bucket):
        assert bucket_index([1.0, 10.0], value) == bucket
        hist = Histogram("lat", buckets=[1.0, 10.0])
        hist.observe(value)
        assert hist.counts().index(1) == bucket

    def test_publish_writes_counts_and_sum(self):
        hist = Histogram("lat", buckets=[1.0, 10.0])
        hist.observe(2.0, tag="a")
        hist.publish("tag", {"b": ([1, 0, 0], 0.5), "a": ([0, 2, 0], 5.0)})
        assert hist.label_sets() == [{"tag": "a"}, {"tag": "b"}]
        assert hist.counts(tag="a") == [0, 2, 0]
        assert hist.sum(tag="b") == 0.5

    def test_publish_refuses_the_wrong_bucket_count(self):
        hist = Histogram("lat", buckets=[1.0, 10.0])
        with pytest.raises(ConfigurationError, match="lat"):
            hist.publish("tag", {"a": ([1, 0], 0.5)})

    def test_counts_has_one_overflow_entry(self):
        hist = Histogram("lat", buckets=[1.0, 2.0, 3.0])
        assert len(hist.counts()) == 4

    def test_sum_count_mean(self):
        hist = Histogram("lat", buckets=[10.0])
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.count() == 2
        assert hist.sum() == 6.0
        assert hist.mean() == 3.0

    def test_non_increasing_bounds_raise(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=[1.0, 1.0])

    def test_empty_bounds_raise(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=[])

    def test_exponential_buckets(self):
        assert exponential_buckets(1e-6, 10.0, 3) == pytest.approx(
            [1e-6, 1e-5, 1e-4]
        )

    def test_exponential_buckets_validates(self):
        with pytest.raises(ConfigurationError):
            exponential_buckets(0.0, 10.0, 3)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=[1.0])
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=[2.0])

    def test_unknown_name_lists_known(self):
        registry = MetricsRegistry()
        registry.counter("known")
        with pytest.raises(KeyError, match="known"):
            registry.get("missing")

    def test_iteration_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2
        assert {m.name for m in registry} == {"a", "b"}
        assert "a" in registry


class TestPeriodicSampler:
    def test_keepalive_cadence_under_bounded_run(self):
        sim = Simulation()
        times = []
        PeriodicSampler(sim, 10.0, times.append, keepalive=True).start()
        sim.run(until=45.0)
        assert times == [10.0, 20.0, 30.0, 40.0]
        assert sim.now == 45.0

    def test_daemon_sampler_never_keeps_sim_alive(self):
        sim = Simulation()
        times = []
        sim.schedule(25.0, lambda: None)
        PeriodicSampler(sim, 10.0, times.append).start()
        sim.run()  # unbounded: must terminate despite the self-rearming tick
        assert times == [10.0, 20.0]

    def test_two_daemon_samplers_do_not_keep_each_other_alive(self):
        # Regression: each sampler's armed tick must not count as pending
        # work for the other, or a plain run() never drains.
        sim = Simulation()
        sim.schedule(5.0, lambda: None)
        a = PeriodicSampler(sim, 10.0, lambda now: None).start()
        b = PeriodicSampler(sim, 7.0, lambda now: None).start()
        assert sim.run(max_events=10_000) < 100.0
        assert a.samples_taken <= 2 and b.samples_taken <= 2

    def test_stop_halts_future_ticks(self):
        sim = Simulation()
        times = []
        sampler = PeriodicSampler(sim, 10.0, times.append, keepalive=True)
        sampler.start()
        sim.run(until=15.0)
        sampler.stop()
        sim.run(until=60.0)
        assert times == [10.0]

    def test_start_twice_raises(self):
        sim = Simulation()
        sampler = PeriodicSampler(sim, 1.0, lambda now: None).start()
        with pytest.raises(ConfigurationError):
            sampler.start()

    def test_non_positive_period_raises(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulation(), 0.0, lambda now: None)
