"""Tests for the real-time control-loop model (C18)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.control import (
    DecisionMaker,
    TieredControlPolicy,
    edge_ai,
    human_operator,
    remote_ai,
    science_yield,
)


class TestDecisionMaker:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            DecisionMaker("x", service_latency=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            DecisionMaker("x", service_latency=1.0, capacity=0.0)

    def test_utilisation(self):
        maker = DecisionMaker("x", service_latency=0.01, capacity=100.0)
        assert maker.utilisation(50.0) == 0.5
        assert maker.utilisation(200.0) == 2.0

    def test_timeliness_zero_when_saturated(self):
        maker = DecisionMaker("x", service_latency=0.01, capacity=10.0)
        assert maker.timeliness(20.0, deadline=100.0) == 0.0

    def test_timeliness_zero_below_service_floor(self):
        maker = DecisionMaker("x", service_latency=1.0, capacity=10.0)
        assert maker.timeliness(1.0, deadline=0.5) == 0.0

    def test_timeliness_approaches_one_when_idle(self):
        maker = edge_ai()
        assert maker.timeliness(1.0, deadline=1.0) > 0.999

    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            edge_ai().timeliness(1.0, deadline=0.0)


class TestTiers:
    def test_human_collapses_beyond_minutes_rate(self):
        """§III.A: a human cannot operate a fast instrument."""
        human = human_operator()
        assert science_yield(human, event_rate=0.01, deadline=120.0) > 0.8
        assert science_yield(human, event_rate=1.0, deadline=120.0) == 0.0

    def test_remote_ai_fails_tight_deadlines(self):
        """WAN RTT sets a floor below which remote inference cannot react."""
        remote = remote_ai(wan_rtt=0.04)
        assert science_yield(remote, event_rate=100.0, deadline=0.02) == 0.0
        assert science_yield(remote, event_rate=100.0, deadline=0.5) > 0.9

    def test_edge_ai_meets_millisecond_deadlines(self):
        edge = edge_ai(inference_latency=0.001)
        assert science_yield(edge, event_rate=1_000.0, deadline=0.01) > 0.9

    def test_tier_ordering_at_high_rate(self):
        """At kHz event rates with a loose deadline both AI tiers keep up
        and the human is saturated out entirely."""
        rate, deadline = 1_000.0, 0.1
        human = science_yield(human_operator(), rate, deadline)
        remote = science_yield(remote_ai(), rate, deadline)
        edge = science_yield(edge_ai(), rate, deadline)
        assert edge >= remote > human
        assert human == 0.0

    def test_tight_deadline_separates_edge_from_remote(self):
        """Below the WAN round-trip floor only the edge tier survives —
        why inference must move 'close to the data source' (§III.A)."""
        rate, deadline = 1_000.0, 0.03
        remote = science_yield(remote_ai(wan_rtt=0.04), rate, deadline)
        edge = science_yield(edge_ai(), rate, deadline)
        assert remote == 0.0
        assert edge > 0.99


class TestTieredPolicy:
    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            TieredControlPolicy(edge_ai(), human_operator(), human_fraction=1.5)

    def test_all_automation_matches_edge(self):
        policy = TieredControlPolicy(edge_ai(), human_operator(), human_fraction=0.0)
        assert policy.yield_at(1_000.0, 0.01) == pytest.approx(
            science_yield(edge_ai(), 1_000.0, 0.01)
        )

    def test_small_human_fraction_keeps_yield_high(self):
        """The paper's balance: a supervising human on rare high-level
        decisions barely dents throughput."""
        policy = TieredControlPolicy(
            edge_ai(), human_operator(), human_fraction=0.00001
        )
        assert policy.yield_at(1_000.0, 0.01) > 0.95

    def test_too_much_human_destroys_yield(self):
        policy = TieredControlPolicy(edge_ai(), human_operator(), human_fraction=0.5)
        assert policy.yield_at(1_000.0, 0.01) < 0.6

    def test_yield_monotone_in_human_fraction_at_high_rate(self):
        rate, deadline = 1_000.0, 0.01
        yields = [
            TieredControlPolicy(edge_ai(), human_operator(), f).yield_at(rate, deadline)
            for f in (0.0, 0.001, 0.01, 0.1, 0.5)
        ]
        assert yields == sorted(yields, reverse=True)
