"""Tests for fault campaign specs and timeline expansion."""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultEvent,
    FaultKind,
    LinkFlapSpec,
    MemoryErrorCampaign,
    MemoryErrorSpec,
    NodeFaultSpec,
    SiteOutageSpec,
)

PROCESS = FailureProcess(mtbf=100.0)


class TestFailureProcess:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            FailureProcess(mtbf=0.0)
        with pytest.raises(ConfigurationError):
            FailureProcess(mtbf=100.0, shape=0.0)

    def test_exponential_mean_is_mtbf(self):
        process = FailureProcess(mtbf=500.0)
        rng = RandomSource(seed=1)
        draws = [process.draw(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.1)

    def test_weibull_mean_is_mtbf(self):
        process = FailureProcess(mtbf=500.0, shape=2.0)
        rng = RandomSource(seed=2)
        draws = [process.draw(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.1)

    def test_draws_are_positive(self):
        rng = RandomSource(seed=3)
        for shape in (0.7, 1.0, 1.5):
            process = FailureProcess(mtbf=100.0, shape=shape)
            assert all(process.draw(rng) > 0 for _ in range(100))


class TestFaultEvent:
    def test_link_target_roundtrip(self):
        event = FaultEvent(1.0, FaultKind.LINK, "s3~s7", 60.0)
        assert event.link == ("s3", "s7")

    def test_non_link_has_no_endpoints(self):
        event = FaultEvent(1.0, FaultKind.NODE, "siteA", 60.0)
        with pytest.raises(ValueError):
            event.link


class TestSpecs:
    def test_site_outage_needs_exactly_one_mode(self):
        with pytest.raises(ConfigurationError):
            SiteOutageSpec(site="a")  # neither at nor process
        with pytest.raises(ConfigurationError):
            SiteOutageSpec(
                site="a", at=10.0, process=FailureProcess(mtbf=100.0)
            )

    def test_negative_repair_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeFaultSpec(
                site="a", process=FailureProcess(mtbf=10.0), repair_time=-1.0
            )

    @pytest.mark.parametrize(
        "field, build",
        [
            ("mtbf", lambda v: FailureProcess(mtbf=v)),
            ("shape", lambda v: FailureProcess(mtbf=100.0, shape=v)),
            ("repair_time", lambda v: NodeFaultSpec("a", PROCESS, repair_time=v)),
            ("repair_time", lambda v: LinkFlapSpec(PROCESS, repair_time=v)),
            ("duration", lambda v: SiteOutageSpec("a", duration=v, at=1.0)),
            ("at", lambda v: SiteOutageSpec("a", at=v)),
            ("horizon", lambda v: FaultCampaign(horizon=v)),
            ("horizon", lambda v: MemoryErrorCampaign(horizon=v)),
            ("fit_per_gib", lambda v: MemoryErrorSpec(fit_per_gib=v)),
            ("capacity_bytes", lambda v: MemoryErrorSpec(capacity_bytes=v)),
            ("mbu_cluster_mean", lambda v: MemoryErrorSpec(mbu_cluster_mean=v)),
            ("accumulation_time",
             lambda v: MemoryErrorSpec(accumulation_time=v)),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_name_the_field(self, field, build, value):
        with pytest.raises(ConfigurationError, match=rf"\b{field} must be"):
            build(value)

    def test_campaign_accepts_lists(self):
        campaign = FaultCampaign(
            horizon=100.0,
            node_faults=[NodeFaultSpec("a", FailureProcess(mtbf=10.0))],
        )
        assert isinstance(campaign.node_faults, tuple)


class TestTimeline:
    def _campaign(self):
        return FaultCampaign(
            horizon=5_000.0,
            node_faults=(
                NodeFaultSpec("a", FailureProcess(mtbf=500.0)),
                NodeFaultSpec("b", FailureProcess(mtbf=800.0)),
            ),
            link_flaps=(LinkFlapSpec(FailureProcess(mtbf=1_000.0)),),
            site_outages=(SiteOutageSpec(site="a", at=2_500.0, duration=100.0),),
        )

    def test_sorted_and_bounded(self):
        timeline = self._campaign().timeline(
            RandomSource(seed=9), links=[("s0", "s1"), ("s1", "s2")]
        )
        times = [e.time for e in timeline]
        assert times == sorted(times)
        assert all(0 < t <= 5_000.0 for t in times)

    def test_same_seed_same_timeline(self):
        links = [("s0", "s1"), ("s1", "s2")]
        a = self._campaign().timeline(RandomSource(seed=9), links=links)
        b = self._campaign().timeline(RandomSource(seed=9), links=links)
        assert a == b

    def test_different_seed_different_timeline(self):
        links = [("s0", "s1")]
        a = self._campaign().timeline(RandomSource(seed=9), links=links)
        b = self._campaign().timeline(RandomSource(seed=10), links=links)
        assert a != b

    def test_adding_a_spec_preserves_other_forks(self):
        """Per-spec named forks: campaign composition is stable."""
        rng = RandomSource(seed=21)
        base = FaultCampaign(
            horizon=5_000.0,
            node_faults=(NodeFaultSpec("a", FailureProcess(mtbf=500.0)),),
        )
        grown = FaultCampaign(
            horizon=5_000.0,
            node_faults=(NodeFaultSpec("a", FailureProcess(mtbf=500.0)),),
            site_outages=(SiteOutageSpec(site="b", at=100.0, duration=10.0),),
        )
        node_times = lambda tl: [
            e.time for e in tl if e.kind is FaultKind.NODE
        ]
        assert node_times(base.timeline(rng)) == node_times(grown.timeline(rng))

    def test_link_flaps_require_population(self):
        campaign = FaultCampaign(
            horizon=100.0,
            link_flaps=(LinkFlapSpec(FailureProcess(mtbf=10.0)),),
        )
        with pytest.raises(ConfigurationError):
            campaign.timeline(RandomSource(seed=1))

    def test_stochastic_outages_never_self_overlap(self):
        campaign = FaultCampaign(
            horizon=50_000.0,
            site_outages=(
                SiteOutageSpec(
                    site="a", duration=1_000.0,
                    process=FailureProcess(mtbf=500.0),
                ),
            ),
        )
        timeline = campaign.timeline(RandomSource(seed=4))
        assert len(timeline) > 1
        for first, second in zip(timeline, timeline[1:]):
            assert second.time >= first.time + first.duration

    def test_deterministic_outage_beyond_horizon_skipped(self):
        campaign = FaultCampaign(
            horizon=100.0,
            site_outages=(SiteOutageSpec(site="a", at=500.0, duration=10.0),),
        )
        assert campaign.timeline(RandomSource(seed=1)) == []
