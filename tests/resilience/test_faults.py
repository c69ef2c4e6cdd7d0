"""Tests for fault campaign specs and timeline expansion."""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.resilience import (
    FailureProcess,
    FaultCampaign,
    FaultKind,
    MemoryErrorCampaign,
    MemoryErrorSpec,
    NodeFaultSpec,
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


class TestSpecs:
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
        )

    def test_sorted_and_bounded(self):
        timeline = self._campaign().timeline(RandomSource(seed=9))
        times = [e.time for e in timeline]
        assert times == sorted(times)
        assert all(0 < t <= 5_000.0 for t in times)

    def test_same_seed_same_timeline(self):
        a = self._campaign().timeline(RandomSource(seed=9))
        b = self._campaign().timeline(RandomSource(seed=9))
        assert a == b

    def test_different_seed_different_timeline(self):
        a = self._campaign().timeline(RandomSource(seed=9))
        b = self._campaign().timeline(RandomSource(seed=10))
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
            node_faults=(
                NodeFaultSpec("a", FailureProcess(mtbf=500.0)),
                NodeFaultSpec("b", FailureProcess(mtbf=300.0)),
            ),
        )
        site_times = lambda tl, site: [e.time for e in tl if e.target == site]
        assert site_times(base.timeline(rng), "a") == site_times(
            grown.timeline(rng), "a"
        )
        assert site_times(grown.timeline(rng), "b")


class TestInvalidInputs:
    """A bad campaign input fails at construction, naming the field,
    instead of as a ``TypeError`` or ``AttributeError`` mid-expansion."""

    NODE = NodeFaultSpec("a", PROCESS)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("mtbf", lambda: FailureProcess(mtbf="100")),
            ("mtbf", lambda: FailureProcess(mtbf=None)),
            ("mtbf", lambda: FailureProcess(mtbf=-5.0)),
            ("shape", lambda: FailureProcess(mtbf=100.0, shape="1")),
            ("shape", lambda: FailureProcess(mtbf=100.0, shape=-0.5)),
            ("site", lambda: NodeFaultSpec("", PROCESS)),
            ("site", lambda: NodeFaultSpec(None, PROCESS)),
            ("site", lambda: NodeFaultSpec(3, PROCESS)),
            ("process", lambda: NodeFaultSpec("a", None)),
            ("process", lambda: NodeFaultSpec("a", 100.0)),
            ("repair_time", lambda: NodeFaultSpec("a", PROCESS, repair_time="5")),
            ("repair_time", lambda: NodeFaultSpec("a", PROCESS, repair_time=-1.0)),
            ("horizon", lambda: FaultCampaign(horizon="10")),
            ("horizon", lambda: FaultCampaign(horizon=None)),
            ("horizon", lambda: FaultCampaign(horizon=0.0)),
            ("node_faults", lambda: FaultCampaign(horizon=10.0, node_faults=[1])),
            ("node_faults", lambda: FaultCampaign(
                horizon=10.0, node_faults=TestInvalidInputs.NODE)),
            ("node_faults", lambda: FaultCampaign(
                horizon=10.0, node_faults=[TestInvalidInputs.NODE, "b"])),
            ("memory", lambda: MemoryErrorCampaign(horizon=10.0, memory=[1])),
            ("memory", lambda: MemoryErrorCampaign(
                horizon=10.0, memory=MemoryErrorSpec())),
            ("base", lambda: MemoryErrorCampaign(
                horizon=10.0, base=TestInvalidInputs.NODE)),
        ],
    )
    def test_rejected_naming_the_field(self, field, build):
        with pytest.raises(ConfigurationError, match=rf"\b{field} must be"):
            build()

    def test_valid_specs_pass_through_unchanged(self):
        campaign = FaultCampaign(horizon=10.0, node_faults=(self.NODE,))
        assert campaign.node_faults == (self.NODE,)
        merged = MemoryErrorCampaign(
            horizon=10.0, memory=[MemoryErrorSpec()], base=campaign
        )
        assert merged.memory == (MemoryErrorSpec(),) and merged.base is campaign


class TestNodeTimelines:
    """Node-fault timelines against their definition: a renewal process
    per spec, each event naming its spec's site and repair time."""

    SHAPES = [0.7, 1.0, 1.5]

    def _timeline(self, shape, horizon=200_000.0, seed=5):
        campaign = FaultCampaign(
            horizon=horizon,
            node_faults=(
                NodeFaultSpec("a", FailureProcess(mtbf=500.0, shape=shape),
                              repair_time=30.0),
                NodeFaultSpec("b", FailureProcess(mtbf=2_000.0, shape=shape),
                              repair_time=0.0),
            ),
        )
        return campaign.timeline(RandomSource(seed=seed))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_events_carry_their_specs_site_and_repair_time(self, shape):
        timeline = self._timeline(shape)
        assert {(e.kind, e.target, e.duration) for e in timeline} == {
            (FaultKind.NODE, "a", 30.0), (FaultKind.NODE, "b", 0.0),
        }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_spec_is_an_increasing_arrival_sequence(self, shape):
        timeline = self._timeline(shape)
        for site in ("a", "b"):
            times = [e.time for e in timeline if e.target == site]
            assert 0.0 < times[0]
            assert all(a < b for a, b in zip(times, times[1:]))
            assert times[-1] <= 200_000.0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_arrival_count_tracks_horizon_over_mtbf(self, shape):
        timeline = self._timeline(shape)
        for site, mtbf in (("a", 500.0), ("b", 2_000.0)):
            count = sum(1 for e in timeline if e.target == site)
            assert count == pytest.approx(200_000.0 / mtbf, rel=0.15)

    def test_campaign_without_specs_has_an_empty_timeline(self):
        assert FaultCampaign(horizon=100.0).timeline(RandomSource(seed=1)) == []
