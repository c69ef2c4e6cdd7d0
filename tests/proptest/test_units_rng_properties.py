"""Property-based checks for unit formatting and seeded RNG semantics.

The formatter laws pin the round-trip and boundary behaviour fixed-case
tests kept missing (mantissas carried across a unit boundary by rounding,
denormal rates); the RNG laws pin fork determinism and the argument
validation added alongside them.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RandomSource
from repro.core.units import (
    format_bytes,
    format_rate,
    format_time,
)
from repro.resilience.faults import FaultKind

from tests.proptest import strategies as props

_UNIT_SCALES = {
    "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0,
    "B": 1.0, "KB": 1e3, "MB": 1e6, "GB": 1e9, "TB": 1e12, "PB": 1e15,
}


def _parse(rendered: str) -> float:
    mantissa, suffix = rendered.split()
    return float(mantissa) * _UNIT_SCALES[suffix]


class TestFormatterProperties:
    @given(seconds=st.floats(min_value=1e-9, max_value=999.0))
    @settings(max_examples=200, deadline=None)
    def test_time_mantissa_stays_below_unit_boundary(self, seconds):
        """No rendered duration ever shows a mantissa at or past the next
        unit's ratio — 999.9999 ms must promote to '1 s', not '1e+03 ms'."""
        rendered = format_time(seconds)
        assert "e+" not in rendered
        mantissa, suffix = rendered.split()
        assert abs(float(mantissa)) < 1000.0
        assert suffix in ("ns", "us", "ms", "s")

    @given(seconds=st.floats(min_value=1e-9, max_value=999.0))
    @settings(max_examples=200, deadline=None)
    def test_time_round_trips_within_rendered_precision(self, seconds):
        assert _parse(format_time(seconds)) == pytest.approx(
            seconds, rel=5e-3
        )

    @given(num_bytes=st.floats(min_value=1.0, max_value=9.9e17))
    @settings(max_examples=200, deadline=None)
    def test_bytes_round_trip_and_boundary(self, num_bytes):
        """Below the top unit's own boundary (PB has nothing to promote
        into) mantissas stay under 1000 and the rendering round-trips."""
        rendered = format_bytes(num_bytes)
        mantissa, suffix = rendered.split()
        assert abs(float(mantissa)) < 1000.0
        assert _parse(rendered) == pytest.approx(num_bytes, rel=5e-3)

    @given(num_bytes=st.floats(min_value=1e18, max_value=1e24))
    @settings(max_examples=50, deadline=None)
    def test_above_top_unit_still_round_trips(self, num_bytes):
        """Past the largest unit the mantissa may exceed 1000 (there is
        nowhere to promote), but the rendering still parses back."""
        rendered = format_bytes(num_bytes)
        assert rendered.endswith(" PB")
        assert _parse(rendered) == pytest.approx(num_bytes, rel=5e-3)

    def test_zero_special_cases(self):
        assert format_time(0.0) == "0 s"
        assert format_bytes(0.0) == "0 B"
        assert format_rate(0.0) == "0 B/s"

    @given(rate=st.floats(min_value=5e-324, max_value=1e-300))
    @settings(max_examples=50, deadline=None)
    def test_denormal_rates_render_without_crashing(self, rate):
        """Sub-normal magnitudes fall through to the base unit instead of
        raising or rendering an empty suffix."""
        rendered = format_rate(rate)
        assert rendered.endswith(" B/s")
        assert math.isfinite(float(rendered.split()[0]))

    @given(seconds=st.floats(min_value=1e-9, max_value=999.0))
    @settings(max_examples=100, deadline=None)
    def test_negative_durations_mirror_positive(self, seconds):
        positive = format_time(seconds)
        negative = format_time(-seconds)
        assert negative == f"-{positive}"


class TestRandomSourceProperties:
    @given(seed=props.seeds(), name=st.text(min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_fork_is_deterministic_per_name(self, seed, name):
        root = RandomSource(seed=seed, name="root")
        first = root.fork(name)
        second = RandomSource(seed=seed, name="root").fork(name)
        draws_a = [first.uniform() for _ in range(4)]
        draws_b = [second.uniform() for _ in range(4)]
        assert draws_a == draws_b

    @given(seed=props.seeds())
    @settings(max_examples=25, deadline=None)
    def test_distinct_fork_names_decorrelate(self, seed):
        root = RandomSource(seed=seed, name="root")
        alpha = [root.fork("alpha").uniform() for _ in range(3)]
        beta = [root.fork("beta").uniform() for _ in range(3)]
        assert alpha != beta

    @given(
        seed=props.seeds(),
        low=st.floats(-1e6, 1e6),
        span=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_honours_bounds(self, seed, low, span):
        rng = RandomSource(seed=seed, name="proptest/uniform")
        value = rng.uniform(low, low + span)
        assert low <= value <= low + span

    def test_validation_errors(self):
        rng = RandomSource(seed=7, name="proptest/validation")
        with pytest.raises(ValueError, match="non-empty name"):
            rng.fork("")
        with pytest.raises(ValueError, match="inverted"):
            rng.uniform(2.0, 1.0)
        with pytest.raises(ValueError, match="2 weights for 3 items"):
            rng.choice(["a", "b", "c"], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            rng.choice(["a", "b"], weights=[1.0, -1.0])
        with pytest.raises(ValueError, match="non-negative"):
            rng.sample(["a", "b"], k=-1)

    @given(seed=props.seeds(), k=st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_sample_returns_distinct_elements(self, seed, k):
        rng = RandomSource(seed=seed, name="proptest/sample")
        items = list(range(8))
        drawn = rng.sample(items, k)
        assert len(drawn) == k
        assert len(set(drawn)) == k
        assert set(drawn) <= set(items)


class TestFaultStrategyProperties:
    @given(payload=props.fault_timelines())
    @settings(max_examples=25, deadline=None)
    def test_timelines_are_sorted_and_bounded(self, payload):
        """Materialised timelines stay within the campaign horizon and the
        draw respects the documented ordering contract."""
        campaign, timeline = payload
        times = [event.time for event in timeline]
        assert times == sorted(times)
        assert all(0.0 <= t <= campaign.horizon for t in times)

    @given(seed=props.seeds(), campaign=props.fault_campaigns())
    @settings(max_examples=20, deadline=None)
    def test_timeline_generation_is_seed_stable(self, seed, campaign):
        first = campaign.timeline(RandomSource(seed=seed, name="replay"))
        second = campaign.timeline(RandomSource(seed=seed, name="replay"))
        assert first == second

    @given(seed=props.seeds(), campaign=props.fault_campaigns())
    @settings(max_examples=20, deadline=None)
    def test_memory_specs_leave_the_node_timeline_alone(self, seed, campaign):
        merged = campaign.timeline(RandomSource(seed=seed, name="replay"))
        alone = campaign.base.timeline(RandomSource(seed=seed, name="replay"))
        assert [e for e in merged if e.kind is FaultKind.NODE] == alone
