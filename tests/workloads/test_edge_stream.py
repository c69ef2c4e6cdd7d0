"""Tests for instrumentation edge streams (C6)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.edge import DetectorPreset, InstrumentStream


class TestDetectorPreset:
    @pytest.mark.parametrize("preset", list(DetectorPreset))
    def test_stream_data_rate_is_event_rate_times_event_size(self, preset):
        stream = InstrumentStream(preset=preset, rate_scale=2.0)
        assert preset.event_rate > 0 and preset.event_bytes > 0
        assert stream.event_rate == 2.0 * preset.event_rate
        assert stream.data_rate == stream.event_rate * preset.event_bytes
        assert stream.total_bytes == stream.data_rate * stream.duration


class TestInstrumentStream:
    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            InstrumentStream(
                preset=DetectorPreset.PARTICLE_DETECTOR, interesting_fraction=0.0
            )

    def test_rate_scale_multiplies(self):
        base = InstrumentStream(preset=DetectorPreset.CRYO_EM, rate_scale=1.0)
        fast = InstrumentStream(preset=DetectorPreset.CRYO_EM, rate_scale=4.0)
        assert fast.data_rate == pytest.approx(4 * base.data_rate)

    def test_filtered_bytes(self):
        stream = InstrumentStream(
            preset=DetectorPreset.PARTICLE_DETECTOR,
            interesting_fraction=0.05,
            duration=10.0,
        )
        assert stream.filtered_bytes == pytest.approx(0.05 * stream.total_bytes)

    def test_imperfect_classifier_keeps_more_than_perfect(self):
        stream = InstrumentStream(
            preset=DetectorPreset.PARTICLE_DETECTOR, interesting_fraction=0.02
        )
        perfect = stream.filtered_bytes
        sloppy = stream.filtered_bytes_with_recall(recall=1.0, false_positive_rate=0.1)
        assert sloppy > perfect

    def test_low_recall_keeps_less_signal(self):
        stream = InstrumentStream(
            preset=DetectorPreset.PARTICLE_DETECTOR, interesting_fraction=0.02
        )
        assert stream.filtered_bytes_with_recall(0.5, 0.0) == pytest.approx(
            0.5 * stream.filtered_bytes
        )

    def test_recall_bounds(self):
        stream = InstrumentStream(preset=DetectorPreset.RADIO_TELESCOPE)
        with pytest.raises(ConfigurationError):
            stream.filtered_bytes_with_recall(1.5, 0.0)
