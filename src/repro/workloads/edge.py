"""Instrumentation edge streams.

The paper (§III.A): "Complex instruments such as particle accelerators or
light sources ... Today, all the instrumentation data goes back to the HPC
core, but that has become a critical bottleneck, which is expected to get
even worse with new generations of faster and more detailed experimental
facilities. So, the next HPC frontier requires moving some elements of data
analysis, and the related AI inference, close to the data source at the
facility edge."

:class:`InstrumentStream` generates the detector event stream; the edge
experiment compares backhauling everything over a WAN against filtering
with in-situ inference (keeping only "interesting" events).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from repro.core.errors import ConfigurationError


class DetectorPreset(Enum):
    """Representative instrument classes with (event rate Hz, bytes/event)."""

    LIGHT_SOURCE_IMAGING = ("light_source", 3_000.0, 8e6)       # 24 GB/s megapixel detector
    PARTICLE_DETECTOR = ("particle", 100_000.0, 50e3)           # 5 GB/s triggered events
    CRYO_EM = ("cryo_em", 40.0, 60e6)                           # 2.4 GB/s movie frames
    RADIO_TELESCOPE = ("radio", 10_000.0, 1e6)                  # 10 GB/s channelised voltages

    def __init__(self, label: str, event_rate: float, event_bytes: float) -> None:
        self.label = label
        self.event_rate = event_rate
        self.event_bytes = event_bytes


@dataclass
class InstrumentStream:
    """A detector event stream with a science-signal fraction.

    Attributes
    ----------
    preset:
        Instrument class providing rate and event size.
    interesting_fraction:
        Fraction of events containing signal worth keeping; in-situ
        inference discards the rest ("real-time predictive analytics ...
        to minimize the need of a human-in-the-loop").
    duration:
        Observation window in seconds.
    rate_scale:
        Multiplier over the preset's nominal rate (models "new generations
        of faster and more detailed experimental facilities").
    """

    preset: DetectorPreset
    interesting_fraction: float = 0.02
    duration: float = 60.0
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.interesting_fraction <= 1.0:
            raise ConfigurationError("interesting_fraction must be in (0, 1]")
        if self.duration <= 0 or self.rate_scale <= 0:
            raise ConfigurationError("duration and rate_scale must be positive")

    @property
    def event_rate(self) -> float:
        return self.preset.event_rate * self.rate_scale

    @property
    def data_rate(self) -> float:
        """Raw output, bytes/s."""
        return self.event_rate * self.preset.event_bytes

    @property
    def total_bytes(self) -> float:
        return self.data_rate * self.duration

    @property
    def filtered_bytes(self) -> float:
        """Bytes surviving a perfect in-situ filter."""
        return self.total_bytes * self.interesting_fraction

    def filtered_bytes_with_recall(self, recall: float, false_positive_rate: float) -> float:
        """Bytes kept by an imperfect classifier.

        ``recall`` of the interesting events are kept plus
        ``false_positive_rate`` of the boring ones (kept needlessly).
        """
        if not 0.0 <= recall <= 1.0 or not 0.0 <= false_positive_rate <= 1.0:
            raise ConfigurationError("recall and false_positive_rate must be in [0, 1]")
        interesting = self.total_bytes * self.interesting_fraction
        boring = self.total_bytes - interesting
        return interesting * recall + boring * false_positive_rate
