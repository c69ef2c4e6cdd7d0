"""The roofline performance model.

The paper calls out "arithmetic intensity rooflines" as one of the
established HPC rules of thumb (§III.B). The roofline model bounds attainable
throughput by ``min(peak_flops, memory_bandwidth * arithmetic_intensity)``
where arithmetic intensity is FLOPs per byte moved from memory.

:class:`RooflineModel` is the analytical backbone of every digital device
model in :mod:`repro.hardware`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class RooflineModel:
    """A single-level roofline: compute ceiling plus one bandwidth slope.

    Parameters
    ----------
    peak_flops:
        Compute ceiling in FLOP/s.
    memory_bandwidth:
        Sustained memory bandwidth in bytes/s.
    """

    peak_flops: float
    memory_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ConfigurationError(f"peak_flops must be positive: {self.peak_flops}")
        if self.memory_bandwidth <= 0:
            raise ConfigurationError(
                f"memory_bandwidth must be positive: {self.memory_bandwidth}"
            )

    def time_for(self, flops: float, bytes_moved: float) -> float:
        """Execution time lower bound for a kernel.

        The kernel needs ``flops`` operations and moves ``bytes_moved`` bytes;
        the roofline time is the max of the compute time and the memory time
        (perfect overlap assumption).
        """
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops and bytes_moved must be non-negative")
        compute_time = flops / self.peak_flops
        memory_time = bytes_moved / self.memory_bandwidth
        return max(compute_time, memory_time)
