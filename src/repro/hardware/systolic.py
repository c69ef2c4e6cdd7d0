"""TPU-like systolic-array accelerator model.

The paper cites Google's TPU as the canonical example of "removing
fetch-decode-execute overheads through dataflow and/or systolic computation"
(§III.B). The structural behaviour a roofline misses is *tile utilisation*:
a systolic array of shape ``rows x cols`` executes matrix multiplies in
tiles, and matrices whose dimensions are not multiples of the tile shape
waste lanes. Small matrices also pay a pipeline fill/drain latency.
"""

from __future__ import annotations

import math

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile


class SystolicArrayAccelerator(Device):
    """A matrix engine built around an ``array_rows x array_cols`` MAC grid.

    Parameters
    ----------
    spec:
        Device spec (kind must be ``SYSTOLIC``). ``peak_flops`` should give
        the full-array MAC throughput at each supported precision.
    array_rows, array_cols:
        Systolic array dimensions (e.g. 128 x 128 for TPU v1-like parts).
    clock_hz:
        Array clock; sets the pipeline fill/drain latency.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        array_rows: int = 128,
        array_cols: int = 128,
        clock_hz: float = 1e9,
    ) -> None:
        if spec.kind is not DeviceKind.SYSTOLIC:
            raise ValueError(f"systolic model requires SYSTOLIC spec, got {spec.kind}")
        super().__init__(spec)
        if array_rows <= 0 or array_cols <= 0 or clock_hz <= 0:
            raise ConfigurationError("array dimensions and clock must be positive")
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.clock_hz = clock_hz

    def tile_utilization(self, rows: int, cols: int) -> float:
        """Fraction of MAC lanes doing useful work for a ``rows x cols`` tile job.

        Both dimensions are padded up to the array shape; utilisation is the
        product of the per-dimension fill fractions of the *last* tile,
        averaged over all tiles.
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        row_tiles = math.ceil(rows / self.array_rows)
        col_tiles = math.ceil(cols / self.array_cols)
        padded = row_tiles * self.array_rows * col_tiles * self.array_cols
        return (rows * cols) / padded

    def pipeline_latency(self) -> float:
        """Fill + drain latency of the array, seconds."""
        return (self.array_rows + self.array_cols) / self.clock_hz

    def time_for(self, kernel: KernelProfile) -> float:
        base = super().time_for(kernel)
        if kernel.mvm_dimension is not None:
            # Matrix-vector: only one column of the array is driven unless
            # vectors are batched; model as square-tile utilisation on an
            # N x N weight matrix streamed through the array.
            utilisation = self.tile_utilization(
                kernel.mvm_dimension, kernel.mvm_dimension
            )
            base = base / max(utilisation, 1e-3)
        return self.pipeline_latency() + base
