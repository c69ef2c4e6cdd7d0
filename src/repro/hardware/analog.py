"""Analog (memristor crossbar) dot-product engine.

The paper (§III.B): analog "dot-product engines" exploit a combination of
Ohm's and Kirchhoff's laws in memory arrays to implement a dot product,
changing "an O(N^2) problem to an O(N) problem" in power and time.

Model
-----
A matrix-vector multiply ``W @ x`` with an ``N x N`` weight matrix mapped
onto a crossbar executes in time *independent of the matrix size* (one
analog settle per crossbar pass): the inputs are applied as voltages on N
rows simultaneously and the column currents sum in parallel. What *does*
scale with N is the digital periphery:

* DACs drive N input rows → O(N) conversion energy,
* ADCs read N output columns → O(N) conversion energy and, with a limited
  number of ADCs shared across columns, O(N / adc_count) readout time.

Matrices larger than one crossbar are tiled; weights must be programmed
into the crossbar before use (slow writes), so the engine favours
inference-style workloads with static weights — matching the paper's claim
that these are "formidable candidates for AI inference at the edge".
"""

from __future__ import annotations


from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision


class AnalogDotProductEngine(Device):
    """A crossbar-based matrix-vector multiply engine.

    Parameters
    ----------
    spec:
        Device spec (kind must be ``ANALOG``); ``peak_flops`` should contain
        the ``Precision.ANALOG`` equivalent-throughput entry used for
        non-MVM kernels offloaded to the digital periphery.
    crossbar_size:
        Rows/columns of one crossbar tile.
    settle_time:
        Analog settle time of one crossbar pass, seconds (size independent —
        this is the O(1) core of the O(N) claim).
    adc_count:
        ADCs shared across the columns of one crossbar.
    adc_rate:
        Conversions per second per ADC.
    conversion_energy:
        Joules per DAC or ADC conversion.
    effective_bits:
        Equivalent digital precision after analog noise; requests for wider
        precision are refused.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        crossbar_size: int = 256,
        settle_time: float = 100e-9,
        adc_count: int = 8,
        adc_rate: float = 1e9,
        conversion_energy: float = 2e-12,
        effective_bits: int = 8,
    ) -> None:
        if spec.kind is not DeviceKind.ANALOG:
            raise ValueError(f"analog model requires ANALOG spec, got {spec.kind}")
        super().__init__(spec)
        if crossbar_size <= 0 or settle_time <= 0 or adc_count <= 0 or adc_rate <= 0:
            raise ConfigurationError("crossbar parameters must be positive")
        self.crossbar_size = crossbar_size
        self.settle_time = settle_time
        self.adc_count = adc_count
        self.adc_rate = adc_rate
        self.conversion_energy = conversion_energy
        self.effective_bits = effective_bits

    # --- structural timing ---------------------------------------------------

    def mvm_time(self, n: int) -> float:
        """Time for one ``n x n`` matrix-vector multiply (weights resident).

        PUMA-class tiling assumptions: every crossbar tile carries its own
        DAC/ADC array, all tiles settle and convert **in parallel**, and
        partial sums along a tile-row are accumulated in the analog domain
        (chained crossbars), so no O(N * tiles) digital merge exists. The
        remaining size-dependent term is streaming the n input symbols
        through the (shared) tile-row drivers — O(N) — on top of the O(1)
        settle and per-tile conversion time. This is the structural content
        of the paper's O(N^2) -> O(N) claim.
        """
        if n <= 0:
            raise ValueError("matrix dimension must be positive")
        settle = self.settle_time
        per_tile_conversion = self.crossbar_size / (self.adc_count * self.adc_rate)
        input_streaming = n / (self.adc_count * self.adc_rate)
        return settle + per_tile_conversion + input_streaming

    def mvm_energy(self, n: int) -> float:
        """Energy for one ``n x n`` MVM: O(N) boundary conversions dominate.

        With analog partial-sum accumulation only the n inputs (DAC) and n
        final outputs (ADC) are converted; the analog core's power over the
        pass is charged via the idle-power floor.
        """
        if n <= 0:
            raise ValueError("matrix dimension must be positive")
        conversions = 2.0 * n
        analog_core = self.spec.idle_power * self.mvm_time(n)
        return conversions * self.conversion_energy + analog_core

    # --- Device interface -----------------------------------------------------

    def time_for(self, kernel: KernelProfile) -> float:
        if kernel.precision.bits > self.effective_bits and kernel.precision is not Precision.ANALOG:
            raise ConfigurationError(
                f"{self.name}: analog noise floor limits precision to "
                f"{self.effective_bits} bits, kernel requested {kernel.precision}"
            )
        if kernel.mvm_dimension is not None:
            n = kernel.mvm_dimension
            # Number of MVM passes implied by the kernel's total FLOPs.
            flops_per_mvm = 2.0 * n * n
            passes = max(1, round(kernel.flops / flops_per_mvm))
            return self.mvm_time(n) * passes
        # Non-MVM work falls back to the (weak) digital periphery roofline.
        analog_kernel = KernelProfile(
            flops=kernel.flops,
            bytes_moved=kernel.bytes_moved,
            precision=Precision.ANALOG,
            parallel_fraction=kernel.parallel_fraction,
        )
        return super().time_for(analog_kernel)

    def energy_for(self, kernel: KernelProfile) -> float:
        if kernel.mvm_dimension is not None:
            n = kernel.mvm_dimension
            flops_per_mvm = 2.0 * n * n
            passes = max(1, round(kernel.flops / flops_per_mvm))
            return self.mvm_energy(n) * passes
        return super().energy_for(kernel)
