"""Coherent-photonics matrix-multiply engine.

The paper (§III.B): "optical engines exploit properties of coherent
photonics to implement a matrix multiplication", the second "neuromorphic"
class alongside analog crossbars, also turning O(N^2) MACs into an O(N)
operation.

Model
-----
A Mach-Zehnder-interferometer (MZI) mesh of size ``N x N`` applies a unitary
transform to N wavelength channels *at the speed of light through the mesh*:
per-pass latency is the optical propagation delay (picoseconds, essentially
size independent at chip scale) plus O(N) electro-optic modulation and
photodetection at the boundary. Static power is high (lasers and thermal
phase tuning run continuously) but marginal energy per MAC is tiny, so the
engine wins at high utilisation and large N — and loses badly when idle.
"""

from __future__ import annotations

import math

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision


class OpticalMVMEngine(Device):
    """A photonic MVM engine built from an MZI mesh.

    Parameters
    ----------
    spec:
        Device spec (kind must be ``OPTICAL``). ``idle_power`` should model
        the laser + thermal-tuning floor, which dominates total power.
    mesh_size:
        Ports of the MZI mesh (one tile handles a ``mesh_size`` vector).
    modulation_rate:
        Electro-optic modulator symbol rate, symbols/s (sets the O(N)
        boundary-conversion throughput).
    propagation_delay:
        Light transit time through the mesh, seconds.
    detection_energy:
        Joules per modulated/detected symbol.
    effective_bits:
        Equivalent digital precision limited by shot noise and crosstalk.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        mesh_size: int = 64,
        modulation_rate: float = 10e9,
        propagation_delay: float = 50e-12,
        detection_energy: float = 0.5e-12,
        effective_bits: int = 8,
    ) -> None:
        if spec.kind is not DeviceKind.OPTICAL:
            raise ValueError(f"optical model requires OPTICAL spec, got {spec.kind}")
        super().__init__(spec)
        if mesh_size <= 0 or modulation_rate <= 0 or propagation_delay <= 0:
            raise ConfigurationError("mesh parameters must be positive")
        self.mesh_size = mesh_size
        self.modulation_rate = modulation_rate
        self.propagation_delay = propagation_delay
        self.detection_energy = detection_energy
        self.effective_bits = effective_bits

    def mvm_time(self, n: int) -> float:
        """One ``n x n`` MVM: O(N) boundary conversion + O(1) propagation.

        Each input symbol is modulated once and fanned out across tile-rows
        optically (beam splitting costs no time); each output is detected
        once. Only propagation grows (weakly) with the tile count.
        """
        if n <= 0:
            raise ValueError("dimension must be positive")
        per_side = math.ceil(n / self.mesh_size)
        modulation = n / self.modulation_rate
        detection = n / self.modulation_rate
        return modulation + detection + self.propagation_delay * per_side

    def mvm_energy(self, n: int) -> float:
        """Marginal energy (O(N) conversions) + static laser floor."""
        if n <= 0:
            raise ValueError("dimension must be positive")
        conversions = 2.0 * n
        static = self.spec.idle_power * self.mvm_time(n)
        return conversions * self.detection_energy + static

    def time_for(self, kernel: KernelProfile) -> float:
        if kernel.precision.bits > self.effective_bits and kernel.precision is not Precision.ANALOG:
            raise ConfigurationError(
                f"{self.name}: photonic noise floor limits precision to "
                f"{self.effective_bits} bits, kernel requested {kernel.precision}"
            )
        if kernel.mvm_dimension is not None:
            n = kernel.mvm_dimension
            flops_per_mvm = 2.0 * n * n
            passes = max(1, round(kernel.flops / flops_per_mvm))
            return self.mvm_time(n) * passes
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
