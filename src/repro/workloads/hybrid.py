"""Closed-loop HPC+AI workflows.

The paper (§III.B): accelerators will enable "closed-loop combinations of
classical simulation and deep-learning inference (to accelerate some
simulation steps)".

:class:`ClosedLoopWorkflow` models a simulation whose expensive inner step
(e.g. a chemistry kernel or a subgrid model) can be replaced by a trained
:class:`SurrogateModel` with some probability of falling back to the exact
computation (trust-region / uncertainty gating). The experiment sweeps the
surrogate substitution rate and measures end-to-end speedup against the
paper's qualitative claim that the combination "significantly improves
HPC".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, KernelProfile
from repro.workloads.ai import AIModel
from repro.hardware.precision import Precision


@dataclass
class SurrogateModel:
    """A trained DL surrogate for an expensive simulation step.

    Attributes
    ----------
    model:
        The network evaluated per inference.
    acceptance_rate:
        Fraction of steps where the surrogate's uncertainty check passes
        and its output is used; the remainder falls back to exact compute.
    training_steps / training_batch:
        One-off training cost charged to the workflow when
        ``pretrained=False``.
    """

    model: AIModel
    acceptance_rate: float = 0.9
    training_steps: int = 1000
    training_batch: int = 256
    pretrained: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ConfigurationError("acceptance_rate must be in [0, 1]")
        if self.training_steps < 0 or self.training_batch <= 0:
            raise ConfigurationError("invalid training parameters")

    def inference_kernel(self, precision: Precision = Precision.INT8) -> KernelProfile:
        """The per-step inference kernel."""
        largest = max(self.model.layers, key=lambda l: l.k * l.n)
        return KernelProfile(
            flops=self.model.forward_flops(batch=1),
            bytes_moved=self.model.parameter_bytes(precision),
            precision=precision,
            mvm_dimension=max(largest.k, largest.n),
        )

    def training_flops(self) -> float:
        """Total one-off training cost in FLOPs (0 when pretrained)."""
        if self.pretrained:
            return 0.0
        return self.training_steps * self.model.training_step_flops(self.training_batch)


@dataclass
class ClosedLoopWorkflow:
    """A simulation loop with an optional surrogate for the expensive step.

    Attributes
    ----------
    exact_kernel:
        The exact physics kernel executed when no surrogate (or a rejected
        surrogate prediction) applies.
    cheap_kernel:
        Per-step bookkeeping work that always runs (time integration,
        boundary handling).
    steps:
        Number of simulation steps.
    """

    exact_kernel: KernelProfile
    cheap_kernel: KernelProfile
    steps: int

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ConfigurationError("steps must be positive")

    def baseline_time(self, device: Device) -> float:
        """Run every step exactly on ``device`` (no surrogate)."""
        per_step = device.time_for(self.exact_kernel) + device.time_for(self.cheap_kernel)
        return self.steps * per_step

    def surrogate_time(
        self,
        simulation_device: Device,
        inference_device: Device,
        surrogate: SurrogateModel,
        training_device: Optional[Device] = None,
        precision: Precision = Precision.INT8,
    ) -> float:
        """End-to-end time with the surrogate in the loop.

        Every step runs the cheap kernel plus one surrogate inference; a
        fraction ``1 - acceptance_rate`` additionally falls back to the
        exact kernel. Training cost (if not pretrained) is charged up front
        on ``training_device`` (defaults to the simulation device).
        """
        inference = surrogate.inference_kernel(precision)
        per_step = (
            simulation_device.time_for(self.cheap_kernel)
            + inference_device.time_for(inference)
            + (1.0 - surrogate.acceptance_rate)
            * simulation_device.time_for(self.exact_kernel)
        )
        loop_time = self.steps * per_step
        training_flops = surrogate.training_flops()
        if training_flops > 0:
            trainer = training_device or simulation_device
            training_kernel = KernelProfile(
                flops=training_flops,
                bytes_moved=surrogate.model.parameter_bytes(Precision.BF16) * 3,
                precision=(
                    Precision.BF16
                    if trainer.supports(Precision.BF16)
                    else Precision.FP32
                ),
            )
            loop_time += trainer.time_for(training_kernel)
        return loop_time

    def breakeven_acceptance_rate(
        self,
        simulation_device: Device,
        inference_device: Device,
        surrogate: SurrogateModel,
        precision: Precision = Precision.INT8,
    ) -> float:
        """Minimum acceptance rate at which the surrogate pays off.

        Solves ``surrogate_time == baseline_time`` for the acceptance rate,
        ignoring training cost (amortised to zero over long runs). Returns a
        value possibly outside [0, 1]: > 1 means the surrogate can never
        win (its inference costs more than the exact step), < 0 means it
        always wins.
        """
        exact = simulation_device.time_for(self.exact_kernel)
        inference = inference_device.time_for(surrogate.inference_kernel(precision))
        if exact == 0:
            return float("inf")
        return inference / exact
