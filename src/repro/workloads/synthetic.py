"""GAN-based synthetic data generation for the data foundation.

The paper (§V): "AI will accelerate simulations in HPC, enable use of GANs
for synthetic data, improve imaging and many other applications." Synthetic
data matters to the HPC data story because experimental data is "largely
unlabeled" and scarce (§III.A); a generator trained at the core can
populate the data foundation with labelled surrogate datasets.

Model
-----
A :class:`GanPair` couples a generator and a discriminator (both GEMM
graphs); :meth:`GanPair.training_job` builds the adversarial training job
(both networks trained per step) and :meth:`GanPair.generation_job` the
bulk sampling job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.hardware.device import KernelProfile
from repro.hardware.precision import Precision
from repro.workloads.ai import AIModel, build_mlp
from repro.workloads.base import Job, JobClass, Phase, PhaseKind, Task


@dataclass(frozen=True)
class GanPair:
    """A generator/discriminator pair.

    Attributes
    ----------
    generator / discriminator:
        The two networks.
    sample_bytes:
        Size of one generated sample (image, event record, ...).
    """

    generator: AIModel
    discriminator: AIModel
    sample_bytes: float

    def __post_init__(self) -> None:
        if self.sample_bytes <= 0:
            raise ConfigurationError("sample_bytes must be positive")

    def training_step_flops(self, batch: int) -> float:
        """One adversarial step: G forward+backward twice (generator and
        discriminator passes) plus D forward+backward on real and fake."""
        generator = self.generator.training_step_flops(batch)
        discriminator = 2.0 * self.discriminator.training_step_flops(batch)
        return generator + discriminator

    def training_job(
        self,
        batch: int,
        steps: int,
        ranks: int = 1,
        precision: Precision = Precision.BF16,
        real_dataset: Optional[str] = None,
        real_bytes: float = 0.0,
    ) -> Job:
        """The adversarial training job (data parallel, all-reduce/step)."""
        if batch < ranks or steps <= 0:
            raise ConfigurationError("need batch >= ranks and steps > 0")
        local_batch = batch // ranks
        flops = self.training_step_flops(local_batch)
        parameter_bytes = (
            self.generator.parameter_bytes(precision)
            + self.discriminator.parameter_bytes(precision)
        )
        kernel = KernelProfile(
            flops=flops,
            bytes_moved=3.0 * parameter_bytes,
            precision=precision,
        )
        task = Task(
            name="gan-train-step",
            ranks=ranks,
            phases=[
                Phase(kind=PhaseKind.COMPUTE, kernel=kernel),
                Phase(
                    kind=PhaseKind.COMMUNICATION,
                    comm_bytes=2.0 * parameter_bytes,
                    sync=True,
                ),
            ],
        )
        return Job(
            name=f"{self.generator.name}-gan-training",
            job_class=JobClass.ML_TRAINING,
            tasks=[task],
            iterations=steps,
            precision=precision,
            input_dataset=real_dataset,
            input_bytes=real_bytes,
        )

    def generation_job(
        self,
        samples: int,
        batch: int = 64,
        precision: Precision = Precision.INT8,
    ) -> Job:
        """Bulk sampling: generator forward passes plus sample I/O."""
        if samples <= 0 or batch <= 0:
            raise ConfigurationError("samples and batch must be positive")
        flops = self.generator.forward_flops(batch)
        largest = max(self.generator.layers, key=lambda l: l.k * l.n)
        kernel = KernelProfile(
            flops=flops,
            bytes_moved=self.generator.parameter_bytes(precision)
            + batch * self.sample_bytes,
            precision=precision,
            mvm_dimension=max(largest.k, largest.n),
        )
        batches = max(1, samples // batch)
        task = Task(
            name="gan-sample-batch",
            ranks=1,
            phases=[
                Phase(kind=PhaseKind.COMPUTE, kernel=kernel),
                Phase(kind=PhaseKind.IO, io_bytes=batch * self.sample_bytes),
            ],
        )
        return Job(
            name=f"{self.generator.name}-generation",
            job_class=JobClass.ML_INFERENCE,
            tasks=[task],
            iterations=batches,
            precision=precision,
        )


def build_gan(
    latent_dim: int = 128,
    sample_dim: int = 4096,
    hidden_dim: int = 2048,
    sample_bytes: float = 64e3,
    name: str = "gan",
) -> GanPair:
    """A DCGAN-scale generator/discriminator pair as MLP graphs."""
    generator = build_mlp(
        input_dim=latent_dim, hidden_dim=hidden_dim, depth=3,
        output_dim=sample_dim, name=f"{name}-generator",
    )
    discriminator = build_mlp(
        input_dim=sample_dim, hidden_dim=hidden_dim, depth=3,
        output_dim=1, name=f"{name}-discriminator",
    )
    return GanPair(
        generator=generator, discriminator=discriminator,
        sample_bytes=sample_bytes,
    )
