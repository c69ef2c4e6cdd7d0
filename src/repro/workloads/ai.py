"""AI model workloads: layer shapes, training and inference jobs.

The paper treats AI as the dominant new HPC workload (Figure 1, §III.A).
An :class:`AIModel` is a list of :class:`LayerShape` GEMMs; from it we
derive training-step and inference jobs whose FLOP/byte/communication
structure feeds the scheduler and accelerator models. ``sparsity`` models
the paper's observation that "HPC data sets tend to be sparse" and that
accelerators exploit "model sparsity" (§III.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.hardware.device import KernelProfile
from repro.hardware.precision import Precision
from repro.workloads.base import Job, JobClass, Phase, PhaseKind, Task


@dataclass(frozen=True)
class LayerShape:
    """One layer expressed as a GEMM: ``(m x k) @ (k x n)``.

    ``m`` is the batch/spatial dimension; ``k x n`` are the weights.
    """

    name: str
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ConfigurationError(f"layer {self.name}: dimensions must be positive")

    @property
    def weight_count(self) -> int:
        return self.k * self.n

    def forward_flops(self, batch: int = 1) -> float:
        """Multiply-accumulate FLOPs for a forward pass."""
        return 2.0 * self.m * self.k * self.n * batch

    def backward_flops(self, batch: int = 1) -> float:
        """Backward pass is ~2x forward (grad wrt inputs and weights)."""
        return 2.0 * self.forward_flops(batch)


@dataclass
class AIModel:
    """A neural network as an ordered sequence of GEMM layers."""

    name: str
    layers: Sequence[LayerShape]
    sparsity: float = 0.0  # fraction of zero weights exploitable by hardware

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError(f"model {self.name} has no layers")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigurationError("sparsity must be in [0, 1)")

    @property
    def parameter_count(self) -> int:
        return sum(layer.weight_count for layer in self.layers)

    def parameter_bytes(self, precision: Precision) -> float:
        return self.parameter_count * precision.bytes

    @property
    def density(self) -> float:
        """Fraction of weights that are non-zero."""
        return 1.0 - self.sparsity

    def forward_flops(self, batch: int = 1) -> float:
        """Dense-equivalent forward FLOPs scaled by density."""
        return self.density * sum(l.forward_flops(batch) for l in self.layers)

    def training_step_flops(self, batch: int) -> float:
        """Forward + backward FLOPs for one minibatch."""
        return self.density * sum(
            l.forward_flops(batch) + l.backward_flops(batch) for l in self.layers
        )

    def _step_shape(
        self, local_batch: int, precision: Precision
    ) -> Tuple[float, float, float]:
        """One training step's compute FLOPs, bytes moved and gradient
        all-reduce bytes (ring: ~2x parameter bytes)."""
        flops = self.training_step_flops(local_batch)
        activation_bytes = sum(l.m * l.n for l in self.layers) * local_batch * precision.bytes
        parameter_bytes = self.parameter_bytes(precision)
        return flops, 3.0 * parameter_bytes + activation_bytes, 2.0 * parameter_bytes

    # --- job builders --------------------------------------------------------

    def training_job(
        self,
        batch: int,
        steps: int,
        ranks: int = 1,
        precision: Precision = Precision.BF16,
        input_dataset: Optional[str] = None,
        input_bytes: float = 0.0,
    ) -> Job:
        """A data-parallel training job.

        Each step: compute (fwd+bwd over the local shard of the batch),
        then an all-reduce of gradients (ring: ~2x parameter bytes),
        synchronising all ranks — the "bulk-data all reduction operations
        used in training" the paper wants offloaded to the network (§III.C).
        """
        if batch < ranks:
            raise ConfigurationError("batch must be >= ranks for data parallelism")
        if steps <= 0:
            raise ConfigurationError("steps must be positive")
        local_batch = batch // ranks
        if isinstance(self.layers, tuple):
            # Immutable layers, which traces share between models: their
            # sums are taken once per local batch and precision.
            shape = _shared_step_shape(
                self.layers, self.sparsity, local_batch, precision
            )
        else:
            shape = self._step_shape(local_batch, precision)
        flops, bytes_moved, allreduce_bytes = shape
        kernel = KernelProfile(
            flops=flops, bytes_moved=bytes_moved, precision=precision
        )
        task = Task(
            name=f"{self.name}-train-step",
            ranks=ranks,
            phases=[
                Phase(kind=PhaseKind.COMPUTE, kernel=kernel),
                Phase(kind=PhaseKind.COMMUNICATION, comm_bytes=allreduce_bytes, sync=True),
            ],
        )
        return Job(
            name=f"{self.name}-training",
            job_class=JobClass.ML_TRAINING,
            tasks=[task],
            iterations=steps,
            precision=precision,
            input_dataset=input_dataset,
            input_bytes=input_bytes,
        )

    def inference_job(
        self,
        requests: int,
        batch: int = 1,
        precision: Precision = Precision.INT8,
        input_dataset: Optional[str] = None,
        input_bytes: float = 0.0,
    ) -> Job:
        """A (batched) inference job of ``requests`` forward passes.

        The largest layer dimension is exported as ``mvm_dimension`` so
        analog/optical engines can apply their O(N) MVM cost model.
        """
        if requests <= 0 or batch <= 0:
            raise ConfigurationError("requests and batch must be positive")
        flops = self.forward_flops(batch)
        bytes_moved = self.parameter_bytes(precision) + sum(
            l.m * l.n for l in self.layers
        ) * batch * precision.bytes
        largest = max(self.layers, key=lambda l: l.k * l.n)
        mvm_dim = max(largest.k, largest.n)
        kernel = KernelProfile(
            flops=flops,
            bytes_moved=bytes_moved,
            precision=precision,
            mvm_dimension=mvm_dim,
        )
        batches = max(1, requests // batch)
        task = Task(
            name=f"{self.name}-inference-batch",
            ranks=1,
            phases=[Phase(kind=PhaseKind.COMPUTE, kernel=kernel)],
        )
        return Job(
            name=f"{self.name}-inference",
            job_class=JobClass.ML_INFERENCE,
            tasks=[task],
            iterations=batches,
            precision=precision,
            input_dataset=input_dataset,
            input_bytes=input_bytes,
        )


@lru_cache(maxsize=64)
def _shared_step_shape(
    layers: Tuple[LayerShape, ...],
    sparsity: float,
    local_batch: int,
    precision: Precision,
) -> Tuple[float, float, float]:
    """:meth:`AIModel._step_shape` of a model on immutable ``layers``,
    computed once per argument set."""
    return AIModel("shared", layers, sparsity)._step_shape(local_batch, precision)


def build_mlp(
    input_dim: int = 1024,
    hidden_dim: int = 4096,
    depth: int = 4,
    output_dim: int = 64,
    name: str = "mlp",
    sparsity: float = 0.0,
) -> AIModel:
    """A plain multilayer perceptron (surrogate-model shape)."""
    if depth < 1:
        raise ConfigurationError("depth must be >= 1")
    layers = [LayerShape(f"{name}-in", 1, input_dim, hidden_dim)]
    for index in range(depth - 1):
        layers.append(LayerShape(f"{name}-h{index}", 1, hidden_dim, hidden_dim))
    layers.append(LayerShape(f"{name}-out", 1, hidden_dim, output_dim))
    return AIModel(name=name, layers=layers, sparsity=sparsity)


def build_cnn(
    image_size: int = 224,
    base_channels: int = 64,
    stages: int = 4,
    name: str = "cnn",
    sparsity: float = 0.0,
) -> AIModel:
    """A ResNet-ish CNN: convolutions expressed as im2col GEMMs."""
    if stages < 1:
        raise ConfigurationError("stages must be >= 1")
    layers = []
    spatial = image_size
    channels_in = 3
    channels_out = base_channels
    for stage in range(stages):
        spatial_positions = max(1, spatial * spatial)
        layers.append(
            LayerShape(
                f"{name}-conv{stage}",
                m=spatial_positions,
                k=channels_in * 9,       # 3x3 kernels
                n=channels_out,
            )
        )
        channels_in = channels_out
        channels_out *= 2
        spatial = max(1, spatial // 2)
    layers.append(LayerShape(f"{name}-fc", m=1, k=channels_in, n=1000))
    return AIModel(name=name, layers=layers, sparsity=sparsity)


def build_transformer(
    hidden_dim: int = 1024,
    depth: int = 12,
    sequence_length: int = 512,
    name: str = "transformer",
    sparsity: float = 0.0,
) -> AIModel:
    """A transformer encoder: attention projections + MLP blocks as GEMMs."""
    if depth < 1:
        raise ConfigurationError("depth must be >= 1")
    layers = []
    for block in range(depth):
        layers.append(LayerShape(f"{name}-qkv{block}", sequence_length, hidden_dim, 3 * hidden_dim))
        layers.append(LayerShape(f"{name}-attn-out{block}", sequence_length, hidden_dim, hidden_dim))
        layers.append(LayerShape(f"{name}-mlp-up{block}", sequence_length, hidden_dim, 4 * hidden_dim))
        layers.append(LayerShape(f"{name}-mlp-down{block}", sequence_length, 4 * hidden_dim, hidden_dim))
    return AIModel(name=name, layers=layers, sparsity=sparsity)
