"""ONNX-like model interchange: decoupling training from inference.

The paper (§III.D): "Intermediate layers, such as ONNX, play an important
interoperability role in hiding heterogeneity of both programming
environments and the underlying hardware, for example by decoupling model
training from model inference. When it comes to emerging accelerators ...
approaches such as analog matrix-vector multiplications based on in-memory
computation map easily into existing programming environments and can be
hidden within runtime implementations and model compilation to reduced
precision arithmetic."

This module provides:

* :class:`PortableModel` — a serialisable, framework-neutral model graph
  (the ONNX analogue), exported from an :class:`~repro.workloads.ai.AIModel`,
* :func:`export_model` (from an ``AIModel``) and :func:`to_wire` /
  :func:`from_wire` — a lossless round-trip through a plain-dict wire
  format,
* :class:`CompiledModel` / :func:`compile_for_device` — lowering a portable
  model onto a concrete device: choosing the execution precision down the
  ladder (quantisation), mapping MVM-shaped layers onto analog/optical
  engines, and reporting expected latency/energy so runtimes can pick
  silicon transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, KernelProfile
from repro.hardware.precision import Precision, narrower_precisions
from repro.workloads.ai import AIModel

#: Wire-format version; importers reject unknown majors.
FORMAT_VERSION = "1.0"


@dataclass(frozen=True)
class PortableLayer:
    """One layer in the interchange graph."""

    name: str
    op: str          # 'gemm' is the only op the cost model needs
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.op != "gemm":
            raise ConfigurationError(f"unsupported op {self.op!r}")
        if min(self.m, self.k, self.n) <= 0:
            raise ConfigurationError(f"{self.name}: bad dimensions")


@dataclass(frozen=True)
class PortableModel:
    """A framework-neutral model graph (the ONNX analogue)."""

    name: str
    layers: Tuple[PortableLayer, ...]
    trained_precision: Precision
    sparsity: float = 0.0
    metadata: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError("portable model needs layers")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigurationError("sparsity must be in [0, 1)")

    @property
    def parameter_count(self) -> int:
        return sum(layer.k * layer.n for layer in self.layers)


def export_model(
    model: AIModel,
    trained_precision: Precision = Precision.BF16,
    metadata: Optional[Dict[str, str]] = None,
) -> PortableModel:
    """Export an :class:`AIModel` into the interchange format."""
    layers = tuple(
        PortableLayer(name=l.name, op="gemm", m=l.m, k=l.k, n=l.n)
        for l in model.layers
    )
    return PortableModel(
        name=model.name,
        layers=layers,
        trained_precision=trained_precision,
        sparsity=model.sparsity,
        metadata=tuple(sorted((metadata or {}).items())),
    )


def to_wire(model: PortableModel) -> Dict:
    """Serialise to the plain-dict wire format (JSON-compatible)."""
    return {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "trained_precision": model.trained_precision.name,
        "sparsity": model.sparsity,
        "metadata": dict(model.metadata),
        "layers": [
            {"name": l.name, "op": l.op, "m": l.m, "k": l.k, "n": l.n}
            for l in model.layers
        ],
    }


def from_wire(payload: Dict) -> PortableModel:
    """Deserialise the wire format; rejects unknown major versions."""
    version = str(payload.get("format_version", ""))
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise ConfigurationError(f"unsupported format version {version!r}")
    layers = tuple(
        PortableLayer(
            name=entry["name"], op=entry["op"],
            m=int(entry["m"]), k=int(entry["k"]), n=int(entry["n"]),
        )
        for entry in payload["layers"]
    )
    return PortableModel(
        name=payload["name"],
        layers=layers,
        trained_precision=Precision[payload["trained_precision"]],
        sparsity=float(payload.get("sparsity", 0.0)),
        metadata=tuple(sorted(dict(payload.get("metadata", {})).items())),
    )


@dataclass(frozen=True)
class CompiledModel:
    """A portable model lowered onto one device.

    Attributes
    ----------
    portable:
        The source graph.
    device_name:
        Target device.
    execution_precision:
        The precision actually executed (possibly quantised below the
        trained precision).
    quantised:
        Whether lowering narrowed the precision.
    inference_latency / inference_energy:
        Predicted single-sample forward cost on the target.
    """

    portable: PortableModel
    device_name: str
    execution_precision: Precision
    quantised: bool
    inference_latency: float
    inference_energy: float


def compile_for_device(
    portable: PortableModel,
    device: Device,
    allow_quantisation: bool = True,
) -> CompiledModel:
    """Lower a portable model onto a device.

    Picks the widest supported precision at or below the trained precision
    (the "model compilation to reduced precision arithmetic" of §III.D);
    the ANALOG pseudo-precision is used for crossbar/photonic engines. MVM
    dimension is forwarded so analog engines apply their O(N) cost model —
    the mapping that "can be hidden within runtime implementations".
    """
    precision = _execution_precision(portable.trained_precision, device,
                                     allow_quantisation)
    if precision is None:
        raise ConfigurationError(
            f"{device.name} cannot execute {portable.name} "
            f"(trained {portable.trained_precision}, quantisation "
            f"{'allowed' if allow_quantisation else 'forbidden'})"
        )
    density = 1.0 - portable.sparsity
    latency = 0.0
    energy = 0.0
    for layer in portable.layers:
        flops = 2.0 * layer.m * layer.k * layer.n * density
        weight_bytes = layer.k * layer.n * precision.bytes * density
        kernel = KernelProfile(
            flops=flops,
            bytes_moved=weight_bytes + (layer.m * layer.n + layer.m * layer.k)
            * precision.bytes,
            precision=precision,
            mvm_dimension=max(layer.k, layer.n) if layer.m == 1 else None,
        )
        latency += device.time_for(kernel)
        energy += device.energy_for(kernel)
    return CompiledModel(
        portable=portable,
        device_name=device.name,
        execution_precision=precision,
        quantised=precision is not portable.trained_precision,
        inference_latency=latency,
        inference_energy=energy,
    )


def _execution_precision(
    trained: Precision, device: Device, allow_quantisation: bool
) -> Optional[Precision]:
    if device.supports(trained):
        return trained
    if not allow_quantisation:
        return None
    for candidate in narrower_precisions(trained):
        if device.supports(candidate):
            return candidate
    if device.supports(Precision.ANALOG):
        return Precision.ANALOG
    return None


def best_target(
    portable: PortableModel,
    devices: List[Device],
    objective: str = "latency",
) -> CompiledModel:
    """Compile for every capable device and return the best by objective.

    ``objective`` is ``'latency'`` or ``'energy'`` — the transparent
    silicon selection of §III.F applied to inference serving.
    """
    if objective not in ("latency", "energy"):
        raise ConfigurationError(f"unknown objective {objective!r}")
    compiled: List[CompiledModel] = []
    for device in devices:
        try:
            compiled.append(compile_for_device(portable, device))
        except ConfigurationError:
            continue
    if not compiled:
        raise ConfigurationError(f"no device can serve {portable.name}")
    key = (
        (lambda c: c.inference_latency)
        if objective == "latency"
        else (lambda c: c.inference_energy)
    )
    return min(compiled, key=key)
