"""Tests for the ONNX-like model interchange (§III.D)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware.precision import Precision
from repro.workloads.ai import build_mlp, build_transformer
from repro.workloads.interchange import (
    FORMAT_VERSION,
    PortableLayer,
    best_target,
    compile_for_device,
    export_model,
    from_wire,
    to_wire,
)


@pytest.fixture
def portable():
    return export_model(build_mlp(hidden_dim=2048, depth=3),
                        trained_precision=Precision.BF16,
                        metadata={"framework": "repro", "epoch": "12"})


class TestExportImport:
    def test_wire_round_trip(self, portable):
        payload = to_wire(portable)
        assert payload["format_version"] == FORMAT_VERSION
        restored = from_wire(payload)
        assert restored == portable

    def test_wire_is_json_compatible(self, portable):
        import json
        text = json.dumps(to_wire(portable))
        restored = from_wire(json.loads(text))
        assert restored.parameter_count == portable.parameter_count

    def test_unknown_version_rejected(self, portable):
        payload = to_wire(portable)
        payload["format_version"] = "2.0"
        with pytest.raises(ConfigurationError):
            from_wire(payload)

    def test_sparsity_preserved(self):
        sparse = build_mlp(sparsity=0.8)
        assert export_model(sparse).sparsity == 0.8

    def test_unsupported_op_rejected(self):
        with pytest.raises(ConfigurationError):
            PortableLayer("conv", op="conv2d", m=1, k=1, n=1)


class TestCompile:
    def test_native_precision_kept(self, portable, catalog):
        gpu = catalog.get("hpc-gpu")
        compiled = compile_for_device(portable, gpu)
        assert compiled.execution_precision is Precision.BF16
        assert not compiled.quantised
        assert compiled.inference_latency > 0
        assert compiled.inference_energy > 0

    def test_quantisation_down_the_ladder(self, catalog):
        fpga = catalog.get("datacenter-fpga")  # INT8/INT4/FP32, no BF16
        portable = export_model(build_mlp(), trained_precision=Precision.BF16)
        compiled = compile_for_device(portable, fpga)
        assert compiled.quantised
        assert compiled.execution_precision.bits <= 8

    def test_analog_lowering(self, catalog):
        dpe = catalog.get("analog-dpe")
        portable = export_model(build_mlp(), trained_precision=Precision.BF16)
        compiled = compile_for_device(portable, dpe)
        assert compiled.execution_precision is Precision.ANALOG

    def test_quantisation_forbidden_raises(self, catalog):
        fpga = catalog.get("datacenter-fpga")
        portable = export_model(build_mlp(), trained_precision=Precision.BF16)
        with pytest.raises(ConfigurationError):
            compile_for_device(portable, fpga, allow_quantisation=False)

    def test_sparsity_reduces_cost(self, catalog):
        # Use the CPU: its model has no occupancy floor, so the 10x FLOP
        # and weight-byte reduction shows directly.
        cpu = catalog.get("epyc-class-cpu")
        dense = compile_for_device(export_model(build_mlp()), cpu)
        sparse = compile_for_device(export_model(build_mlp(sparsity=0.9)), cpu)
        assert sparse.inference_latency < dense.inference_latency


class TestBestTarget:
    def test_latency_objective(self, catalog):
        portable = export_model(build_mlp(hidden_dim=4096))
        winner = best_target(portable, list(catalog), objective="latency")
        # Any specialised part may win, but never the plain CPU.
        assert winner.device_name != "epyc-class-cpu"

    def test_energy_objective_prefers_analog(self, catalog):
        portable = export_model(build_mlp(hidden_dim=2048, depth=3))
        winner = best_target(portable, list(catalog), objective="energy")
        assert winner.device_name in ("analog-dpe", "optical-mvm", "edge-npu",
                                      "tpu-like")

    def test_unknown_objective_rejected(self, catalog):
        portable = export_model(build_mlp())
        with pytest.raises(ConfigurationError):
            best_target(portable, list(catalog), objective="beauty")

    def test_no_capable_device_raises(self, catalog):
        portable = export_model(
            build_transformer(depth=1), trained_precision=Precision.FP64
        )
        dpe = catalog.get("analog-dpe")
        # FP64-trained, quantisation allowed -> analog CAN serve it; force
        # the failure with an empty device list instead.
        with pytest.raises(ConfigurationError):
            best_target(portable, [], objective="latency")
