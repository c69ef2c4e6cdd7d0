"""Tests for closed-loop HPC+AI workflows (C5)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware.device import KernelProfile
from repro.hardware.precision import Precision
from repro.workloads.ai import build_mlp
from repro.workloads.hybrid import ClosedLoopWorkflow, SurrogateModel


@pytest.fixture
def workflow():
    return ClosedLoopWorkflow(
        exact_kernel=KernelProfile(flops=5e12, bytes_moved=1e10, precision=Precision.FP64),
        cheap_kernel=KernelProfile(flops=1e9, bytes_moved=1e8, precision=Precision.FP64),
        steps=100,
    )


@pytest.fixture
def surrogate():
    return SurrogateModel(model=build_mlp(hidden_dim=1024, depth=3), acceptance_rate=0.9,
                          pretrained=True)


class TestSurrogateModel:
    def test_acceptance_bounds(self):
        with pytest.raises(ConfigurationError):
            SurrogateModel(model=build_mlp(), acceptance_rate=1.5)

    def test_pretrained_costs_nothing(self, surrogate):
        assert surrogate.training_flops() == 0.0

    def test_training_cost_positive_when_not_pretrained(self):
        surrogate = SurrogateModel(model=build_mlp(), pretrained=False)
        assert surrogate.training_flops() > 0

    def test_inference_kernel_has_mvm_dimension(self, surrogate):
        kernel = surrogate.inference_kernel()
        assert kernel.mvm_dimension is not None


def speedup(workflow, simulation_device, inference_device, surrogate):
    """Baseline over surrogate-accelerated time."""
    return workflow.baseline_time(simulation_device) / workflow.surrogate_time(
        simulation_device, inference_device, surrogate
    )


class TestClosedLoop:
    def test_steps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ClosedLoopWorkflow(
                exact_kernel=KernelProfile(flops=1.0, bytes_moved=1.0),
                cheap_kernel=KernelProfile(flops=1.0, bytes_moved=1.0),
                steps=0,
            )

    def test_surrogate_speeds_up_simulation(self, workflow, surrogate, catalog):
        """§III.B: closed-loop sim+inference accelerates simulation."""
        cpu = catalog.get("epyc-class-cpu")
        tpu = catalog.get("tpu-like")
        assert speedup(workflow, cpu, tpu, surrogate) > 2.0

    def test_zero_acceptance_is_pure_overhead(self, workflow, catalog):
        cpu = catalog.get("epyc-class-cpu")
        tpu = catalog.get("tpu-like")
        useless = SurrogateModel(
            model=build_mlp(), acceptance_rate=0.0, pretrained=True
        )
        assert speedup(workflow, cpu, tpu, useless) < 1.0

    def test_speedup_monotone_in_acceptance(self, workflow, catalog):
        cpu = catalog.get("epyc-class-cpu")
        tpu = catalog.get("tpu-like")
        speedups = [
            speedup(
                workflow, cpu, tpu,
                SurrogateModel(model=build_mlp(), acceptance_rate=rate, pretrained=True),
            )
            for rate in (0.2, 0.5, 0.8, 0.95)
        ]
        assert speedups == sorted(speedups)

    def test_training_cost_reduces_speedup(self, workflow, catalog):
        cpu = catalog.get("epyc-class-cpu")
        tpu = catalog.get("tpu-like")
        pretrained = SurrogateModel(model=build_mlp(), acceptance_rate=0.9, pretrained=True)
        fresh = SurrogateModel(
            model=build_mlp(), acceptance_rate=0.9, pretrained=False,
            training_steps=10_000,
        )
        assert speedup(workflow, cpu, tpu, fresh) < speedup(
            workflow, cpu, tpu, pretrained
        )

    def test_breakeven_sensible(self, workflow, surrogate, catalog):
        cpu = catalog.get("epyc-class-cpu")
        tpu = catalog.get("tpu-like")
        breakeven = workflow.breakeven_acceptance_rate(cpu, tpu, surrogate)
        # A tiny surrogate replacing a 5 TFLOP step pays off almost always.
        assert breakeven < 0.1
