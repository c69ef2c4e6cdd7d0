"""Experiment C5 — §III.B: closed-loop simulation + DL inference.

"The combination of these two types of accelerators will significantly
improve HPC by enabling closed-loop combinations of classical simulation
and deep-learning inference (to accelerate some simulation steps)."

A simulation loop whose expensive step can be replaced by a surrogate
(trust-region gated: rejected predictions fall back to the exact kernel)
is swept over the surrogate acceptance rate and the inference device.

Expected shape: speedup grows monotonically with acceptance rate; at the
paper-typical 90% acceptance the loop runs several times faster; dedicated
inference silicon (TPU-like / analog DPE) beats running the surrogate on
the host CPU; the breakeven acceptance rate is tiny because inference
costs orders of magnitude less than the exact step.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.hardware import KernelProfile, Precision, default_catalog
from repro.workloads.ai import build_mlp
from repro.workloads.hybrid import ClosedLoopWorkflow, SurrogateModel

ACCEPTANCE_RATES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
INFERENCE_DEVICES = ("epyc-class-cpu", "tpu-like", "analog-dpe")


def build_workflow():
    return ClosedLoopWorkflow(
        exact_kernel=KernelProfile(
            flops=5e12, bytes_moved=2e10, precision=Precision.FP64
        ),
        cheap_kernel=KernelProfile(
            flops=5e9, bytes_moved=5e8, precision=Precision.FP64
        ),
        steps=1000,
    )


def build_surrogate(acceptance_rate):
    return SurrogateModel(
        model=build_mlp(hidden_dim=2048, depth=4),
        acceptance_rate=acceptance_rate,
        pretrained=True,
    )


def run_experiment():
    catalog = default_catalog()
    workflow = build_workflow()
    cpu = catalog.get("epyc-class-cpu")
    baseline = workflow.baseline_time(cpu)
    rows = []
    for device_name in INFERENCE_DEVICES:
        inference_device = catalog.get(device_name)
        for rate in ACCEPTANCE_RATES:
            surrogate = build_surrogate(rate)
            accelerated = workflow.surrogate_time(cpu, inference_device, surrogate)
            rows.append((device_name, rate, baseline / accelerated))
    return baseline, rows


def test_c5_closed_loop_hybrid(record):
    baseline, rows = run_experiment()

    table = Table(
        "C5 (SIII.B): closed-loop sim+AI speedup vs surrogate acceptance rate",
        ["inference device", "acceptance rate", "end-to-end speedup"],
    )
    for row in rows:
        table.add_row(*row)

    catalog = default_catalog()
    workflow = build_workflow()
    breakeven = workflow.breakeven_acceptance_rate(
        catalog.get("epyc-class-cpu"),
        catalog.get("tpu-like"),
        build_surrogate(0.9),
    )
    record(
        "C5_closed_loop_hybrid",
        table,
        notes=(
            f"CPU-only exact baseline: {baseline:.1f} s for 1000 steps.\n"
            f"Breakeven acceptance rate (TPU inference): {breakeven:.4f} —\n"
            "the surrogate pays off at essentially any useful accuracy.\n"
            "Paper claim: closed-loop sim+inference 'significantly improves\n"
            "HPC'; expected monotone speedup, >= 3x at 90% acceptance."
        ),
    )

    speedups = {(device, rate): s for device, rate, s in rows}
    for device in INFERENCE_DEVICES:
        series = [speedups[(device, rate)] for rate in ACCEPTANCE_RATES]
        assert series == sorted(series)  # monotone in acceptance
    assert speedups[("tpu-like", 0.9)] > 3.0
    assert speedups[("analog-dpe", 0.9)] >= speedups[("epyc-class-cpu", 0.9)] * 0.95
    assert breakeven < 0.05
