"""Experiment C4 — §III.B: accelerator specialisation and the O(N) claim.

"Digital accelerators are squeezing the inefficiencies away from deep
learning algorithms ... by reducing bit precision, ... dataflow and/or
systolic computation. ... Analog 'dot-product engines' exploit combination
of Ohm and Kirchhoff laws ... Similarly, optical engines ... These are
interesting because they change an O(N^2) problem to an O(N) problem."

Part 1 — MVM sweep: time and energy of an N x N matrix-vector multiply at
INT8-equivalent precision across CPU / GPU / TPU-like / FPGA / analog DPE /
optical engine, for N in {512 .. 8192}. Expected shape: digital devices
scale ~O(N^2) in time while analog/optical scale ~O(N); the analog DPE wins
energy by orders of magnitude at large N.

Part 2 — precision ladder ablation (DESIGN.md §4): GPU throughput on a
GEMM-shaped kernel from FP64 down to INT8 ("reduced precision ... becoming
mainstream").
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.tables import Table
from repro.hardware import KernelProfile, Precision, default_catalog

SIZES = (2048, 4096, 8192, 16384, 32768)
BATCH = 256  # inference-serving batch: one pass per vector on MVM engines
DEVICES = (
    "epyc-class-cpu",
    "hpc-gpu",
    "tpu-like",
    "datacenter-fpga",
    "analog-dpe",
    "optical-mvm",
)


def mvm_kernel(n: int) -> KernelProfile:
    return KernelProfile(
        flops=2.0 * n * n * BATCH,
        bytes_moved=float(n * n) + 2.0 * BATCH * n,  # weights + I/O vectors
        precision=Precision.INT8,
        mvm_dimension=n,
    )


def run_experiment():
    catalog = default_catalog()
    rows = []
    for name in DEVICES:
        device = catalog.get(name)
        for n in SIZES:
            kernel = mvm_kernel(n)
            device.time_for(kernel)  # warm-up: absorbs FPGA reconfiguration
            rows.append(
                (
                    name,
                    n,
                    device.time_for(kernel) * 1e6,
                    device.energy_for(kernel) * 1e6,
                )
            )
    return rows


def precision_ladder():
    catalog = default_catalog()
    gpu = catalog.get("hpc-gpu")
    rows = []
    n = 4096
    for precision in (
        Precision.FP64, Precision.FP32, Precision.TF32,
        Precision.BF16, Precision.INT8,
    ):
        kernel = KernelProfile(
            flops=2.0 * n**3,
            bytes_moved=3.0 * n * n * precision.bytes,
            precision=precision,
        )
        elapsed = gpu.time_for(kernel)
        rows.append((str(precision), kernel.flops / elapsed / 1e12))
    return rows


def scaling_exponent(rows, device, sizes=SIZES):
    """Least-squares log-log slope of time vs N for one device."""
    points = [(n, t) for name, n, t, _ in rows if name == device]
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_c4_accelerator_specialization(record):
    rows = run_experiment()

    table = Table(
        "C4 (SIII.B): N x N matrix-vector multiply across accelerator classes",
        ["device", "N", "time (us)", "energy (uJ)"],
    )
    for row in rows:
        table.add_row(*row)

    ladder = precision_ladder()
    ladder_table = Table(
        "C4 ablation: GPU GEMM throughput down the precision ladder (N=4096)",
        ["precision", "achieved TFLOP/s"],
    )
    for row in ladder:
        ladder_table.add_row(*row)

    exponents = {name: scaling_exponent(rows, name) for name in DEVICES}
    exponent_lines = "\n".join(
        f"  {name}: time ~ N^{exp:.2f}" for name, exp in exponents.items()
    )
    record(
        "C4_accelerator_specialization",
        table,
        notes=(
            "Paper claim: analog/optical engines turn O(N^2) MVM into O(N).\n"
            f"Fitted scaling exponents:\n{exponent_lines}\n\n"
            + ladder_table.render()
        ),
    )

    # The headline scaling-class split.
    assert exponents["analog-dpe"] < 1.4
    assert exponents["optical-mvm"] < 1.4
    assert exponents["epyc-class-cpu"] > 1.7
    assert exponents["hpc-gpu"] > 1.5

    # Energy: the DPE wins by >= 100x over the CPU at the largest size.
    energy = {(name, n): e for name, n, _, e in rows}
    largest = SIZES[-1]
    assert energy[("epyc-class-cpu", largest)] / energy[("analog-dpe", largest)] > 100

    # Precision ladder is monotone: narrower precision, higher throughput.
    throughputs = [t for _, t in precision_ladder()]
    assert throughputs == sorted(throughputs)
