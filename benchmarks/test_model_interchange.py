"""Experiment C17 — §III.D: interchange layers hide hardware heterogeneity.

"Intermediate layers, such as ONNX, play an important interoperability role
in hiding heterogeneity of both programming environments and the underlying
hardware, for example by decoupling model training from model inference ...
analog matrix-vector multiplications based on in-memory computation map
easily into existing programming environments and can be hidden within
runtime implementations and model compilation to reduced precision
arithmetic."

Pipeline: a BF16-trained MLP surrogate is exported once to the portable
format and compiled, unchanged, for every device in the catalog. We report
execution precision (quantisation applied transparently), predicted
single-sample latency and energy, and the winner under latency vs energy
objectives.

Expected shape: every capable device serves the same artifact — the analog
engine via the ANALOG lowering, the FPGA via INT8 quantisation — with no
model change; the latency winner is a digital accelerator while the energy
winner is an analog/edge part, so the *objective*, not the model, selects
the silicon.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.core.errors import ConfigurationError
from repro.hardware import Precision, default_catalog
from repro.workloads.ai import build_mlp
from repro.workloads.interchange import (
    best_target,
    compile_for_device,
    export_model,
    from_wire,
    to_wire,
)


def run_experiment():
    catalog = default_catalog()
    portable = export_model(
        build_mlp(hidden_dim=4096, depth=4, name="surrogate"),
        trained_precision=Precision.BF16,
    )
    # Round-trip through the wire format first: the artifact that gets
    # deployed is the serialised one.
    portable = from_wire(to_wire(portable))
    rows = []
    for device in catalog:
        try:
            compile_for_device(portable, device)  # warm-up: FPGA bitstream
            compiled = compile_for_device(portable, device)
        except ConfigurationError as error:
            rows.append((device.name, "cannot serve", "-", "-", str(error)[:40]))
            continue
        rows.append(
            (
                device.name,
                str(compiled.execution_precision),
                "yes" if compiled.quantised else "no",
                compiled.inference_latency * 1e6,
                compiled.inference_energy * 1e6,
            )
        )
    latency_winner = best_target(portable, list(catalog), objective="latency")
    energy_winner = best_target(portable, list(catalog), objective="energy")
    return rows, latency_winner, energy_winner


def test_c17_model_interchange(record):
    rows, latency_winner, energy_winner = run_experiment()

    table = Table(
        "C17 (SIII.D): one portable model compiled for every silicon class",
        ["device", "execution precision", "quantised", "latency (us)",
         "energy (uJ)"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C17_model_interchange",
        table,
        notes=(
            "Paper claim: interchange formats hide hardware heterogeneity;\n"
            "analog MVM engines 'map easily' via runtime lowering and reduced\n"
            f"precision compilation. Latency winner: {latency_winner.device_name}"
            f" ({latency_winner.inference_latency * 1e6:.1f} us); energy winner: "
            f"{energy_winner.device_name} "
            f"({energy_winner.inference_energy * 1e6:.1f} uJ)."
        ),
    )

    served = {row[0]: row for row in rows if row[1] != "cannot serve"}
    # Every device in the catalog serves the artifact.
    assert len(served) == 8
    # The analog engine serves via the ANALOG lowering; the FPGA quantised.
    assert served["analog-dpe"][1] == "analog"
    assert served["datacenter-fpga"][2] == "yes"
    # The neuromorphic engines win energy by orders of magnitude over the
    # GPU that trained the model — without touching the artifact.
    assert energy_winner.device_name in ("analog-dpe", "optical-mvm")
    gpu_energy = served["hpc-gpu"][4]
    assert gpu_energy / energy_winner.inference_energy / 1e6 > 100
    # And the latency winner is a specialised part, never the plain CPU.
    assert latency_winner.device_name != "epyc-class-cpu"
