"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest perfbench -q

Run from the root of a checkout.  They pin the default-seed burst digest
and sweep fingerprint, check a held-out seed, keep the benchmark on the
stable surface, and drive ``run.py`` end to end on the serve workload.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import work  # noqa: E402
from spans import SpanRecorder, layer_table  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Digest of burst 0 and fingerprint of sweep 0 at the default seed.
PINNED_BURST_DIGEST = "a326abf629a777b7"
PINNED_SWEEP_FINGERPRINT = "5067ee236dbbfbcb"
#: Sum of the reference kernel's max-min rates.
PINNED_REFERENCE_RATE_SUM = 16.752634

#: Surfaces scheduled for deletion, which the benchmark must not call.
RETIRED_SPELLINGS = ("solver=", "set_default_solver", "supervised=", "cache_routes=")


def benchmark_sources():
    return [path for path in sorted(HERE.glob("*.py")) if path.name != Path(__file__).name]


def test_benchmark_uses_only_the_stable_surface():
    for path in benchmark_sources():
        text = path.read_text()
        for spelling in RETIRED_SPELLINGS:
            assert spelling not in text, f"{path.name} uses {spelling}"
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            for name in names:
                leaf = name.rpartition(".")[2]
                assert not name.startswith("benchmarks"), f"{path.name} imports {name}"
                assert not leaf.startswith("bench_") and leaf != "fabric_burst", (
                    f"{path.name} imports {name}"
                )


def test_metric_tables_match_benchmark_json():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in document["workloads"]) == sorted(work.WORKLOADS)


def test_burst_digest_is_pinned_and_held_out_seed_completes(tmp_path):
    burst = work.FabricBurst(DEFAULT_SEED, 1.0, SpanRecorder(), tmp_path)
    assert work.flow_digest(burst.simulate(0, burst.topology), work.BURST_FLOWS) == (
        PINNED_BURST_DIGEST
    )
    held_out = work.FabricBurst(HELD_OUT_SEED, 1.0, SpanRecorder(), tmp_path)
    digest = work.flow_digest(held_out.simulate(0, held_out.topology), work.BURST_FLOWS)
    assert digest is not None and digest != PINNED_BURST_DIGEST


def test_sweep_fingerprint_is_pinned_and_held_out_seed_passes(tmp_path):
    sweep = work.SweepCongestion(DEFAULT_SEED, 1.0, SpanRecorder(), tmp_path)
    result, _, _ = sweep.sweep(0)
    assert result.fingerprint().startswith(PINNED_SWEEP_FINGERPRINT)
    held_out = work.SweepCongestion(HELD_OUT_SEED, 1.0, SpanRecorder(), tmp_path)
    outcome = work.Outcome()
    held_out.check(0, held_out.sweep(0)[0], outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)


def test_reference_kernel_is_frozen_and_max_min_fair():
    # Every timed figure is scaled by this kernel's time, so its work must
    # never change: a different problem would shift every figure.
    rates = work.reference_fill(work.REFERENCE_PATHS)
    assert len(rates) == work.REFERENCE_FLOWS
    assert round(sum(rates.values()), 6) == PINNED_REFERENCE_RATE_SUM
    load = {}
    for flow, path in work.REFERENCE_PATHS.items():
        for link in path:
            load[link] = load.get(link, 0.0) + rates[flow]
    assert max(load.values()) <= 1.0 + 1e-9
    # Max-min fair: every flow crosses a saturated link on which no flow
    # gets more than it does.
    for flow, path in work.REFERENCE_PATHS.items():
        assert any(
            load[link] > 1.0 - 1e-9
            and all(rates[other] <= rates[flow] + 1e-12
                    for other, other_path in work.REFERENCE_PATHS.items()
                    if link in other_path)
            for link in path
        )


def test_self_time_and_unmeasured_layers():
    recorder = SpanRecorder()

    class Layer:
        @staticmethod
        def call():
            return 7

    restore = recorder.wrap(Layer, "call", "layer.call")
    recorder.wrap(Layer, "renamed_away", "layer.gone")
    with recorder.span("op", request=3):
        assert Layer.call() == 7
        recorder.charge("phase", 0.0, 2)
    restore()
    taken = recorder.take()
    table = layer_table(taken["spans"])
    assert table["layer.call"][2] == 1 and table["phase"][2] == 2
    assert table["op"][1] == pytest.approx(table["op"][0] - table["layer.call"][0])
    assert all(span["request"] == 3 for span in taken["spans"])
    assert recorder.unmeasured == {"layer.gone"}
    assert not hasattr(Layer.call, "__wrapped__")


def bench(*args, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    return completed, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_serve_run_is_correct_and_reports_every_metric(seed):
    completed, result = bench("--workload", "serve_mixed", "--seed", str(seed),
                              "--seconds", "2", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer():
    completed, result = bench("--workload", "serve_mixed", "--seed", str(DEFAULT_SEED),
                              "--seconds", "2", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["profile.c17_s"]["value"] > 0
    assert "unattributed remainder" in completed.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed, result = bench("--workload", "fabric_burst", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0 and result is None
