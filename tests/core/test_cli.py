"""Tests for the command-line interface."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, _given, build_parser, main
from repro.serve import ServeConfig
from repro.sweep import SupervisorConfig

CHECKOUT = pathlib.Path(__file__).resolve().parents[2]


def _repro(*args, **kwargs):
    """Run ``python -m repro ARGS`` from the checkout, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=CHECKOUT,
        env={**os.environ, "PYTHONPATH": str(CHECKOUT / "src")},
        timeout=120,
        **kwargs,
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "analog-dpe" in out
        assert "hpc-gpu" in out

    def test_roadmap(self, capsys):
        assert main(["roadmap"]) == 0
        out = capsys.readouterr().out
        assert "Dennard break" in out
        assert "3nm" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out


def _table_value(out: str, metric: str) -> str:
    match = re.search(rf"^{re.escape(metric)}\s+(\S+(?: \S+)?)\s*$", out,
                      re.MULTILINE)
    assert match, f"no {metric!r} row in:\n{out}"
    return match.group(1)


class TestClosedPipe:
    def test_reader_closing_early_exits_without_a_traceback(self):
        """``repro metrics C16 | head`` must not end in a traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes a byte
        try:
            process = _repro(
                "metrics", "C16", "--set", "seed=11",
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert process.returncode == 1
        assert "Traceback" not in process.stderr
        assert "BrokenPipeError" not in process.stderr


class TestCatalogCommand:
    #: The reference-kernel column; only the wafer-scale engine lacks INT8
    #: and reads n/a, while analog-dpe and optical-mvm time the kernel.
    TIMINGS = {
        "epyc-class-cpu": "1.17 ms", "hpc-gpu": "32.9 us",
        "tpu-like": "41.9 us", "wafer-scale-engine": "n/a",
        "datacenter-fpga": "1 s", "analog-dpe": "83.6 us",
        "optical-mvm": "211 us", "edge-npu": "472 us",
    }

    def test_reference_timings_are_unchanged(self, capsys):
        assert main(["catalog"]) == 0
        rows = {
            line.split()[0]: line.rstrip().rsplit("  ", 1)[-1].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in self.TIMINGS
        }
        assert rows == self.TIMINGS

    def test_an_unexpected_device_error_propagates(self, monkeypatch):
        from repro.hardware.device import Device

        def broken(self, kernel):
            raise RuntimeError("device model bug")

        monkeypatch.setattr(Device, "time_for", broken)
        with pytest.raises(RuntimeError, match="device model bug"):
            main(["catalog"])


class TestTopologyCommand:
    @pytest.mark.parametrize("family", [
        "dragonfly", "hyperx", "fat-tree", "two-tier", "torus",
    ])
    def test_defaults_are_build_topologys(self, capsys, family):
        from repro.interconnect.topology import build_topology

        expected = build_topology(family)
        assert main(["topology", family]) == 0
        out = capsys.readouterr().out
        assert int(_table_value(out, "switches")) == expected.switch_count
        assert int(_table_value(out, "terminals")) == expected.terminal_count

    @pytest.mark.parametrize("family", ["hyperx", "torus"])
    def test_comma_separated_dims_build_a_3x3_lattice(self, capsys, family):
        assert main(["topology", family, "--set", "dims=3,3"]) == 0
        out = capsys.readouterr().out
        assert f"{family}(3, 3)" in out
        assert int(_table_value(out, "switches")) == 9

    def test_set_overrides_several_fields(self, capsys):
        assert main([
            "topology", "dragonfly", "--set", "groups=5",
            "--set", "routers_per_group=3", "--set", "terminals=2",
        ]) == 0
        out = capsys.readouterr().out
        assert int(_table_value(out, "switches")) == 15
        assert int(_table_value(out, "terminals")) == 30

    def test_inapplicable_field_exits_2_naming_it(self, capsys):
        assert main(["topology", "dragonfly", "--set", "k=4"]) == 2
        err = capsys.readouterr().err
        assert "does not take 'k'" in err
        assert "Traceback" not in err

    def test_unknown_family_exits_2_listing_the_known_ones(self, capsys):
        assert main(["topology", "moebius"]) == 2
        assert "known kinds: dragonfly" in capsys.readouterr().err


class TestReport:
    def test_default_results_resolve_against_the_checkout(
        self, tmp_path, monkeypatch, capsys
    ):
        """From any directory, the committed results give REPORT.md."""
        checkout = pathlib.Path(__file__).resolve().parents[2]
        empty = tmp_path / "elsewhere"
        empty.mkdir()
        monkeypatch.chdir(empty)
        output = tmp_path / "R.md"
        assert main(["report", "--output", str(output)]) == 0
        assert output.read_bytes() == (checkout / "REPORT.md").read_bytes()

    def test_report_assembles_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "C1_congestion.txt").write_text("C1 table body")
        (results / "F1_convergence.txt").write_text("F1 table body")
        output = tmp_path / "REPORT.md"
        assert main([
            "report", "--results-dir", str(results), "--output", str(output)
        ]) == 0
        content = output.read_text()
        assert "C1 table body" in content
        assert "F1 table body" in content
        # F-experiments come before C-experiments? Registry order: F1..C18.
        assert content.index("F1 table body") < content.index("C1 table body")

    def test_report_missing_dir_fails(self, tmp_path):
        assert main([
            "report", "--results-dir", str(tmp_path / "nope"),
            "--output", str(tmp_path / "out.md"),
        ]) == 1

    def test_report_empty_dir_fails(self, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        assert main([
            "report", "--results-dir", str(empty),
            "--output", str(tmp_path / "out.md"),
        ]) == 1


class TestExperimentRegistry:
    def test_covers_all_bench_files(self):
        """Every bench module on disk appears in the registry and exists."""
        import pathlib
        bench_dir = pathlib.Path(__file__).parent.parent.parent / "benchmarks"
        on_disk = {
            f"benchmarks/{p.name}"
            for p in bench_dir.glob("test_*.py")
        }
        registered = {target for _, target in EXPERIMENTS.values()}
        assert registered == on_disk


class TestSweepCommand:
    def test_every_point_failing_prints_the_ledger_not_a_traceback(
        self, capsys
    ):
        code = main([
            "sweep", "x", "--target", "fabric-congestion",
            "--axis", "topology=nosuch", "--axis", "flows=4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "1 point(s) failed after retries" in err
        assert "unknown topology kind 'nosuch'" in err

    @pytest.mark.parametrize(
        "clause", ["host-crash", "drop", "delay", "delay-seconds"]
    )
    def test_retired_chaos_clause_exits_2_naming_it_and_the_survivors(
        self, capsys, clause
    ):
        code = main([
            "sweep", "smoke", "--workers", "2", "--timeout", "5",
            "--chaos", f"{clause}:0.5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad chaos clause '{clause}:0.5'" in err
        assert (
            "expected clauses from: crash:<p>, hang:<p>, hang-seconds:<p>"
        ) in err

    def test_repeated_chaos_clause_exits_2_naming_it(self, capsys):
        code = main([
            "sweep", "smoke", "--workers", "2", "--chaos", "crash:0.1,crash:0.3",
        ])
        assert code == 2
        assert (
            "chaos clause 'crash' given more than once in 'crash:0.1,crash:0.3'"
        ) in capsys.readouterr().err

    def test_chaos_smoke_recovers_the_golden_fingerprint(self, tmp_path):
        """Injected worker crashes and hangs are retried away: the smoke
        sweep still reproduces its golden fingerprint."""
        from repro.sweep import load_sweep

        output = tmp_path / "sweep_chaos.json"
        process = _repro(
            "sweep", "smoke", "--workers", "2",
            "--chaos", "crash:0.15,hang:0.05", "--timeout", "2",
            "--retries", "4", "--journal", str(tmp_path / "chaos_run.jsonl"),
            "--output", str(output),
            capture_output=True, text=True,
        )
        assert process.returncode == 0, process.stderr
        golden = json.loads(
            (CHECKOUT / "tests" / "golden" / "sweep_smoke.json").read_text()
        )
        stored = load_sweep(output)
        assert stored.ok, stored.failures
        assert stored.fingerprint() == golden["digest"]
        assert stored.harness["crashes"] + stored.harness["timeouts"] > 0

    def test_axis_without_a_target_exits_2(self, capsys):
        assert main(["sweep", "smoke", "--axis", "bogus=1"]) == 2
        assert "--axis needs --target NAME" in capsys.readouterr().err

    def test_merged_telemetry_exports_prometheus(self, tmp_path, capsys):
        from repro.observability import parse_prometheus

        path = tmp_path / "sweep_smoke.prom"
        code = main([
            "sweep", "smoke", "--workers", "2", "--telemetry",
            "--prometheus", str(path),
        ])
        assert code == 0
        samples = parse_prometheus(path.read_text())
        assert samples[("fabric_flow_bytes", 'tag="flow"')] > 0
        assert "merged telemetry from 8 point(s)" in capsys.readouterr().out


class TestRepeatedFlags:
    """``--axis``, ``--set`` and ``--preload`` parse alike everywhere."""

    @pytest.mark.parametrize("command", [
        ["sweep", "x", "--target", "fabric-congestion"],
        ["serve-request", "http://127.0.0.1:9", "sweep",
         "--target", "fabric-congestion"],
    ])
    @pytest.mark.parametrize("axis", ["load=", "load=0.5,,0.9"])
    def test_empty_axis_value_exits_2_naming_the_axis(
        self, capsys, command, axis
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--axis", axis])
        assert exit_info.value.code == 2
        assert "axis 'load' has an empty value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["profile", "C1"],
        ["trace", "C1"],
        ["metrics", "C1"],
        ["topology", "dragonfly"],
        ["serve-request", "http://127.0.0.1:9", "profile", "C1"],
    ])
    def test_set_without_a_value_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--set", "max_jobs"])
        assert exit_info.value.code == 2
        assert "expected KEY=VALUE" in capsys.readouterr().err

    def test_axis_and_set_values_are_typed(self):
        parser = build_parser()
        sweep = parser.parse_args(
            ["sweep", "x", "--axis", "load=0.5,8,flow", "--axis", "k=1"]
        )
        assert sweep.axis == [("load", [0.5, 8, "flow"]), ("k", [1])]
        profile = parser.parse_args(["profile", "C1", "--set", "max_jobs=50"])
        assert profile.set == [("max_jobs", 50)]
        topology = parser.parse_args(
            ["topology", "hyperx", "--set", "dims=3,3", "--set", "mode=a,0.5"]
        )
        assert topology.set == [("dims", [3, 3]), ("mode", ["a", 0.5])]

    def test_serve_with_an_unimportable_preload_exits_2(self, capsys):
        assert main(["serve", "--preload", "no.such.module"]) == 2
        assert "cannot preload 'no.such.module'" in capsys.readouterr().err


class TestLibraryDefaults:
    """A flag that maps onto a library field reaches it only when given."""

    @pytest.mark.parametrize("argv, targets, expected", [
        (["sweep", "smoke"], (SupervisorConfig,), {}),
        (["serve"], (ServeConfig,), {}),
    ])
    def test_flags_left_out_leave_the_library_defaults(
        self, argv, targets, expected
    ):
        args = build_parser().parse_args(argv)
        for target in targets:
            assert _given(args, target) == expected

    def test_given_flags_reach_their_fields(self):
        args = build_parser().parse_args([
            "sweep", "smoke", "--retries", "3", "--strict",
        ])
        assert _given(args, SupervisorConfig) == {"retries": 3, "strict": True}
