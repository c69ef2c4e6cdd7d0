"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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

    def test_topology_dragonfly(self, capsys):
        assert main(["topology", "dragonfly", "--groups", "5",
                     "--routers", "3", "--terminals", "2"]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out

    def test_topology_hyperx_dims(self, capsys):
        assert main(["topology", "hyperx", "--dims", "3", "3"]) == 0
        assert "hyperx" in capsys.readouterr().out

    def test_topology_fat_tree(self, capsys):
        assert main(["topology", "fat-tree", "--k", "4"]) == 0
        assert "fat-tree" in capsys.readouterr().out

    def test_topology_torus(self, capsys):
        assert main(["topology", "torus", "--dims", "3", "3"]) == 0
        assert "torus" in capsys.readouterr().out


class TestReport:
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

    @pytest.mark.parametrize("clause", ["host-crash", "drop", "delay"])
    def test_fleet_chaos_outside_tcp_exits_2_naming_the_clause(
        self, capsys, clause
    ):
        code = main([
            "sweep", "smoke", "--workers", "2", "--timeout", "5",
            "--chaos", f"{clause}:0.5",
        ])
        assert code == 2
        assert f"chaos clause(s) {clause} " in capsys.readouterr().err

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

    def test_serve_with_an_unimportable_preload_exits_2(self, capsys):
        assert main(["serve", "--preload", "no.such.module"]) == 2
        assert "cannot preload 'no.such.module'" in capsys.readouterr().err
