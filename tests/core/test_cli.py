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
