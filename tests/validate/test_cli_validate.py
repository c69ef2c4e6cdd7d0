"""End-to-end tests for ``python -m repro validate``."""

import pathlib

import pytest

from repro.cli import main
from repro.validate import validate

GOLDEN_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "golden")


class TestCheckMode:
    def test_fast_subset_passes_against_committed_goldens(self, capsys):
        code = main([
            "validate", "--check", "--profiles", "C1", "--sweeps", "smoke",
            "--skip-differential", "--golden-dir", GOLDEN_DIR,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile C1: ok" in out
        assert "sweep smoke: ok" in out
        assert "0 failing" in out

    def test_missing_golden_fails_with_guidance(self, tmp_path, capsys):
        code = main([
            "validate", "--check", "--profiles", "C1", "--sweeps",
            "--skip-differential", "--golden-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISSING" in out
        assert "--record" in out


class TestDefaultGoldenDir:
    def test_check_finds_goldens_from_any_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["validate", "--check", "--skip-differential"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "12 ok, 0 failing" in out
        assert str(GOLDEN_DIR) in out
        assert list(tmp_path.iterdir()) == []

    def test_missing_default_exits_2_naming_the_flag(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.validate import runner

        monkeypatch.setattr(runner, "DEFAULT_GOLDEN_DIR", tmp_path / "absent")
        code = main([
            "validate", "--check", "--profiles", "C1", "--sweeps",
            "--skip-differential",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--golden-dir" in captured.err
        assert captured.out == ""


class TestRecordMode:
    def test_record_then_check_round_trips(self, tmp_path, capsys):
        golden_dir = str(tmp_path / "goldens")
        assert main([
            "validate", "--record", "--profiles", "C2", "--sweeps",
            "--skip-differential", "--golden-dir", golden_dir,
        ]) == 0
        assert (tmp_path / "goldens" / "profile_C2.json").is_file()
        assert main([
            "validate", "--check", "--profiles", "C2", "--sweeps",
            "--skip-differential", "--golden-dir", golden_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded" not in out.split("\n")[-2]


class TestErrorHandling:
    def test_unknown_profile_exits_2(self, capsys):
        code = main([
            "validate", "--check", "--profiles", "NOPE", "--sweeps",
            "--skip-differential", "--golden-dir", GOLDEN_DIR,
        ])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_validate_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be"):
            validate(mode="bogus")


class TestDifferentialFlag:
    def test_differentials_run_by_default_on_empty_subjects(self, capsys):
        code = main([
            "validate", "--check", "--profiles", "--sweeps",
            "--golden-dir", GOLDEN_DIR,
        ])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("routes", "collectives", "checkpointing", "sweep-pool"):
            assert f"differential {name}: ok" in out
