"""CLI surface of ``repro sweep``: resume hints and one-journal
resume."""

import os
import pathlib
import re
import shlex
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main

from tests.sweep import _ft_helpers as ft  # noqa: F401  (registers targets)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_CLI_SCRIPT = (
    "import sys\n"
    "from tests.sweep import _ft_helpers\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _run_cli_until_sigint(args, journal, min_lines=3, timeout=60.0):
    """Start the CLI sweep, SIGINT it once the journal has progress."""
    process = subprocess.Popen(
        [sys.executable, "-c", _CLI_SCRIPT, *args],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (
            journal.exists()
            and len(journal.read_text().splitlines()) >= min_lines
        ):
            break
        time.sleep(0.02)
    process.send_signal(signal.SIGINT)
    out, err = process.communicate(timeout=timeout)
    return process.returncode, out, err


class TestInterruptHint:
    """Satellite: Ctrl-C prints the remaining count and the exact resume
    command — demonstrated end to end by pasting the command back in."""

    def test_hint_counts_remaining_and_resumes_verbatim(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "run.jsonl"
        code, _out, err = _run_cli_until_sigint(
            ["sweep", "hint-ft", "--target", "ft-slow",
             "--axis", "x=0,1,2,3,4,5,6,7", "--axis", "sleep_s=0.15",
             "--seed", "7", "--retries", "1", "--journal", str(journal)],
            journal,
        )
        assert code == 130, err
        match = re.search(
            r"interrupted: (\d+)/8 point\(s\) completed before Ctrl-C; "
            r"(\d+) remaining", err,
        )
        assert match is not None, err
        done, remaining = int(match.group(1)), int(match.group(2))
        assert done + remaining == 8 and remaining > 0
        assert f"finish the remaining {remaining} point(s) with:" in err
        hint = next(
            line.strip() for line in err.splitlines()
            if line.strip().startswith("repro sweep")
        )
        assert "--retries 1" in hint
        assert f"--resume {journal}" in hint
        # The hint is a verbatim, copy-pasteable command: feed it straight
        # back to the CLI (minus the program name) and the sweep finishes.
        resume_code = main(shlex.split(hint)[1:])
        assert resume_code == 0
        assert "8 points" in capsys.readouterr().out

    def test_hint_rewrites_abbreviated_and_inline_flags(self):
        from repro.cli import _resume_command

        hint = _resume_command(
            ["sweep", "smoke", "--jour=old.jsonl", "--resume", "a.jsonl",
             "--retries", "3"],
            "a.jsonl",
        )
        assert hint == "repro sweep smoke --retries 3 --resume a.jsonl"

    @pytest.mark.parametrize("argv, expected", [
        (["sweep", "smoke", "--journal", "j.jsonl"], "repro sweep smoke"),
        (["sweep", "smoke", "--journal=j.jsonl", "--workers", "2"],
         "repro sweep smoke --workers 2"),
        (["sweep", "smoke", "--res", "j.jsonl"], "repro sweep smoke"),
        (["sweep", "my sweep", "--target", "ft-cheap", "--journal", "j.jsonl"],
         "repro sweep 'my sweep' --target ft-cheap"),
    ])
    def test_hint_swaps_the_journal_flag_for_resume(self, argv, expected):
        from repro.cli import _resume_command

        assert _resume_command(argv, "j.jsonl") == (
            expected + " --resume j.jsonl"
        )

    def test_no_journal_hint_suggests_keeping_one(self, capsys):
        code = main([
            "sweep", "hint-ft", "--target", "ft-interrupt",
            "--axis", "x=0,1,2,3,4",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "remaining" in err
        assert "no journal was kept" in err


class TestOneJournalResume:
    def test_a_second_resume_exits_2_naming_the_flag(self, tmp_path, capsys):
        spec = ft.cheap_spec(n=6)
        from repro.sweep import RunJournal, run_sweep

        full = run_sweep(spec, workers=1)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for path, point in ((first, full.points[0]), (second, full.points[1])):
            with RunJournal(path, spec) as journal:
                journal.record_point(point)
        before = [path.read_text() for path in (first, second)]
        code = main([
            "sweep", "ft", "--target", "ft-cheap",
            "--axis", "x=0,1,2,3,4,5", "--seed", "77",
            "--resume", str(first), "--resume", str(second),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "--resume takes one journal" in captured.err
        assert "merging journals went with the tcp fleet" in captured.err
        assert "points" not in captured.out
        # Nothing ran: neither journal gained a record.
        assert [path.read_text() for path in (first, second)] == before

    def test_resume_with_a_different_journal_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "a.jsonl"
        assert main([
            "sweep", "ft", "--target", "ft-cheap", "--axis", "x=0,1",
            "--seed", "77", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        code = main([
            "sweep", "ft", "--target", "ft-cheap", "--axis", "x=0,1",
            "--seed", "77", "--resume", str(journal),
            "--journal", str(tmp_path / "b.jsonl"),
        ])
        assert code == 2
        assert "not two different paths" in capsys.readouterr().err

    def test_one_resume_journal_finishes_the_sweep(self, tmp_path, capsys):
        spec = ft.cheap_spec(n=6)
        from repro.sweep import RunJournal, load_journal, run_sweep

        full = run_sweep(spec, workers=1)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(full.points[0])
        code = main([
            "sweep", "ft", "--target", "ft-cheap",
            "--axis", "x=0,1,2,3,4,5", "--seed", "77",
            "--resume", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 points" in out
        assert f"fingerprint {full.fingerprint()[:12]}" in out
        assert sorted(load_journal(path).completed) == list(range(6))
