"""CLI surface of the fleet work: resume hints, sweep-worker, backends."""

import os
import pathlib
import re
import shlex
import signal
import socket
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

    def test_hint_keeps_tcp_flags_and_masks_the_token(self, tmp_path):
        """An interrupted fleet run resumes on the same address, host
        count and auth demand; the token itself is never printed."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        journal = tmp_path / "fleet.jsonl"
        code, _out, err = _run_cli_until_sigint(
            ["sweep", "hint-ft", "--target", "ft-cheap",
             "--axis", "x=0,1,2", "--backend", "tcp",
             "--listen", f"127.0.0.1:{port}", "--min-hosts", "2",
             "--auth-token", "s3cret", "--journal", str(journal)],
            journal, min_lines=1,
        )
        assert code == 130, err
        hint = next(
            line.strip() for line in err.splitlines()
            if line.strip().startswith("repro sweep")
        )
        assert shlex.split(hint)[1:] == [
            "sweep", "hint-ft", "--target", "ft-cheap",
            "--axis", "x=0,1,2", "--backend", "tcp",
            "--listen", f"127.0.0.1:{port}", "--min-hosts", "2",
            "--auth-token", "<SECRET>", "--resume", str(journal),
        ]
        assert "s3cret" not in err

    def test_hint_rewrites_abbreviated_and_inline_flags(self):
        from repro.cli import _resume_command

        hint = _resume_command(
            ["sweep", "smoke", "--jour=old.jsonl", "--auth=s3cret",
             "--resume", "a.jsonl", "--resume", "b.jsonl", "--retries", "3"],
            "a.jsonl",
        )
        assert hint == (
            "repro sweep smoke --auth-token '<SECRET>' --retries 3 "
            "--resume a.jsonl"
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


class TestRepeatableResume:
    def test_multiple_resume_journals_are_merged(self, tmp_path, capsys):
        spec = ft.cheap_spec(n=6)
        from repro.sweep import RunJournal, run_sweep

        full = run_sweep(spec, workers=1)
        primary = tmp_path / "coord.jsonl"
        secondary = tmp_path / "host.jsonl"
        with RunJournal(primary, spec) as journal:
            journal.record_point(full.points[0])
        with RunJournal(secondary, spec) as journal:
            journal.record_point(full.points[1])
        code = main([
            "sweep", "ft", "--target", "ft-cheap",
            "--axis", "x=0,1,2,3,4,5", "--seed", "77",
            "--resume", str(primary), "--resume", str(secondary),
        ])
        assert code == 0
        assert "6 points" in capsys.readouterr().out


class TestSweepWorkerCommand:
    def test_unreachable_coordinator_exits_2(self, capsys):
        code = main([
            "sweep-worker", "--connect", "127.0.0.1:9",
            "--connect-timeout", "0.2",
        ])
        assert code == 2
        assert "could not reach" in capsys.readouterr().err

    def test_bad_preload_module_exits_2(self, capsys):
        code = main([
            "sweep-worker", "--connect", "127.0.0.1:9",
            "--preload", "no.such.module",
        ])
        assert code == 2
        assert "no.such.module" in capsys.readouterr().err

    def test_connect_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep-worker"])


class TestBackendFlag:
    def test_unknown_backend_is_rejected_with_the_known_list(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sweep", "ft", "--target", "ft-cheap", "--axis", "x=0,1",
                "--backend", "mpi",
            ])
        assert exit_info.value.code == 2
        assert "choose from 'local', 'tcp'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["local-fork", "local-spawn"])
    def test_start_method_names_are_not_backends(self, capsys, name):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "smoke", "--backend", name])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err

    def test_local_backend_runs_from_the_cli(self, capsys):
        code = main([
            "sweep", "ft", "--target", "ft-cheap",
            "--axis", "x=0,1,2", "--seed", "77",
            "--backend", "local", "--workers", "2",
        ])
        assert code == 0
        assert "3 points" in capsys.readouterr().out

    def test_tcp_backend_times_out_without_workers(self, capsys):
        code = main([
            "sweep", "ft", "--target", "ft-cheap", "--axis", "x=0,1",
            "--backend", "tcp", "--wait-for-hosts", "0.3",
            "--heartbeat-interval", "0.1",
        ])
        assert code == 1
        assert "worker host" in capsys.readouterr().err
