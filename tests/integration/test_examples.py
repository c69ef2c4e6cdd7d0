"""Every script in ``examples/`` runs to completion from any directory."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)
#: Extra arguments per script: the sweep example's worker pool stays small.
ARGS = {"parameter_sweep.py": ["2"]}


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr[-2000:]
