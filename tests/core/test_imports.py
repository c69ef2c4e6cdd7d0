"""Import hygiene: a process loads only what its run uses.

The package inits are lazy (PEP 562), so ``import repro`` and the CLI's
parser load neither numpy nor networkx.  Fresh interpreters check this;
the in-process tests cover the lazy attribute protocol and the sweep
workers' frozen heap.
"""

import ast
import gc
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.sweep import SupervisorConfig, SweepSpec, named_sweep, run_sweep
from repro.sweep.targets import TARGETS

#: The ``src`` directory this ``repro`` was imported from.
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

HEAVY = ("numpy", "networkx")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from an empty directory outside the
    checkout, so only ``PYTHONPATH`` can put ``repro`` on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
            timeout=120, cwd=cwd,
        )


def _run(code: str) -> str:
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _imported(result: subprocess.CompletedProcess) -> set:
    """Module names from ``python -X importtime`` output on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _heavy(modules) -> list:
    return sorted(m for m in modules if m.partition(".")[0] in HEAVY)


class TestColdImports:
    def test_import_repro_loads_no_numpy_or_networkx(self):
        loaded = _run(
            "import sys, repro; "
            "print(' '.join(m for m in sys.modules "
            "if m.partition('.')[0] in ('numpy', 'networkx')))"
        )
        assert loaded == ""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["serve-request", "--help"],
        ["sweep-worker", "--help"],
    ])
    def test_cli_help_loads_no_numpy_or_networkx(self, argv):
        result = _python("-X", "importtime", "-m", "repro", *argv)
        assert result.returncode == 0, result.stderr[-2000:]
        assert "usage: repro" in result.stdout
        modules = _imported(result)
        assert "repro.cli" in modules
        assert _heavy(modules) == []

    def test_docstring_subpackages_resolve_after_bare_import(self):
        names = sorted(set(re.findall(r"``repro\.(\w+)``", repro.__doc__)))
        assert "profiles" in names and "core" in names
        resolved = _run(
            "import repro, types; "
            f"print(all(isinstance(getattr(repro, n), types.ModuleType) "
            f"for n in {names!r}))"
        )
        assert resolved == "True"

    def test_sweep_worker_host_starts_without_numpy(self):
        loaded = _run(
            "import sys; "
            "from repro.sweep import FleetError; "
            "from repro.sweep.remote_worker import run_worker; "
            "print(' '.join(m for m in sys.modules "
            "if m.partition('.')[0] in ('numpy', 'networkx')))"
        )
        assert loaded == ""


#: The only modules that import numpy / networkx at all (docs/architecture.md).
DIRECT_IMPORTERS = {
    "numpy": {"core/rng.py", "analysis/metrics.py", "market/exchange.py"},
    "networkx": {
        "datafoundation/lineage.py", "federation/wan.py",
        "interconnect/fabric.py", "interconnect/failures.py",
        "interconnect/routecache.py", "interconnect/topology.py",
        "validate/differential.py",
    },
}


def test_heavy_dependencies_stay_in_their_modules():
    root = pathlib.Path(repro.__file__).parent
    found = {name: set() for name in DIRECT_IMPORTERS}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top in found:
                    found[top].add(path.relative_to(root).as_posix())
    assert found == DIRECT_IMPORTERS


class TestLazyAttributes:
    def test_dir_covers_all(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'repro'.*no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_unknown_subpackage_name_raises_attribute_error(self):
        import repro.interconnect

        with pytest.raises(AttributeError, match="'repro.interconnect'"):
            repro.interconnect.no_such_name  # noqa: B018

    def test_from_import_of_submodule_falls_back(self):
        from repro import profiles
        from repro.serve import http

        assert profiles.PROFILES
        assert http.__name__ == "repro.serve.http"

    def test_same_object_through_every_path(self):
        from repro.interconnect import Flow
        from repro.interconnect.fabric import Flow as defined

        assert repro.Flow is Flow is defined

    def test_cli_topology_help_names_every_builder_kind(self):
        from repro.cli import build_parser
        from repro.interconnect.topology import TOPOLOGY_KINDS

        subparsers = build_parser()._subparsers._group_actions[0]
        help_text = " ".join(subparsers.choices["topology"].format_help().split())
        assert all(kind in help_text for kind in TOPOLOGY_KINDS)


class TestRegistries:
    """Registries filled by import side effects are full before lookup."""

    @pytest.mark.parametrize("code", [
        "from repro.sweep import resolve_target; "
        "[resolve_target(n) for n in ('fabric-congestion', "
        "'resilience-churn', 'memory-reliability', 'profile:C2')]",
        "from repro.sweep import TARGETS; "
        "assert {'fabric-congestion', 'resilience-churn', "
        "'memory-reliability'} <= set(TARGETS)",
        "from repro.interconnect import CONGESTION_POLICIES, congestion_policy; "
        "[congestion_policy(p) for p in CONGESTION_POLICIES]",
        "from repro.interconnect import TOPOLOGY_KINDS, normalize_topology_kind; "
        "[normalize_topology_kind(k) for k in TOPOLOGY_KINDS]",
        "import repro; assert len(list(repro.default_catalog())) >= 8",
    ])
    def test_filled_in_a_fresh_process(self, code):
        _run(code)

    def test_preload_covers_what_a_point_imports(self):
        # After preload_target, running a point imports nothing new, so
        # forked workers never import on their first point.
        script = """
import sys
from repro.core.rng import RandomSource
from repro.observability import Telemetry
from repro.sweep.targets import preload_target
cases = {
    "fabric-congestion": {"topology": "torus", "flows": 8},
    "resilience-churn": {"nodes": 2, "jobs": 2, "work": 10.0},
    "memory-reliability": {"nodes": 2, "jobs": 2, "work": 10.0},
    "profile:C2": {"flows": 8},
}
for name, params in cases.items():
    target = preload_target(name)
    before = set(sys.modules)
    target(params, Telemetry(), RandomSource(1))
    print(name, sorted(set(sys.modules) - before))
"""
        lines = _run(script).splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line.endswith(" []"), line


def _freeze_count(params, telemetry, rng):
    return {"frozen": float(gc.get_freeze_count())}


@pytest.fixture
def freeze_probe():
    """A target reporting its worker's freeze count (fork inherits it)."""
    TARGETS["_freeze-count"] = _freeze_count
    yield "_freeze-count"
    del TARGETS["_freeze-count"]


class TestWorkerFreeze:
    def test_pool_leaves_parent_freeze_count_and_fingerprint(self):
        spec = named_sweep("smoke")
        before = gc.get_freeze_count()
        pooled = run_sweep(spec, workers=2)
        assert gc.get_freeze_count() == before
        assert pooled.fingerprint() == run_sweep(spec, workers=1).fingerprint()

    @pytest.mark.parametrize("options", [
        {"config": SupervisorConfig(strict=True)},
        {"config": SupervisorConfig(strict=True, start_method="fork")},
    ])
    def test_forked_workers_start_frozen(self, freeze_probe, options):
        spec = SweepSpec(name="freeze", target=freeze_probe,
                         grid={"i": [0, 1, 2, 3]})
        before = gc.get_freeze_count()
        result = run_sweep(spec, workers=2, **options)
        assert gc.get_freeze_count() == before
        # Each worker froze the heap it inherited, on top of anything the
        # calling process had frozen itself.
        assert all(point.metrics["frozen"] > before for point in result.points)
