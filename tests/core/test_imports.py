"""Import hygiene: a process loads only what its run uses.

The runtime needs nothing outside the standard library.  numpy and
networkx are test-side oracles (of the random streams and statistics, and
of the graph ports), so no runtime path loads either, and the package
inits are lazy (PEP 562), so ``import repro`` and the CLI's parser load
only what they use.  Fresh interpreters check this; the in-process tests
cover the lazy attribute protocol and the sweep workers' frozen heap.
"""

import ast
import gc
import importlib
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

#: Every package init under ``src/repro``, by dotted name.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(pathlib.Path(SRC)).parts)
    for path in pathlib.Path(SRC, "repro").rglob("__init__.py")
)


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
    ])
    def test_cli_help_loads_no_numpy_or_networkx(self, argv):
        result = _python("-X", "importtime", "-m", "repro", *argv)
        assert result.returncode == 0, result.stderr[-2000:]
        assert "usage: repro" in result.stdout
        modules = _imported(result)
        assert "repro.cli" in modules
        assert _heavy(modules) == []

    def test_serve_start_path_loads_no_fabric_module(self):
        # What ``repro serve`` imports before it binds: the app, its
        # request path and the CLI.  Only fabric runs (C1, C2, the
        # fabric-congestion target) load the fabric.
        loaded = _run(
            "import importlib, sys, repro.serve.app; "
            "[importlib.import_module(m) for m in repro.serve.app.REQUEST_PATH]; "
            "import repro.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('repro.interconnect.')))"
        ).split()
        assert "repro.interconnect.topology" in loaded
        fabric = {
            f"repro.interconnect.{name}"
            for name in ("fabric", "ratesolver", "routecache", "congestion", "routing")
        }
        assert sorted(fabric.intersection(loaded)) == []

    def test_docstring_subpackages_resolve_after_bare_import(self):
        names = sorted(set(re.findall(r"``repro\.(\w+)``", repro.__doc__)))
        assert "profiles" in names and "core" in names
        resolved = _run(
            "import repro, types; "
            f"print(all(isinstance(getattr(repro, n), types.ModuleType) "
            f"for n in {names!r}))"
        )
        assert resolved == "True"


#: The only modules that import numpy / networkx at all (docs/architecture.md).
#: networkx appears only inside ``check_routes``, as the routes oracle.
DIRECT_IMPORTERS = {
    "numpy": set(),
    "networkx": {"validate/differential.py"},
}

#: Runs ``python -m repro`` with the arguments after ``-c`` while a
#: meta-path finder refuses every numpy and networkx import.
WITHOUT_HEAVY = """
import runpy, sys

class RefuseHeavy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "networkx"):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseHeavy())
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: Host-second figures (``0.005675``, ``5.675e-03``) in a profile's
#: wall-clock tables.
_SECONDS = re.compile(r"\b\d+\.\d{6}\b|\b\d\.\d{3}e[-+]\d{2}\b")
#: A sweep's elapsed time (``swept 8 points in 0.06s``).
_ELAPSED = re.compile(r" in \d+\.\d+s ")


def _without_wall_clock(stdout: str) -> list:
    """Stdout up to the wall-clock tables with elapsed times masked, then
    their rows with the timings masked, sorted (rows are ordered hottest
    first)."""
    head, marker, timed = stdout.partition("Wall-clock phases")
    rows = sorted(_SECONDS.sub("#", line).rstrip()
                  for line in timed.splitlines())
    return [_ELAPSED.sub(" in #s ", line) for line in head.splitlines()] + (
        [marker] + rows
    )


def _third_party(modules) -> list:
    """The modules that are neither the standard library nor repro,
    skipping aliases such as ``__mp_main__`` (multiprocessing's name for
    ``__main__``)."""
    return sorted(
        m for m in modules
        if m.partition(".")[0] not in sys.stdlib_module_names
        and m.partition(".")[0] != "repro" and not m.startswith("__")
    )


class TestStdlibOnlyRuntime:
    # The package inits are lazy, so the sweep and serve entries name the
    # modules that do the work.
    @pytest.mark.parametrize("module", [
        "repro.interconnect.fabric", "repro.profiles", "repro.sweep.engine",
        "repro.sweep.targets", "repro.serve.app",
    ])
    def test_runtime_modules_load_no_third_party_module(self, module):
        loaded = _run(
            "import sys; before = set(sys.modules); "
            f"import {module}; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        ).split()
        assert module in loaded
        assert _third_party(loaded) == []

    @pytest.mark.parametrize("argv", [
        ["profile", "C2"],
        ["profile", "C17"],
        ["sweep", "smoke"],
        ["topology", "dragonfly"],
    ])
    def test_commands_run_with_numpy_and_networkx_refused(self, argv):
        plain = _python("-X", "importtime", "-m", "repro", *argv)
        assert plain.returncode == 0, plain.stderr[-2000:]
        assert plain.stdout.strip()
        assert _heavy(_imported(plain)) == []
        blocked = _python("-c", WITHOUT_HEAVY, *argv)
        assert blocked.returncode == 0, blocked.stderr[-2000:]
        assert _without_wall_clock(blocked.stdout) == (
            _without_wall_clock(plain.stdout)
        )


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


def _writes_all(node) -> bool:
    """Whether an ``ast`` statement assigns ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


class TestLazyAttributes:
    def test_dir_covers_all(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_no_package_init_writes_all_by_hand(self):
        # ``lazy_exports`` derives ``__all__`` from the export map; the
        # root only appends ``__version__``.
        written = []
        for path in pathlib.Path(SRC, "repro").rglob("__init__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            written += [
                path.relative_to(SRC).as_posix()
                for node in tree.body if _writes_all(node)
            ]
        assert written == []
        root = ast.parse(pathlib.Path(repro.__file__).read_text(encoding="utf-8"))
        calls = [
            ast.unparse(node.value) for node in root.body
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        ]
        assert calls == ["__all__.append('__version__')"]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_the_sorted_export_map(self, package):
        module = importlib.import_module(package)
        names = [name for name in module.__all__ if name != "__version__"]
        assert names == sorted(set(names)) and names
        namespace = {}
        exec(f"from {package} import *", namespace)  # noqa: S102
        assert set(module.__all__) <= set(namespace)

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

    @pytest.mark.parametrize("name, params", [
        ("fabric-congestion", {"topology": "torus", "flows": 8}),
        ("resilience-churn", {"nodes": 2, "jobs": 2, "work": 10.0}),
        ("memory-reliability", {"nodes": 2, "jobs": 2, "work": 10.0}),
        ("profile:C2", {"flows": 8}),
        ("profile:c1", {"aggressors": 2}),
    ])
    def test_preload_covers_what_a_point_imports(self, name, params):
        # After preload_target, running a point imports nothing new, so
        # forked workers never import on their first point.  Each target
        # runs in its own interpreter, so no other target's imports can
        # stand in for a missing preload.
        script = f"""
import sys
from repro.core.rng import RandomSource
from repro.observability import Telemetry
from repro.sweep.targets import preload_target
target = preload_target({name!r})
before = set(sys.modules)
target({params!r}, Telemetry(), RandomSource(1))
print(sorted(set(sys.modules) - before))
"""
        assert _run(script) == "[]"


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

    def test_forked_workers_start_frozen(self, freeze_probe):
        spec = SweepSpec(name="freeze", target=freeze_probe,
                         grid={"i": [0, 1, 2, 3]})
        before = gc.get_freeze_count()
        result = run_sweep(
            spec, workers=2, config=SupervisorConfig(strict=True)
        )
        assert gc.get_freeze_count() == before
        # Each worker froze the heap it inherited, on top of anything the
        # calling process had frozen itself.
        assert all(point.metrics["frozen"] > before for point in result.points)
