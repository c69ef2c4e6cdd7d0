"""List the functions of ``src/repro`` that no reproduction run reaches.

Run from the root of a checkout (about 80 s on a 2-vCPU host)::

    PYTHONPATH=src python tools/reach.py

It installs a ``sys.setprofile``/``threading.setprofile`` hook that
records every Python function called, then drives, in this process:

* ``pytest benchmarks`` (the claim modules; they rewrite
  ``benchmarks/results/*.txt`` exactly as a plain run does);
* every profile through the CLI (``trace``, ``metrics``, ``profile``);
* every point of every named sweep at seed 1, run by the worker's
  point runner (``repro.sweep.engine._run_point``) in this process,
  since sweeps run their points in child processes that the hook does
  not follow; and ``repro sweep smoke``;
* every example under ``examples/``;
* ``serve`` profile, sweep, streamed and ``/metrics`` requests through
  the in-process ``ServiceClient``;
* the read-only CLI subcommands, ``repro report`` (written to the
  temporary directory) and ``repro validate --check``;
* every input of perfbench's ``fabric_burst`` workload.

It then prints each def (a top-level function or a method; functions
nested in functions count with their parent) that none of them called,
outside the harness packages (``sweep``, ``serve``, ``validate``,
``observability`` and ``cli.py``), with its line span, leaving out
dunders and abstract methods, followed by the counts.  Commands write
their files into a temporary directory.  The exit code is 1 if a run
failed, since its coverage is then incomplete.  The tool needs nothing
beyond the standard library and what the runs themselves import
(``pytest`` and ``numpy`` for ``benchmarks``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
HARNESS = ("sweep", "serve", "validate", "observability", "cli.py")

#: (file, first line, last line, qualified name, abstract)
Def = Tuple[Path, int, int, str, bool]


def _is_abstract(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        name = getattr(decorator, "attr", getattr(decorator, "id", ""))
        if name == "abstractmethod":
            return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        getattr(body[0], "value", None), ast.Constant
    ):
        body = body[1:]  # the docstring
    return (
        len(body) == 1 and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def collect_defs() -> List[Def]:
    """Every def under ``src/repro`` not nested in another function."""
    found: List[Def] = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                found.append((path, first, child.end_lineno,
                              prefix + child.name, _is_abstract(child)))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


# --- the runs ----------------------------------------------------------------


def run_benchmarks() -> None:
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")]
    )
    if code != 0:
        raise RuntimeError(f"pytest benchmarks exited {code}")


def _cli(*argv: str) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")


def run_profiles() -> None:
    from repro.profiles import PROFILES

    for profile in PROFILES:
        for command in ("trace", "metrics", "profile"):
            _cli(command, profile)


def run_named_sweeps() -> None:
    from repro.sweep import named_sweep
    from repro.sweep.engine import _run_point
    from repro.sweep.targets import NAMED_SWEEPS

    for name in NAMED_SWEEPS:
        spec = named_sweep(name, seed=1)
        for point in spec.points():
            _run_point((spec.target, spec.name, spec.seed, point.index,
                        point.params, None, False))
    _cli("sweep", "smoke")


def run_examples() -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(example)]
        try:
            runpy.run_path(str(example), run_name="__main__")
        finally:
            sys.argv = argv


def run_serve() -> None:
    from repro.serve import ServeConfig, ServiceApp, ServiceClient

    app = ServiceApp(ServeConfig(store=os.path.abspath("serve-store"),
                                 sweep_workers=1))
    try:
        client = ServiceClient(app)
        profile = {"profile": "C17", "params": {"max_jobs": 20}}
        sweep = {
            "target": "fabric-congestion",
            "axes": {"topology": ["dragonfly"], "load": [0.5, 0.9],
                     "flows": [8]},
            "seed": 11,
            "name": "reach",
        }
        responses = [
            client.post("/v1/profile", profile),
            client.post("/v1/profile", profile),  # a cache hit
            client.post("/v1/sweep", sweep),
            client.post("/v1/profile?stream=1",
                        {"profile": "C8", "params": {"max_jobs": 5}}),
            client.post("/v1/sweep?stream=1", dict(sweep, seed=12)),
            client.get("/metrics"),
        ]
    finally:
        app.close()
    failed = [r.status for r in responses if r.status != 200]
    if failed:
        raise RuntimeError(f"serve answered {failed}")


def run_read_only_cli() -> None:
    from repro.interconnect.topology import TOPOLOGY_KINDS

    for command in ("catalog", "roadmap", "experiments"):
        _cli(command)
    for family in TOPOLOGY_KINDS:
        _cli("topology", family)
    _cli("report", "--output", "REPORT.md")
    _cli("validate", "--check")


def run_fabric_burst() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import work
        from spans import SpanRecorder
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    burst = work.FabricBurst(1, 1.0, SpanRecorder(), Path.cwd())
    for index in range(len(burst.bursts)):
        outcome = work.Outcome()
        burst.check(index, burst.simulate(index, burst.topology), outcome)
        if outcome.failed:
            raise RuntimeError(f"fabric_burst input {index} failed")


RUNS: List[Tuple[str, Callable[[], None]]] = [
    ("pytest benchmarks", run_benchmarks),
    ("profiles", run_profiles),
    ("named sweeps", run_named_sweeps),
    ("examples", run_examples),
    ("serve", run_serve),
    ("read-only CLI, report and validate --check", run_read_only_cli),
    ("perfbench fabric_burst", run_fabric_burst),
]


def trace_runs() -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Drive every run under the hook; the (file, first line) of each
    code object called, and the names of the runs that failed."""
    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    failed = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        os.chdir(scratch)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            for name, run in RUNS:
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink):
                        run()
                except BaseException as error:  # SystemExit from examples too
                    if isinstance(error, KeyboardInterrupt):
                        raise
                    failed.append(name)
                    print(f"run failed: {name}", file=sys.stderr)
                    traceback.print_exc()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(home)
    return {(code.co_filename, code.co_firstlineno) for code in codes}, failed


def main() -> int:
    sys.path.insert(0, str(SRC))
    defs = collect_defs()
    called, failed = trace_runs()
    # A code object's first line is its first decorator's line.
    reached = {(Path(file), line) for file, line in called}
    unreached: Dict[Path, List[Def]] = {}
    for entry in defs:
        path, first, _, name, abstract = entry
        relative = path.relative_to(PACKAGE)
        if (path, first) in reached or abstract:
            continue
        if relative.parts[0] in HARNESS:
            continue
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("__") and leaf.endswith("__"):
            continue
        unreached.setdefault(path, []).append(entry)
    lines = 0
    for path, entries in unreached.items():
        for _, first, last, name, _ in entries:
            lines += last - first + 1
            print(f"{path.relative_to(ROOT)}:{first}-{last}  {name}")
    count = sum(len(entries) for entries in unreached.values())
    print(f"\n{len(defs)} defs in src/repro; {count} non-dunder, "
          f"non-abstract defs outside the harness unreached "
          f"({lines} lines)")
    if failed:
        print(f"incomplete: failed runs: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
