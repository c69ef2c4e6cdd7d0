"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload fabric_burst --seed 1 --seconds 30 --trace 0

Run it from the root of a repro checkout; it needs nothing but the
checkout's ``src`` tree and the Python the repository already uses.  The
lines it prints are a table of every metric with its unit; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  Exits 1 when a
correctness check fails or a workload process dies, and 2 when the
program is missing or an argument is bad.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import work  # noqa: E402  (the sibling module; imports no repro at load)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "hit_latency_p50_s": "s",
    "miss_latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  A layer a
#: workload never enters reads 0.
PER_LAYER = {
    "import.repro_s": "s",
    "import.third_party_modules": "count",
    "topology.build_s": "s",
    "topology.builds": "count",
    "fabric.run_s": "s",
    "fabric.congestion_solve_s": "s",
    "fabric.congestion_solve_calls": "count",
    "fabric.routing_s": "s",
    "fabric.routing_calls": "count",
    "fabric.telemetry_s": "s",
    "fabric.unattributed_s": "s",
    "routecache.hits": "count",
    "routecache.misses": "count",
    "sweep.wall_s": "s",
    "sweep.point_s": "s",
    "sweep.first_result_s": "s",
    "sweep.harness_s": "s",
    "sweep.points": "count",
    "sweep.failed_points": "count",
    "serve.canonicalise_s": "s",
    "serve.cache_get_s": "s",
    "serve.hit_overhead_s": "s",
    "serve.hit_ratio": "ratio",
    "profile.c17_s": "s",
    "kernel.dispatch_s": "s",
    "kernel.events": "count",
    "serve.miss_overhead_s": "s",
    "serve.simulations": "count",
    "serve.kernel_events": "count",
    "serve.rejected": "count",
    "serve.errors": "count",
    "serve.hit_latency_p90_s": "s",
    "serve.miss_latency_p90_s": "s",
    "serve.hit_samples": "count",
    "serve.miss_samples": "count",
    "serve.generator_lag_max_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Set-up is timed in this many fresh processes per run (median reported).
SETUP_PROBES = 6
IMPORT_PROBES = 3
#: How long past ``--seconds`` a workload process may run before it is
#: killed (set-up, checks and the traced run's in-process layers), and
#: how long a set-up or import probe may take.  Together they keep a hung
#: run of 30 s under 180 s.
CHILD_GRACE_S = 45.0
PROBE_TIMEOUT_S = 15.0


class ChildFailed(Exception):
    pass


def run_child(args, env, timeout: float):
    """Run ``work.py`` with ``args``; return (seconds until it printed
    ``ready`` or None, its last stdout line parsed as JSON or None).

    The child gets its own session, so a timeout kills it together with
    any server or pool worker it started.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "work.py")] + args,
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    lines, ready = [], []

    def read() -> None:
        for line in process.stdout:
            if line.strip() == "ready" and not ready:
                ready.append(time.perf_counter() - started)
            lines.append(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise ChildFailed(f"work.py {' '.join(args)} ran past {timeout:.0f} s")
    finally:
        reader.join(timeout=10)
        process.stdout.close()
    if process.returncode != 0:
        raise ChildFailed(f"work.py {' '.join(args)} exited {process.returncode}")
    last = lines[-1].strip() if lines else ""
    return (ready[0] if ready else None,
            json.loads(last) if last.startswith("{") else None)


def setup_samples(args, env, scratch: Path):
    """Time from a fresh process to ready, ``SETUP_PROBES`` times, each
    in reference-host seconds (see ``work.REFERENCE_NOMINAL_S``)."""
    samples, references = [], []
    for probe in range(SETUP_PROBES):
        before = work.all_cpus_reference()
        if args.workload == "serve_mixed":
            directory = scratch / f"probe-{probe}"
            directory.mkdir()
            server, _, seconds = work.start_server(directory / "store",
                                                   scratch / "serve.log")
            work.stop_server(server)
        else:
            seconds, _ = run_child(
                ["--role", "setup", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scratch", str(scratch)],
                env, timeout=PROBE_TIMEOUT_S,
            )
        samples.append((probe, seconds))
        references.append((before + work.all_cpus_reference()) / 2)
    return work.scaled(samples, references)


def measure(args, env, scratch: Path) -> dict:
    work_args = ["--role", "work", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.trace:
        imports = [run_child(["--role", "import"], env, PROBE_TIMEOUT_S)[1]
                   for _ in range(IMPORT_PROBES)]
        _, result = run_child(work_args, env, args.seconds + CHILD_GRACE_S)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update({name: value for name, value in result["layers"].items()
                       if name in PER_LAYER})
        for name in ("import.repro_s", "import.third_party_modules"):
            layers[name] = statistics.median(probe[name] for probe in imports)
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in PER_LAYER.items()}
        return result
    samples = setup_samples(args, env, scratch)
    _, result = run_child(work_args, env, args.seconds + CHILD_GRACE_S)
    values = dict(result["metrics"], setup_s=statistics.median(samples))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    result["notes"].append("setup samples (s): " + " ".join(
        f"{sample:.4f}" for sample in samples))
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable table; return the final JSON object."""
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in result["metrics"].items():
        layer = name.rpartition("_")[0] if name.endswith(("_s", "_calls")) else name
        flag = "  (unmeasured)" if layer in result["unmeasured"] else ""
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}{flag}")
    if args.trace:
        unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
        print(f"  unattributed remainder: {unattributed:.1%} of the traced "
              "operation's wall time")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {correct}")
    for note in result["notes"]:
        print(f"  {note}")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(work.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]  # for servers started here
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result = measure(args, env, scratch)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    final = report(args, result)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
