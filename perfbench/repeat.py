"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 --seconds 30 [--workload NAME ...]
        [--first-seed 1] [--label set-a] [--record perfbench/provenance.json]

Runs ``perfbench/run.py`` once per (seed, workload), seeds outermost so
the workloads interleave, from the root of a checkout.  For every
end-to-end metric it prints the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  ``--record`` stores the values, the
spreads and the host facts under ``--label`` in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent


def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def spread(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [
        entry["name"]
        for entry in json.loads(Path("BENCHMARK.json").read_text())["workloads"]
    ]
    values = {workload: {} for workload in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if completed.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {completed.returncode}\n"
                      f"{completed.stdout}{completed.stderr}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}"
                for name, metric in result["metrics"].items()
            ), flush=True)
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, series in metrics.items():
            summary[workload][name] = {
                "median": statistics.median(series),
                "spread": spread(series) if len(series) > 1 else 0.0,
                "values": series,
            }
            print(f"{workload:18s} {name:20s} median {statistics.median(series):<12.5g} "
                  f"spread {summary[workload][name]['spread']:.2%}")
    if args.record is not None:
        document = (json.loads(args.record.read_text())
                    if args.record.exists() else {})
        document.setdefault("sets", {})[args.label or f"set-{len(document.get('sets', {})) + 1}"] = {
            "host": host_facts(),
            "runs": args.runs,
            "seconds": args.seconds,
            "first_seed": args.first_seed,
            "metrics": summary,
        }
        args.record.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
