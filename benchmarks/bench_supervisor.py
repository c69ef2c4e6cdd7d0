"""Coordinator overhead benchmark: the tcp fleet against local workers.

Runs the same sweep through the supervised local executor and through
the ``tcp`` backend sharding over loopback worker hosts with the same
total worker slots, checks the two runs are bit-identical, and writes
``BENCH_supervisor.json`` with the relative overhead.  The coordinator
tax — socket frames, heartbeats, host-side scheduling — must stay
**under 5%** over the local executor on the congestion-style sweeps
whose per-point cost it exists to protect; CI gates on
``tcp_overhead_pct``.  The local executor's own cost is gated by
perfbench's ``sweep_congestion`` workload.

The modes are *interleaved*: each repetition runs local, then tcp, and
the best (minimum) wall time per mode is kept — a slow system phase
lands on both modes instead of biasing whichever one a block-sequential
schedule happened to run through it.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_supervisor.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib

from repro.sweep import FleetConfig, SupervisorConfig, named_sweep, run_sweep

#: CI gate: tcp wall time may exceed the local executor's by this much.
MAX_OVERHEAD_PCT = 5.0

#: Loopback worker hosts the tcp mode shards over (when the local
#: worker count divides across them; otherwise one host takes every
#: slot so total slots always equal the local mode's worker count).
TCP_HOSTS = 2


def _worker_main(port: int, name: str, slots: int) -> None:
    """A long-lived loopback worker host: serve sweeps until killed.

    Mirrors a production ``repro sweep-worker`` daemon — ``run_worker``
    returns 0 after each orderly shutdown frame and the host dials the
    (fixed) coordinator port again for the next repetition.
    """
    from repro.sweep.remote_worker import run_worker

    while run_worker(
        f"127.0.0.1:{port}", slots=slots, name=name, connect_timeout=60.0
    ) == 0:
        pass


def _free_port() -> int:
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _TcpFleet:
    """Long-lived loopback worker hosts reused across repetitions.

    Total fleet slots match the local mode's worker count so the
    comparison isolates coordination overhead, not parallelism.  The
    worker-host processes boot once and reconnect for each repetition:
    hosts are long-lived daemons in production, so their boot cost is
    deployment latency, not the per-sweep coordination tax this gate
    protects.
    """

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.hosts = (
            TCP_HOSTS
            if workers >= TCP_HOSTS and workers % TCP_HOSTS == 0
            else 1
        )
        slots = workers // self.hosts
        self.port = _free_port()
        self.processes = [
            context.Process(
                target=_worker_main, args=(self.port, f"bench{rank}", slots)
            )
            for rank in range(self.hosts)
        ]
        for process in self.processes:
            process.start()

    def run(self, spec):
        return run_sweep(
            spec, backend="tcp", config=SupervisorConfig(timeout=600.0),
            fleet=FleetConfig(
                listen=f"127.0.0.1:{self.port}",
                min_hosts=self.hosts, wait_for_hosts=60.0,
            ),
        )

    def stop(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", default="congestion",
                        choices=("congestion", "smoke"))
    parser.add_argument("--workers", type=int, default=None,
                        help="worker slots for both modes "
                             "(default: min(4, cpu_count))")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per mode; best wall time is kept")
    parser.add_argument("--quick", action="store_true",
                        help="2 reps per mode — the CI configuration "
                             "(the sweep stays full-size: the gate needs "
                             "real per-point cost, not spawn latency)")
    parser.add_argument("--output", default="BENCH_supervisor.json")
    args = parser.parse_args()
    if args.quick:
        args.reps = 2
    workers = args.workers or min(4, os.cpu_count() or 1)

    spec = named_sweep(args.sweep)
    best = {}

    def keep(mode, result):
        if (
            mode not in best
            or result.wall_seconds < best[mode].wall_seconds
        ):
            best[mode] = result

    fleet = _TcpFleet(workers)
    try:
        for _ in range(args.reps):
            keep("local", run_sweep(spec, workers=workers, backend="local"))
            keep("tcp", fleet.run(spec))
    finally:
        fleet.stop()
    local = best["local"]
    tcp = best["tcp"]
    identical = tcp.fingerprint() == local.fingerprint()
    overhead_pct = (
        (tcp.wall_seconds - local.wall_seconds)
        / local.wall_seconds * 100.0
        if local.wall_seconds else float("inf")
    )
    document = {
        "schema": "repro.bench/v1",
        "benchmark": "coordinator_overhead",
        "sweep": spec.name,
        "points": len(local.points),
        "workers": workers,
        "reps": args.reps,
        "local_seconds": local.wall_seconds,
        "tcp_seconds": tcp.wall_seconds,
        "tcp_hosts": fleet.hosts,
        "tcp_overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "tcp_bit_identical": identical,
        "fingerprint": local.fingerprint(),
        "harness": tcp.harness,
        "cpu_count": os.cpu_count(),
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"{len(local.points)} points x {workers} worker slots: "
          f"local {local.wall_seconds:.2f}s, tcp over {fleet.hosts} "
          f"loopback host(s) {tcp.wall_seconds:.2f}s "
          f"(overhead {overhead_pct:+.1f}%, bit-identical: {identical})")
    print(f"wrote {path}")
    if not identical:
        print("ERROR: tcp fleet run diverged from the local executor")
        return 1
    if overhead_pct > MAX_OVERHEAD_PCT:
        print(f"ERROR: tcp coordination overhead {overhead_pct:.1f}% "
              f"exceeds the {MAX_OVERHEAD_PCT:.0f}% budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
