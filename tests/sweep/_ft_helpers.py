"""Shared fault-tolerance test targets and specs.

Importable both from the test process (forked supervisor workers inherit
the registrations) and from subprocess scripts (``python -c "import
tests.sweep._ft_helpers"`` with the repo root on ``sys.path``), so the
parent-SIGKILL resume tests can rebuild the exact same sweep spec on
both sides of the kill.
"""

import os
import pathlib
import time

from repro.sweep import SweepSpec, register_target


@register_target("ft-cheap")
def ft_cheap(params, telemetry, rng):
    """Milliseconds-cheap deterministic point: value = 2x + U(seed, index)."""
    telemetry.metrics.counter("ft.runs").inc()
    return {"value": 2.0 * float(params["x"]) + rng.uniform()}


@register_target("ft-slow")
def ft_slow(params, telemetry, rng):
    """Like ft-cheap but takes a configurable wall-clock beat per point."""
    time.sleep(float(params.get("sleep_s", 0.05)))
    return {"value": 2.0 * float(params["x"]) + rng.uniform()}


@register_target("ft-crash-once")
def ft_crash_once(params, telemetry, rng):
    """``os._exit`` the worker on the first attempt of each point only.

    A marker file under ``params['marker_dir']`` distinguishes attempts,
    so the retry (a fresh worker) completes deterministically.
    """
    marker = pathlib.Path(params["marker_dir"]) / f"crashed-{params['x']}"
    if not marker.exists():
        marker.write_text("first attempt\n")
        os._exit(21)
    return {"value": float(params["x"])}


@register_target("ft-hang-once")
def ft_hang_once(params, telemetry, rng):
    """Hang far past any timeout on the first attempt of each point only."""
    marker = pathlib.Path(params["marker_dir"]) / f"hung-{params['x']}"
    if not marker.exists():
        marker.write_text("first attempt\n")
        time.sleep(60.0)
    return {"value": float(params["x"])}


@register_target("ft-sigkill-once")
def ft_sigkill_once(params, telemetry, rng):
    """SIGKILL the worker (not a clean exit) on each point's first attempt."""
    import signal

    marker = pathlib.Path(params["marker_dir"]) / f"killed-{params['x']}"
    if not marker.exists():
        marker.write_text("first attempt\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": float(params["x"])}


@register_target("ft-always-crash")
def ft_always_crash(params, telemetry, rng):
    os._exit(23)


@register_target("ft-crash-at")
def ft_crash_at(params, telemetry, rng):
    """``os._exit`` the worker on every attempt of one point only."""
    if int(params["x"]) == int(params.get("crash_at", 1)):
        os._exit(24)
    return {"value": float(params["x"])}


@register_target("ft-pid")
def ft_pid(params, telemetry, rng):
    """Report the process that ran the point."""
    return {"pid": float(os.getpid())}


@register_target("ft-boom")
def ft_boom(params, telemetry, rng):
    """In-worker exception (no process death) on odd points only."""
    if int(params["x"]) % 2 == 1:
        raise RuntimeError(f"boom on x={params['x']}")
    return {"value": float(params["x"])}


@register_target("ft-interrupt")
def ft_interrupt(params, telemetry, rng):
    """Ctrl-C the sweep's parent process while a specific point runs."""
    import signal

    if int(params["x"]) == int(params.get("interrupt_at", 2)):
        os.kill(os.getppid(), signal.SIGINT)
    return {"value": float(params["x"])}


def cheap_spec(n=6, seed=77, target="ft-cheap", **extra_axes):
    grid = {"x": list(range(n))}
    grid.update(extra_axes)
    return SweepSpec(name="ft", target=target, grid=grid, seed=seed)


def slow_spec(n=8, seed=101, sleep_s=0.05):
    return SweepSpec(
        name="ft-slow",
        target="ft-slow",
        grid={"x": list(range(n)), "sleep_s": [sleep_s]},
        seed=seed,
    )


@register_target("ft-telemetry")
def ft_telemetry(params, telemetry, rng):
    """Deterministic labelled counter + histogram traffic per point.

    Exercises the cross-process telemetry merge: every point contributes
    to a shared counter, a labelled series and a histogram, so the merged
    aggregate is sensitive to lost, duplicated or re-ordered summaries.
    """
    time.sleep(float(params.get("sleep_s", 0.0)))
    x = float(params["x"])
    telemetry.metrics.counter("ft.runs").inc()
    telemetry.metrics.counter("ft.value").inc(x + 0.25, parity=int(x) % 2)
    telemetry.metrics.histogram("ft.size", buckets=[1.0, 4.0, 16.0]).observe(x)
    telemetry.metrics.gauge("ft.last_x").set(x)
    return {"value": 2.0 * x + rng.uniform()}


def telemetry_spec(n=8, seed=11, sleep_s=0.0):
    return SweepSpec(
        name="ft-telemetry",
        target="ft-telemetry",
        grid={"x": list(range(n)), "sleep_s": [sleep_s]},
        seed=seed,
    )
