"""The serve path's two cost gates, through the in-process dispatch path.

* A cached request must be served at least 10x faster than a cold one,
  and without simulating (``serve.kernel_events`` does not move).  This
  is measured in a fresh interpreter, whose first cold request pays the
  profile path's imports and first-run set-up (~0.2 s on a 2-vCPU
  x86-64 host).  In a warm process a cold 4-11-job C8 request takes
  only ~2.5 ms against ~0.25 ms for a hit, so the ratio there sits near
  the bound, and the order earlier tests ran in would decide the result.
  The fresh-process ratio therefore mostly reflects that cold start,
  spread over 8 cold requests: a hit path up to ~10x slower would still
  pass it.  What this test really guards is that a hit does not
  simulate; it is not a bound on the speed of the hit path.
* The hit path is bounded in a warm process instead: imports and
  first-run set-up are paid by an earlier request, and a hit must then
  be at least 30x faster than cold requests whose simulation dominates
  their cost: 118-120-job C8 runs of ~17-30 ms against ~0.21-0.32 ms
  for a hit, 82-98x over eleven runs on a 2-vCPU x86-64 host.  A hit
  path ~3x slower is at the bound, and one ~10x slower fails it.
* One admission decision must cost at most 5% of a cached request.
  Cache hits skip admission, so a quota-on vs quota-off A/B would time
  identical code.  The decision's own cost is timed instead, over many
  admit/release pairs, as a fraction of the cached service time.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from repro.serve import (
    AdmissionController,
    QuotaPolicy,
    ServeConfig,
    ServiceApp,
    ServiceClient,
)

MIN_CACHED_SPEEDUP = 10.0
MIN_WARM_HIT_SPEEDUP = 30.0
MAX_ADMISSION_SHARE = 0.05

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _request(index):
    return {"profile": "C8", "params": {"max_jobs": 4 + index}}


def _requests_per_second(client, requests):
    begin = time.perf_counter()
    for request in requests:
        response = client.post("/v1/profile", request)
        assert response.status == 200, response.body[:200]
    return len(requests) / (time.perf_counter() - begin)


def cold_and_cached_rps(store):
    """8 distinct cold requests, then 200 hits on the first of them."""
    app = ServiceApp(ServeConfig(store=store, sweep_workers=1))
    try:
        client = ServiceClient(app)
        cold = _requests_per_second(client, [_request(i) for i in range(8)])
        events = app.counter("serve.kernel_events").total()
        cached = _requests_per_second(client, [_request(0)] * 200)
        simulated = app.counter("serve.kernel_events").total() - events
    finally:
        app.close()
    return {"cold": cold, "cached": cached, "simulated": simulated}


def test_cached_requests_are_ten_times_faster_than_cold(tmp_path):
    code = (
        "import json, sys\n"
        "from tests.serve.test_cache_gates import cold_and_cached_rps\n"
        "print(json.dumps(cold_and_cached_rps(sys.argv[1])))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "store")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    rps = json.loads(run.stdout)
    assert rps["simulated"] == 0
    speedup = rps["cached"] / rps["cold"]
    assert speedup >= MIN_CACHED_SPEEDUP, (
        f"cached {rps['cached']:.1f} req/s is only {speedup:.1f}x "
        f"cold {rps['cold']:.1f} req/s"
    )


def _fastest_batch_seconds(client, request, batches=5, size=50):
    """Per-request seconds of the fastest of ``batches`` batches."""
    best = float("inf")
    for _ in range(batches):
        begin = time.perf_counter()
        for _ in range(size):
            response = client.post("/v1/profile", request)
            assert response.status == 200, response.body[:200]
        best = min(best, (time.perf_counter() - begin) / size)
    return best


def test_a_warm_hit_is_far_faster_than_a_simulation(app):
    client = ServiceClient(app)
    client.post("/v1/profile", _request(0))  # imports and first-run set-up
    # Three distinct cold requests whose simulation dominates their
    # cost; the fastest is the conservative yardstick.
    heavy = [
        {"profile": "C8", "params": {"max_jobs": jobs}}
        for jobs in (118, 119, 120)
    ]
    cold = min(_fastest_batch_seconds(client, request, 1, 1) for request in heavy)
    events = app.counter("serve.kernel_events").total()
    hit = _fastest_batch_seconds(client, heavy[0])
    assert app.counter("serve.kernel_events").total() == events
    speedup = cold / hit
    assert speedup >= MIN_WARM_HIT_SPEEDUP, (
        f"a hit takes {hit * 1e3:.2f} ms, only {speedup:.1f}x faster than "
        f"a {cold * 1e3:.1f} ms cold request"
    )


def test_admission_costs_under_five_percent_of_a_cached_request(app):
    client = ServiceClient(app)
    hot = _request(0)
    client.post("/v1/profile", hot)  # warm the cache
    batches = []
    for _ in range(5):
        begin = time.perf_counter()
        for _ in range(50):
            client.post("/v1/profile", hot)
        batches.append((time.perf_counter() - begin) / 50)
    cached_seconds = min(batches)

    controller = AdmissionController(
        max_queue=4, quota=QuotaPolicy(rate=1e9, burst=1e9)
    )
    iterations = 10_000
    begin = time.perf_counter()
    for _ in range(iterations):
        controller.admit("default")
        controller.release()
    admit_seconds = (time.perf_counter() - begin) / iterations
    share = admit_seconds / cached_seconds
    assert share <= MAX_ADMISSION_SHARE, (
        f"admission {admit_seconds * 1e6:.1f} us is {share:.1%} of a "
        f"{cached_seconds * 1e6:.0f} us cached request"
    )
