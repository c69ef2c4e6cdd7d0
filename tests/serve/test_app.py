"""The full submit path, in process: cache, coalesce, admit, execute.

Driven through :class:`repro.serve.ServiceClient`, which calls
``ServiceApp.dispatch`` directly — the exact code the socket serves,
minus the socket.
"""

import asyncio
import json

from repro.serve import QuotaPolicy, ServiceClient
from repro.serve.http import ServeRequest
from repro.validate import request_fingerprint

from tests.serve.conftest import EVENT_PROFILE, SMALL_PROFILE, SMALL_SWEEP


def kernel_events(app) -> float:
    return app.counter("serve.kernel_events").total()


class TestRouting:
    def test_health(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json()["status"] == "ok"

    def test_unknown_path_is_404(self, client):
        assert client.get("/nope").status == 404

    def test_wrong_method_is_405(self, client):
        assert client.request("GET", "/v1/profile").status == 405

    def test_malformed_json_is_400(self, client):
        request = ServeRequest.from_target(
            "POST", "/v1/profile", None, b"{not json"
        )
        response = asyncio.run(client.app.dispatch(request))
        assert response.status == 400

    def test_kind_mismatch_is_redirected_with_400(self, client):
        response = client.post("/v1/sweep", SMALL_PROFILE)
        assert response.status == 400
        assert b"/v1/profile" in response.body


class TestProfileRequests:
    def test_c17_with_scrubbing_off_is_served(self, client):
        """JSON cannot carry ``inf``; 0 is a request's "scrubbing off"."""
        response = client.post("/v1/profile", {
            "profile": "C17",
            "params": {"scrub_interval": 0, "max_jobs": 20},
        })
        assert response.status == 200, response.body


class TestProfileCaching:
    def test_cold_then_cached_byte_identical_zero_simulation(self, client):
        app = client.app
        cold = client.post("/v1/profile", EVENT_PROFILE)
        assert cold.status == 200
        assert cold.headers["X-Cache"] == "miss"
        burned = kernel_events(app)
        assert burned > 0  # the cold run really simulated

        hot = client.post("/v1/profile", EVENT_PROFILE)
        assert hot.status == 200
        assert hot.headers["X-Cache"] == "hit"
        assert hot.body == cold.body
        assert kernel_events(app) == burned  # zero simulation on the hit

    def test_respelled_request_hits_the_same_entry(self, client):
        cold = client.post("/v1/profile", SMALL_PROFILE)
        respelled = {
            "profile": "c1",
            "params": {
                "routers_per_group": 3.0,
                "groups": 5.0,
                "aggressors": 4.0,
                "congestion": "flow",  # the default, spelled out
            },
        }
        hot = client.post("/v1/profile", respelled)
        assert hot.headers["X-Cache"] == "hit"
        assert hot.body == cold.body

    def test_response_envelope_is_deterministic_json(self, client):
        response = client.post("/v1/profile", SMALL_PROFILE)
        document = response.json()
        assert document["schema"] == "repro.serve/v1"
        assert document["kind"] == "profile"
        assert document["fingerprint"] == request_fingerprint(SMALL_PROFILE)
        assert document["fingerprint"] == response.headers["X-Fingerprint"]
        # Canonical serialisation: sorted keys, trailing newline.
        assert response.body == (
            json.dumps(document, sort_keys=True) + "\n"
        ).encode()

    def test_bad_parameter_is_a_400_naming_it(self, client):
        response = client.post(
            "/v1/profile", {"profile": "C1", "params": {"bananas": 1}}
        )
        assert response.status == 400
        assert b"bananas" in response.body
        assert client.app.counter("serve.bad_requests").total() == 1


class TestSweepCaching:
    def test_sweep_cold_then_cached(self, client):
        cold = client.post("/v1/sweep", SMALL_SWEEP)
        assert cold.status == 200
        assert cold.headers["X-Cache"] == "miss"
        document = cold.json()
        assert document["kind"] == "sweep"
        assert document["request"]["target"] == "fabric-congestion"

        hot = client.post("/v1/sweep", SMALL_SWEEP)
        assert hot.headers["X-Cache"] == "hit"
        assert hot.body == cold.body

    def test_journal_is_gone_after_completion(self, client):
        client.post("/v1/sweep", SMALL_SWEEP)
        fingerprint = request_fingerprint(SMALL_SWEEP)
        assert not client.app.cache.journal_path(fingerprint).exists()
        assert client.app.cache.artefact_path(fingerprint).exists()


class TestStreaming:
    def test_cold_sweep_stream_has_progress_and_result(self, client):
        response = client.post("/v1/sweep?stream=1", SMALL_SWEEP)
        events = response.ndjson()
        assert events[0]["event"] == "accepted"
        assert events[0]["cache"] == "miss"
        progress = [e for e in events if e["event"] == "progress"]
        assert [p["done"] for p in progress] == [1, 2]
        assert progress[-1]["total"] == 2
        assert events[-1]["event"] == "result"
        # The streamed result is the same document a plain POST returns.
        plain = client.post("/v1/sweep", SMALL_SWEEP)
        assert events[-1]["response"] == plain.json()

    def test_cached_stream_is_accepted_then_result(self, client):
        client.post("/v1/profile", SMALL_PROFILE)
        response = client.post("/v1/profile?stream=1", SMALL_PROFILE)
        events = response.ndjson()
        assert [e["event"] for e in events] == ["accepted", "result"]
        assert events[0]["cache"] == "hit"


class TestCoalescing:
    def test_concurrent_identical_requests_run_one_job(self, app):
        body = json.dumps(SMALL_PROFILE).encode()
        request = ServeRequest.from_target("POST", "/v1/profile", None, body)

        async def race():
            return await asyncio.gather(
                app.dispatch(request), app.dispatch(request)
            )

        first, second = asyncio.run(race())
        caches = sorted(
            r.headers["X-Cache"] for r in (first, second)
        )
        assert caches == ["coalesced", "miss"]
        assert first.body == second.body
        assert app.counter("serve.simulations").total() == 1


class TestAdmissionIntegration:
    def test_quota_sheds_cold_requests_but_never_cache_hits(self, make_app):
        app = make_app(quota=QuotaPolicy(rate=0.0, burst=1.0))
        client = ServiceClient(app)
        assert client.post("/v1/profile", SMALL_PROFILE).status == 200

        other = {"profile": "C1", "params": {"aggressors": 5}}
        shed = client.post("/v1/profile", other)
        assert shed.status == 429
        assert shed.headers["Retry-After"] == "60"
        assert shed.headers["X-Reject-Reason"] == "quota"

        # The budget is gone, but the cached artefact still answers.
        hot = client.post("/v1/profile", SMALL_PROFILE)
        assert hot.status == 200
        assert hot.headers["X-Cache"] == "hit"
        assert app.counter("serve.rejected").total() == 1


class TestMetrics:
    def test_scrape_exposes_serve_counters_and_gauges(self, client):
        client.post("/v1/profile", SMALL_PROFILE)
        client.post("/v1/profile", SMALL_PROFILE)
        response = client.get("/metrics")
        assert response.status == 200
        text = response.body.decode()
        assert 'serve_requests{cache="miss",kind="profile"} 1.0' in text
        assert 'serve_requests{cache="hit",kind="profile"} 1.0' in text
        assert "serve_cache_memory_hits" in text
        assert "serve_inflight 0.0" in text
