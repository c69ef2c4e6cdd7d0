"""``repro serve``: the long-running simulation service.

The paper's delivery-model thesis (§IV) is that heterogeneous HPC gets
consumed *as a service*; ROADMAP item 3 applies that to this repo
itself.  ``python -m repro serve`` turns the cold per-CLI-invocation
cost model into a resident asyncio HTTP/JSON API — stdlib only — whose
pieces map onto the classic HPC-cloud service stack:

* **canonical requests & caching** — every request normalises through
  :func:`repro.validate.fingerprint.canonical_request` and hashes to a
  fingerprint; identical requests (any spelling) answer from the
  artefact store with **zero simulation** (:mod:`repro.serve.cache`);
* **admission control** — per-tenant token-bucket quotas plus bounded
  in-flight load shedding, 429 + ``Retry-After``
  (:mod:`repro.serve.admission`);
* **execution** — jobs run through the supervised sweep harness
  (journalled, parent-sentinel worker cleanup), so a SIGKILLed service
  restarted on the same store *resumes* interrupted sweeps
  (:mod:`repro.serve.app`);
* **observability** — ``serve.*`` counters on a Telemetry registry,
  scraped at ``/metrics`` in the Prometheus exposition, with NDJSON
  progress streaming reusing the sweep progress reporter
  (:mod:`repro.serve.handlers`);
* **test harness** — an in-process :class:`ServiceClient` and a real
  socket :class:`ServerThread` fixture (:mod:`repro.serve.testing`).

Quickstart::

    python -m repro serve --port 7750 --store /tmp/repro-store
    python -m repro serve-request http://127.0.0.1:7750 profile C1
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".admission": (
        "AdmissionController", "AdmissionDecision", "QuotaPolicy",
        "TokenBucket",
    ),
    ".app": ("ServeConfig", "ServiceApp"),
    ".cache": ("ResultCache",),
    ".client": ("http_request",),
    ".handlers": ("SERVE_SCHEMA", "build_body"),
    ".http": (
        "NdjsonResponse", "ProtocolError", "Response", "ServeRequest",
        "error_response", "json_response",
    ),
    ".testing": ("ClientResponse", "ServerThread", "ServiceClient"),
})

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ClientResponse",
    "NdjsonResponse",
    "ProtocolError",
    "QuotaPolicy",
    "Response",
    "ResultCache",
    "SERVE_SCHEMA",
    "ServeConfig",
    "ServeRequest",
    "ServerThread",
    "ServiceApp",
    "ServiceClient",
    "TokenBucket",
    "build_body",
    "error_response",
    "http_request",
    "json_response",
]
