"""``repro serve-request`` against a real listening service.

The client is driven through ``repro.cli.main`` while the service runs
in-process on a :class:`~repro.serve.ServerThread` with a hard quota of
one cold request.
"""

import pytest

from repro.cli import main
from repro.observability import parse_prometheus
from repro.serve import QuotaPolicy, ServerThread


@pytest.fixture
def url(make_app):
    with ServerThread(make_app(quota=QuotaPolicy.parse("0:1"))) as server:
        host, port = server.address
        yield f"http://{host}:{port}"


def _request(capsys, url, *argv):
    code = main(["serve-request", url, *argv])
    return code, capsys.readouterr().out


def test_cold_cached_shed_and_metrics(capsys, url):
    assert _request(capsys, url, "health")[0] == 0

    code, cold = _request(capsys, url, "profile", "C8", "--set", "max_jobs=20")
    assert code == 0
    # A respelling of the same request answers from the store.
    code, cached = _request(
        capsys, url, "profile", "c8", "--set", "max_jobs=20.0"
    )
    assert code == 0
    assert cached == cold
    # The 0:1 budget is spent: a second distinct cold request is shed (429).
    code, _ = _request(capsys, url, "profile", "C8", "--set", "max_jobs=21")
    assert code == 3

    code, exposition = _request(capsys, url, "metrics")
    assert code == 0
    samples = parse_prometheus(exposition)
    assert samples[("serve_requests", 'cache="miss",kind="profile"')] == 1.0
    assert samples[("serve_requests", 'cache="hit",kind="profile"')] == 1.0
    assert samples[("serve_rejected", 'reason="quota",tenant="default"')] == 1.0
    assert samples[("serve_kernel_events", 'kind="profile"')] > 0
    assert samples[("serve_inflight", "")] == 0.0
