"""Every committed golden fingerprint still matches a fresh run.

These are the conformance tests behind ``python -m repro validate --check``:
a behaviour change anywhere in the stack that shifts a deterministic result
fails here with a drift-explaining message, and the fix is either to revert
the behaviour or consciously re-record with
``PYTHONPATH=src python -m repro validate --record``.
"""

import pathlib

import pytest

from repro.profiles import PROFILES
from repro.sweep import named_sweep, run_sweep
from repro.validate import (
    SCHEMA,
    GoldenStore,
    profile_fingerprint,
    run_validated,
    sweep_fingerprint,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture(scope="module")
def store():
    return GoldenStore(GOLDEN_DIR)


class TestCommittedGoldens:
    def test_every_profile_and_sweep_has_a_golden(self, store):
        documents = store.documents()
        ids = {(d["kind"], d["id"]) for d in documents}
        for profile_id in PROFILES:
            assert ("profile", profile_id) in ids
        for sweep_name in ("smoke", "congestion", "resilience"):
            assert ("sweep", sweep_name) in ids
        assert all(d["schema"] == SCHEMA for d in documents)

    @pytest.mark.parametrize("profile_id", sorted(PROFILES))
    def test_profile_matches_golden(self, store, profile_id):
        result, checker = run_validated(profile_id)
        assert checker.ok, checker.summary()
        drifts = store.check(profile_fingerprint(result))
        assert drifts == [], "\n".join(drifts)

    @pytest.mark.parametrize(
        "sweep_name", ["smoke", "resilience", "reliability"]
    )
    def test_sweep_matches_golden(self, store, sweep_name):
        document = sweep_fingerprint(
            run_sweep(named_sweep(sweep_name), workers=1)
        )
        drifts = store.check(document)
        assert drifts == [], "\n".join(drifts)

    def test_congestion_sweep_matches_golden(self, store):
        document = sweep_fingerprint(
            run_sweep(named_sweep("congestion"), workers=1)
        )
        drifts = store.check(document)
        assert drifts == [], "\n".join(drifts)
