"""Admission control under a fake clock: quotas, shedding, accounting."""

import math

import pytest

from repro.serve import AdmissionController, QuotaPolicy, TokenBucket


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_reject_with_honest_retry_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.take().admitted for _ in range(3)] == [True] * 3
        decision = bucket.take()
        assert not decision.admitted
        assert decision.reason == "quota"
        # Empty bucket at 2 tokens/s: one token exists in 0.5s.
        assert decision.retry_after == pytest.approx(0.5)

    def test_refill_restores_tokens_up_to_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        for _ in range(3):
            bucket.take()
        clock.now = 1.0  # +2 tokens
        assert bucket.take().admitted
        assert bucket.take().admitted
        assert not bucket.take().admitted
        clock.now = 100.0  # refill saturates at burst, not beyond
        assert [bucket.take().admitted for _ in range(4)] == (
            [True, True, True, False]
        )

    def test_zero_rate_is_a_hard_budget(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock)
        assert bucket.take().admitted
        assert bucket.take().admitted
        decision = bucket.take()
        assert not decision.admitted
        assert math.isinf(decision.retry_after)
        clock.now = 1e9  # no refill, ever
        assert not bucket.take().admitted


class TestQuotaPolicy:
    def test_parse_rate_and_burst(self):
        assert QuotaPolicy.parse("0:2") == QuotaPolicy(rate=0.0, burst=2.0)
        assert QuotaPolicy.parse("1.5:8") == QuotaPolicy(rate=1.5, burst=8.0)

    @pytest.mark.parametrize("text", ["", "abc", "1:x", "-1:2", "1:-2"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            QuotaPolicy.parse(text)

    @pytest.mark.parametrize(
        "text, field",
        [("nan:1", "rate"), ("1:nan", "burst"), ("inf:1", "rate"),
         ("1:-inf", "burst"), ("nan", "rate")],
    )
    def test_parse_rejects_non_finite_naming_the_field(self, text, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            QuotaPolicy.parse(text)


class TestAdmissionController:
    def test_queue_gate_sheds_past_the_bound(self):
        controller = AdmissionController(max_queue=2, clock=FakeClock())
        assert controller.admit("a").admitted
        assert controller.admit("a").admitted
        decision = controller.admit("a")
        assert (decision.admitted, decision.reason) == (False, "queue")
        assert decision.retry_after == 1.0
        controller.release()
        assert controller.admit("a").admitted

    def test_rejection_takes_neither_slot_nor_token(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_queue=1, quota=QuotaPolicy(rate=0.0, burst=5.0), clock=clock
        )
        assert controller.admit("a").admitted
        assert controller.admit("a").reason == "queue"  # queue full
        assert controller.inflight == 1
        # The queue rejection burned no token: 4 of 5 remain.
        assert controller.buckets["a"].tokens == pytest.approx(4.0)
        controller.release()
        assert controller.inflight == 0

    def test_quotas_are_per_tenant(self):
        controller = AdmissionController(
            max_queue=8,
            quota=QuotaPolicy(rate=0.0, burst=1.0),
            clock=FakeClock(),
        )
        assert controller.admit("alice").admitted
        assert controller.admit("alice").reason == "quota"
        assert controller.admit("bob").admitted  # separate bucket

    def test_retry_after_is_capped(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_queue=8,
            quota=QuotaPolicy(rate=0.001, burst=1.0),
            clock=clock,
            retry_after_cap=60.0,
        )
        assert controller.admit("a").admitted
        decision = controller.admit("a")
        assert decision.reason == "quota"
        assert decision.retry_after == 60.0

    def test_snapshot_is_json_ready(self):
        controller = AdmissionController(
            max_queue=4,
            quota=QuotaPolicy(rate=0.0, burst=2.0),
            clock=FakeClock(),
        )
        controller.admit("alice")
        snapshot = controller.snapshot()
        assert snapshot["inflight"] == 1
        assert snapshot["max_queue"] == 4
        assert snapshot["quota_rate"] == 0.0
        assert snapshot["tenants"] == {"alice": 1.0}
