"""Tests for the retry policy's backoff arithmetic."""

import pytest

from repro.core.errors import ConfigurationError
from repro.resilience import RetryPolicy


class TestValidation:
    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)

    def test_rejects_submultiplicative_growth(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)


class TestBackoff:
    def test_exponential_progression(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=2.0)
        assert [policy.backoff(n) for n in range(4)] == [10.0, 20.0, 40.0, 80.0]

    def test_cap_applies(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=10.0, max_delay=500.0)
        assert policy.backoff(5) == 500.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1)
