"""Tests for the seeded random source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RandomSource


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RandomSource(seed=7)
        b = RandomSource(seed=7)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomSource(seed=7)
        b = RandomSource(seed=8)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = RandomSource(seed=7).fork("child")
        b = RandomSource(seed=7).fork("child")
        assert a.uniform() == b.uniform()

    def test_fork_streams_are_independent(self):
        parent = RandomSource(seed=7)
        child_a = parent.fork("a")
        child_b = parent.fork("b")
        assert child_a.uniform() != child_b.uniform()

    def test_fork_name_composes(self):
        child = RandomSource(seed=7, name="root").fork("x")
        assert child.name == "root/x"


class TestCrossProcessDeterminism:
    def test_fork_stable_across_processes(self):
        """Forked streams must not depend on Python's per-process hash
        randomisation (PYTHONHASHSEED) — regression test for the hash()
        -based fork key."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.core.rng import RandomSource;"
            "print(RandomSource(seed=7).fork('watcher').uniform())"
        )
        outputs = set()
        for run in range(2):
            result = subprocess.run(
                # -B: the bare env drops PYTHONDONTWRITEBYTECODE, and the
                # child must not leave bytecode in the checkout.
                [sys.executable, "-B", "-c", script],
                capture_output=True, text=True, check=True,
                env={
                    "PYTHONHASHSEED": str(run),
                    "PATH": "/usr/bin:/bin",
                    # The child must still find repro: the parent may rely
                    # on PYTHONPATH=src (or a venv), and a bare env drops it.
                    "PYTHONPATH": os.pathsep.join(sys.path),
                },
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1


class TestDraws:
    def test_uniform_range(self):
        rng = RandomSource(seed=1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_integer_inclusive(self):
        rng = RandomSource(seed=1)
        values = {rng.integer(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_exponential_positive(self):
        rng = RandomSource(seed=1)
        assert all(rng.exponential(5.0) > 0 for _ in range(50))

    def test_exponential_mean(self):
        rng = RandomSource(seed=1)
        samples = [rng.exponential(10.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.1)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).exponential(0.0)

    def test_lognormal_median(self):
        rng = RandomSource(seed=1)
        samples = sorted(rng.lognormal(4.0, 0.5) for _ in range(4001))
        assert samples[2000] == pytest.approx(4.0, rel=0.15)

    def test_lognormal_rejects_nonpositive_median(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).lognormal(0.0, 1.0)

    def test_pareto_exceeds_scale(self):
        rng = RandomSource(seed=1)
        assert all(rng.pareto(2.0, scale=3.0) > 3.0 for _ in range(100))

    def test_pareto_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).pareto(0.0)

    def test_bernoulli_extremes(self):
        rng = RandomSource(seed=1)
        assert not rng.bernoulli(0.0)
        assert rng.bernoulli(1.0)

    def test_bernoulli_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).bernoulli(1.5)


class TestChoiceAndSample:
    def test_choice_from_singleton(self):
        assert RandomSource(seed=1).choice(["only"]) == "only"

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).choice([])

    def test_weighted_choice_respects_weights(self):
        rng = RandomSource(seed=1)
        picks = [rng.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(50)]
        assert set(picks) == {"b"}

    def test_weighted_choice_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).choice(["a", "b"], weights=[0.0, 0.0])

    def test_sample_distinct(self):
        rng = RandomSource(seed=1)
        sample = rng.sample(list(range(10)), 5)
        assert len(sample) == len(set(sample)) == 5

    def test_sample_too_many_raises(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).sample([1, 2], 3)

    def test_shuffle_preserves_elements(self):
        rng = RandomSource(seed=1)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestPropertyBased:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25)
    def test_any_seed_reproducible(self, seed):
        a = RandomSource(seed=seed)
        b = RandomSource(seed=seed)
        assert a.uniform() == b.uniform()

    @given(
        low=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        width=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_uniform_bounds(self, low, width):
        value = RandomSource(seed=3).uniform(low, low + width)
        assert low <= value <= low + width
