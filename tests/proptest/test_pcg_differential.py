"""The stdlib PCG64 of :mod:`repro.core.pcg`, method by method, against numpy.

``test_rng_differential`` checks the :class:`~repro.core.rng.RandomSource`
API end to end; these cases pin each generator primitive on its own, at the
inputs where its algorithm branches: entropy longer than the seed pool,
state requests past the precomputed hash constants, the 32-bit, 64-bit and
full-width paths of the bounded draw, and both of numpy's
``choice(replace=False)`` algorithms.
"""

import numpy as np
import pytest

from repro.core.pcg import PCG64, seed_state

M32 = 2**32 - 1
M64 = 2**64 - 1


@pytest.mark.parametrize("entropy", [
    0, 1, 2**32, 2**128 + 5, [1, 2], list(range(10)), [2**40, 7, 0, 9, 11],
], ids=repr)
@pytest.mark.parametrize("n_words", [1, 4, 8, 20])
def test_seed_state_matches_seed_sequence(entropy, n_words):
    expected = np.random.SeedSequence(entropy).generate_state(n_words)
    assert seed_state(entropy, n_words) == [int(word) for word in expected]


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 3])
def test_raw_stream_matches_bit_generator(seed):
    ours = PCG64(seed)
    expected = np.random.PCG64(seed).random_raw(1000)
    assert [ours.next64() for _ in range(1000)] == [int(x) for x in expected]


@pytest.mark.parametrize("rng", [
    0, 1, 6, M32 - 1, M32, M32 + 1, 2**63, M64,
])
def test_bounded_matches_uint64_integers(rng):
    ours, oracle = PCG64(3), np.random.default_rng(3)
    mine = [ours.bounded(rng) for _ in range(300)]
    theirs = [
        int(oracle.integers(0, rng, endpoint=True, dtype=np.uint64))
        for _ in range(300)
    ]
    assert mine == theirs


@pytest.mark.parametrize("population, size", [
    (10, 3), (10, 10), (100, 1), (5, 0),
    # Past 10,000 with more than a fiftieth drawn, numpy switches from
    # Floyd's algorithm to a tail shuffle.
    (20000, 100), (20000, 1000),
])
def test_choice_without_replacement_matches_numpy(population, size):
    ours, oracle = PCG64(9), np.random.default_rng(9)
    mine = ours.choice_without_replacement(population, size)
    theirs = oracle.choice(population, size, replace=False)
    assert mine == [int(x) for x in theirs]
    assert len(set(mine)) == size


@pytest.mark.parametrize("probabilities", [
    [0.5, 0.5], [0.1, 0.2, 0.7], [1.0], [0.0, 1.0, 0.0], [0.25] * 4,
], ids=repr)
def test_weighted_index_matches_choice_with_p(probabilities):
    ours, oracle = PCG64(11), np.random.default_rng(11)
    mine = [ours.weighted_index(probabilities) for _ in range(300)]
    theirs = [
        int(oracle.choice(len(probabilities), p=probabilities))
        for _ in range(300)
    ]
    assert mine == theirs


@pytest.mark.parametrize("length", [0, 1, 2, 10, 1000])
def test_shuffle_matches_generator_shuffle(length):
    ours, oracle = PCG64(5), np.random.default_rng(5)
    mine, theirs = list(range(length)), list(range(length))
    ours.shuffle(mine)
    oracle.shuffle(theirs)
    assert mine == theirs


def test_unseeded_generators_draw_from_os_entropy():
    assert PCG64().next64() != PCG64().next64()
