"""The pure-Python random streams and statistics against numpy.

:class:`repro.core.rng.RandomSource` draws with the stdlib-only PCG64 of
:mod:`repro.core.pcg`; :class:`NumpySource` below is the same API on
``numpy.random.default_rng``, the implementation it replaced.  Both run
the same interleaved call sequences -- mixing 32-bit draws (which share
the generator's buffered half-word) with 64-bit, float and ziggurat draws
-- and every result must be identical to the last bit, as must every
``fork``/``spawn`` child.  The summary statistics are checked the same
way against ``np.mean``/``np.std``/``np.percentile`` at the lengths where
numpy's pairwise summation changes shape (below 8, one block of 128,
just past it, and over 1,000).

``run_interleaved`` takes any seed and call count, so the same check runs
at scale outside the suite, e.g. ``run_interleaved(seed, 100_000)`` over a
set of seeds the suite does not use.
"""

import math
import random
import struct
import zlib

import numpy as np
import pytest

from repro.analysis.metrics import mean, percentile, std
from repro.core.rng import RandomSource
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass


class NumpySource:
    """``RandomSource`` on numpy's generator: the oracle."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def fork(self, name):
        key = zlib.crc32(name.encode("utf-8"))
        child = np.random.SeedSequence([self.seed, key]).generate_state(1)[0]
        return NumpySource(int(child))

    def spawn(self, index):
        return self.fork(f"spawn/{index}")

    def uniform(self, low=0.0, high=1.0):
        return float(self.rng.uniform(low, high))

    def integer(self, low, high):
        return int(self.rng.integers(low, high, endpoint=True))

    def exponential(self, mean):
        return float(self.rng.exponential(mean))

    def normal(self, mean=0.0, std=1.0):
        return float(self.rng.normal(mean, std))

    def normals(self, mean, std, count):
        return [float(x) for x in self.rng.normal(mean, std, size=count)]

    def lognormal(self, median, sigma):
        return float(self.rng.lognormal(math.log(median), sigma))

    def pareto(self, shape, scale=1.0):
        return float(scale * (1.0 + self.rng.pareto(shape)))

    def weibull(self, shape):
        return float(self.rng.weibull(shape))

    def choice(self, items, weights=None):
        if weights is None:
            return items[int(self.rng.integers(0, len(items)))]
        total = float(sum(weights))
        return items[int(self.rng.choice(len(items),
                                         p=[w / total for w in weights]))]

    def sample(self, items, k):
        return [items[int(i)]
                for i in self.rng.choice(len(items), size=k, replace=False)]

    def shuffle(self, items):
        self.rng.shuffle(items)

    def bernoulli(self, probability):
        return bool(self.rng.uniform() < probability)


def _bits(value):
    """Exact identity of a draw: floats by their IEEE bits, lists and
    everything else as they are."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return value


def _call(script: random.Random):
    """One random call: a method name and its arguments."""
    pick = script.randrange(17)
    if pick == 0:
        low = script.uniform(-1e3, 1e3)
        return "uniform", (low, low + script.choice([0.0, 1e-9, 1.0, 1e6]))
    if pick == 1:
        return "uniform", ()
    if pick == 2:
        # 32-bit ranges, including the widest Lemire range and the
        # full-word range drawn straight from next32.
        low = script.randint(-5, 5)
        span = script.choice([0, 1, 2, 9, 63, 1000, 2**31, 2**32 - 2, 2**32 - 1])
        return "integer", (low, low + span)
    if pick == 3:
        # 64-bit ranges: Lemire-64 and the full word drawn as it is.
        return "integer", script.choice([
            (3, 3 + 2**32), (-7, 2**40), (0, 2**63 - 1), (-(2**63), 2**63 - 1),
        ])
    if pick == 4:
        return "exponential", (script.choice([1e-6, 0.5, 3.0, 1e4]),)
    if pick == 5:
        return "normal", (script.uniform(-10, 10), script.choice([0.0, 0.1, 2.0]))
    if pick == 6:
        return "normals", (1.0, script.choice([0.05, 1.0]), script.randrange(0, 9))
    if pick == 7:
        return "lognormal", (script.choice([0.1, 1.0, 40.0]),
                             script.choice([0.0, 0.25, 1.5]))
    if pick == 8:
        return "pareto", (script.choice([0.5, 1.16, 3.0]),
                          script.choice([1.0, 2.5]))
    if pick == 9:
        return "weibull", (script.choice([0.0, 0.5, 0.7, 1.0, 2.0, 5.0]),)
    if pick == 10:
        return "choice", (list(range(script.randint(1, 70))),)
    if pick == 11:
        size = script.randint(1, 12)
        weights = [script.choice([0.0, 0.5, 1.0, 3.0, script.random()])
                   for _ in range(size)]
        weights[script.randrange(size)] = 1.0
        return "choice", (list(range(size)), weights)
    if pick == 12:
        size = script.randint(0, 80)
        return "sample", (list(range(size)), script.randint(0, size))
    if pick == 13:
        # Past 10,000 items a sample over 1/50 of them takes numpy's
        # tail-shuffle path instead of Floyd's algorithm.
        size = script.choice([10_001, 12_000])
        return "sample", (range(size), script.choice([1, 150, size // 50 + 1, 400]))
    if pick == 14:
        return "shuffle", (list(range(script.randint(0, 40))),)
    if pick == 15:
        return "bernoulli", (script.choice([0.0, 0.01, 0.5, 1.0]),)
    return "fork", (script.choice(["a", "links", "spawn/3", "ü"]),)


def run_interleaved(seed: int, calls: int) -> int:
    """Run ``calls`` random calls on both sources; return the number of
    values compared.  Fails on the first difference."""
    ours, oracle = RandomSource(seed), NumpySource(seed)
    script = random.Random(seed)
    compared = 0
    for step in range(calls):
        name, args = _call(script)
        if name == "shuffle":
            mine, theirs = list(args[0]), list(args[0])
            ours.shuffle(mine)
            oracle.shuffle(theirs)
        elif name == "fork":
            child, twin = ours.fork(args[0]), oracle.fork(args[0])
            mine = [child.uniform(), child.integer(0, 10), child.normal()]
            theirs = [twin.uniform(), twin.integer(0, 10), twin.normal()]
        else:
            mine = getattr(ours, name)(*args)
            theirs = getattr(oracle, name)(*args)
        assert _bits(mine) == _bits(theirs), (seed, step, name, args)
        compared += len(mine) if isinstance(mine, list) else 1
    return compared


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
def test_interleaved_calls_match_numpy(seed):
    run_interleaved(seed, 1500)


@pytest.mark.parametrize("method, args", [
    ("uniform", ()),
    ("normal", ()),
    ("exponential", (1.0,)),
    ("lognormal", (1.0, 1.0)),
    ("pareto", (1.5,)),
    ("weibull", (1.5,)),
])
def test_long_float_streams_cross_the_ziggurat_tails(method, args):
    """20,000 straight draws per method reach the ziggurat's rejection
    and tail branches, which interleaved runs visit rarely."""
    ours, oracle = RandomSource(2024), NumpySource(2024)
    mine = [getattr(ours, method)(*args) for _ in range(20_000)]
    theirs = [getattr(oracle, method)(*args) for _ in range(20_000)]
    assert _bits(mine) == _bits(theirs)


@pytest.mark.parametrize("seed", [0, 5, 2**33 + 1])
def test_fork_and_spawn_seeds_match_numpy(seed):
    ours, oracle = RandomSource(seed), NumpySource(seed)
    for index in range(40):
        child, twin = ours.spawn(index), oracle.spawn(index)
        assert child.seed == twin.seed
        grandchild, grandtwin = child.fork("x"), twin.fork("x")
        assert grandchild.seed == grandtwin.seed
        assert grandchild.uniform() == grandtwin.uniform()


@pytest.mark.parametrize("method, args", [
    ("normal", (0.0, -1.0)),
    ("normal", (0.0, -0.0)),
    ("normals", (0.0, -1.0, 3)),
    ("lognormal", (1.0, -0.5)),
    ("weibull", (-1.0,)),
    ("integer", (3, 2)),
    ("integer", (0, 2**63)),
    ("integer", (-(2**63) - 1, 0)),
])
def test_rejects_what_numpy_rejects(method, args):
    with pytest.raises(ValueError):
        getattr(NumpySource(1), method)(*args)
    with pytest.raises(ValueError):
        getattr(RandomSource(1), method)(*args)


def _samples(rng: random.Random, length: int) -> list:
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.uniform(-1.0, 1.0) for _ in range(length)]
    if kind == 1:
        # Mixed magnitudes, where the order of additions shows.
        return [rng.choice([1e-9, 1.0, 1e9, -3e5]) * rng.random()
                for _ in range(length)]
    if kind == 2:
        return [float(rng.randint(0, 5)) for _ in range(length)]
    return [rng.lognormvariate(0.0, 2.0) for _ in range(length)]


LENGTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130,
           255, 256, 257, 1000, 1031, 4099]


@pytest.mark.parametrize("length", LENGTHS)
def test_summaries_match_numpy(length):
    rng = random.Random(length)
    for _ in range(6):
        data = _samples(rng, length)
        array = np.asarray(data, dtype=float)
        assert _bits(mean(data)) == _bits(float(array.mean()))
        assert _bits(std(data)) == _bits(float(array.std()))
        ordered = sorted(data)
        for q in (50, 90, 99):
            assert _bits(percentile(ordered, q)) == _bits(
                float(np.percentile(array, q))
            ), (length, q)


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 129])
def test_percentiles_of_unsorted_data_with_duplicates_match_numpy(length):
    rng = random.Random(500 + length)
    for _ in range(6):
        data = [
            rng.choice((-1.5, 0.0, 2.0)) if rng.random() < 0.4
            else rng.uniform(-10.0, 10.0)
            for _ in range(length)
        ]
        array = np.asarray(data, dtype=float)
        for q in (0, 1, 50, 99, 100):
            assert _bits(percentile(data, q)) == _bits(
                float(np.percentile(array, q))
            ), (data, q)


def test_summary_of_a_sample_with_nan_is_nan_like_numpy():
    data = [1.0, float("nan"), 3.0]
    assert math.isnan(mean(data)) and math.isnan(std(data))
    assert math.isnan(float(np.mean(np.asarray(data))))
    assert all(percentile([2.0], q) == 2.0 for q in (50, 90, 99))


@pytest.mark.parametrize("length", [1, 7, 8, 10, 128, 129, 1500])
def test_market_means_match_numpy(length):
    rng = random.Random(100 + length)
    simulation = MarketSimulation(
        ComputeExchange([ResourceClass("GPU")]), "GPU"
    )
    simulation.price_history = [rng.uniform(1.0, 9.0) for _ in range(length)]
    simulation.volume_history = [rng.choice([0.0, 2.5, 10.0])
                                 for _ in range(length)]
    assert _bits(simulation.mean_price()) == _bits(
        float(np.mean(simulation.price_history))
    )
    assert _bits(simulation.mean_price(last=5)) == _bits(
        float(np.mean(simulation.price_history[-5:]))
    )


def _numpy_equilibrium_round(prices, window, tolerance):
    """``MarketSimulation.equilibrium_round`` as numpy computed it."""
    for end in range(window, len(prices) + 1):
        segment = np.asarray(prices[end - window:end])
        mean = float(segment.mean())
        if mean > 0 and float(segment.std()) / mean <= tolerance:
            return end - window
    return None


@pytest.mark.parametrize("window", [3, 8, 10, 130])
def test_equilibrium_round_matches_numpy(window):
    rng = random.Random(window)
    simulation = MarketSimulation(
        ComputeExchange([ResourceClass("GPU")]), "GPU"
    )
    # Prices that settle: dispersion shrinks round by round.
    simulation.price_history = [
        5.0 + rng.uniform(-1.0, 1.0) / (1 + round_index)
        for round_index in range(400)
    ]
    for tolerance in (0.2, 0.02, 0.005, 0.001):
        assert simulation.equilibrium_round(window, tolerance) == (
            _numpy_equilibrium_round(simulation.price_history, window, tolerance)
        )
