"""Tests for the summary statistics (numpy-exact; see the differential in
``tests/proptest/test_rng_differential.py``)."""

import math

import pytest

from repro.analysis.metrics import mean, pairwise_sum, percentile, std


class TestPercentiles:
    def test_of_constant_series(self):
        data = [5.0] * 10
        assert percentile(data, 50) == percentile(data, 99) == 5.0

    def test_ordering(self):
        data = [float(x) for x in range(1000)]
        assert percentile(data, 50) <= percentile(data, 90) <= percentile(data, 99)

    def test_empty_rejected(self):
        # As np.percentile does: there is no last element to index.
        with pytest.raises(IndexError):
            percentile([], 50)

    def test_ends_are_min_and_max(self):
        data = [-3.0, 0.5, 2.0, 8.0]
        assert percentile(data, 0) == -3.0
        assert percentile(data, 100) == 8.0

    def test_interpolates_linearly_between_ranks(self):
        # Four points put ranks at 0, 1/3, 2/3 and 1 of the range.
        data = [0.0, 10.0, 20.0, 30.0]
        assert percentile(data, 50) == 15.0
        assert percentile(data, 25) == pytest.approx(7.5)
        assert percentile(data, 75) == pytest.approx(22.5)

    def test_unsorted_data(self):
        # np.percentile sorts: the median of [3, 1, 2] is 2, not 1.
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([3.0, 1.0, 2.0, 1.0], 0) == 1.0

    def test_single_sample(self):
        assert all(percentile([4.0], q) == 4.0 for q in (0, 37.5, 100))


class TestMeanAndStd:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_std_is_population(self):
        assert std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 2.0

    def test_std_of_constant_is_zero(self):
        assert std([10.0] * 3) == 0.0

    def test_empty_mean_rejected(self):
        with pytest.raises(ZeroDivisionError):
            mean([])


class TestPairwiseSum:
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 128, 129, 1000])
    def test_integers_sum_exactly(self, length):
        # Every block shape (short tail, one block, recursion) adds
        # integer-valued floats without rounding.
        data = [float(x) for x in range(length)]
        assert pairwise_sum(data) == length * (length - 1) / 2

    def test_empty_is_negative_zero(self):
        # numpy's sum of nothing starts from -0.0.
        assert math.copysign(1.0, pairwise_sum([])) == -1.0

    def test_order_of_additions_differs_from_a_running_sum(self):
        # A running sum absorbs each 1.0 into 1e16. The eight-way unrolled
        # loop absorbs only the one that shares 1e16's accumulator and adds
        # the other fourteen among themselves first.
        data = [1e16] + [1.0] * 15
        assert sum(data) == 1e16
        assert pairwise_sum(data) == 1e16 + 14.0
