"""Tests for collective-communication models and in-network offload (C12)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.interconnect.collectives import (
    CollectiveModel,
    training_step_communication,
)


@pytest.fixture
def model():
    return CollectiveModel(nodes=256)


class TestConstruction:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            CollectiveModel(nodes=0)
        with pytest.raises(ConfigurationError):
            CollectiveModel(nodes=4, alpha=0.0)
        with pytest.raises(ConfigurationError):
            CollectiveModel(nodes=4, switch_radix=1)

    def test_beta_gamma(self, model):
        assert model.beta == pytest.approx(1.0 / 25e9)
        assert model.gamma == pytest.approx(1.0 / 50e9)


class TestSingleNode:
    def test_everything_free_on_one_node(self):
        solo = CollectiveModel(nodes=1)
        assert solo.allreduce_ring(1e9) == 0.0
        assert solo.allreduce_tree(1e9) == 0.0
        assert solo.allreduce_in_network(1e9) == 0.0
        assert solo.broadcast(1e9) == 0.0
        assert solo.barrier() == 0.0


class TestAllReduce:
    def test_ring_bandwidth_optimal_for_large_messages(self, model):
        """For bulk messages ring beats recursive doubling (host-based)."""
        big = 1e9
        assert model.allreduce_ring(big) < model.allreduce_tree(big)

    def test_tree_latency_optimal_for_small_messages(self, model):
        small = 1e3
        assert model.allreduce_tree(small) < model.allreduce_ring(small)

    def test_in_network_beats_both(self, model):
        """§III.C: offloading the bulk all-reduce to the fabric wins at
        every size — fewer latency terms and no host gamma."""
        for size in (1e3, 1e6, 1e9):
            offloaded = model.allreduce_in_network(size)
            assert offloaded <= model.allreduce_ring(size)
            assert offloaded <= model.allreduce_tree(size)

    def test_in_network_depth_scales_with_radix(self):
        narrow = CollectiveModel(nodes=4096, switch_radix=4)
        wide = CollectiveModel(nodes=4096, switch_radix=64)
        assert wide.allreduce_in_network(1e3) < narrow.allreduce_in_network(1e3)

    @given(size=st.floats(min_value=0, max_value=1e10))
    @settings(max_examples=40)
    def test_costs_non_negative_and_monotone(self, size):
        model = CollectiveModel(nodes=64)
        for fn in (model.allreduce_ring, model.allreduce_tree,
                   model.allreduce_in_network):
            assert fn(size) >= 0.0
            assert fn(size * 2) >= fn(size)


class TestOtherCollectives:
    def test_broadcast_log_rounds(self):
        p8 = CollectiveModel(nodes=8, bandwidth=1e12)
        p64 = CollectiveModel(nodes=64, bandwidth=1e12)
        assert p64.broadcast(1.0) == pytest.approx(2 * p8.broadcast(1.0))

    def test_allgather_linear_in_nodes(self):
        p4 = CollectiveModel(nodes=4)
        p8 = CollectiveModel(nodes=8)
        assert p8.allgather(1e6) > p4.allgather(1e6)

    def test_alltoall_more_expensive_than_allgather(self, model):
        # Same per-step cost but all-to-all sends distinct data to each peer;
        # with equal per-pair bytes the models coincide, so all-to-all with
        # the full message per pair must exceed all-gather of one block.
        assert model.alltoall(1e6) >= model.allgather(1e6)

    def test_barrier_log_alpha(self):
        model = CollectiveModel(nodes=1024, alpha=1e-6)
        assert model.barrier() == pytest.approx(10e-6)

    def test_negative_size_rejected(self, model):
        with pytest.raises(ValueError):
            model.broadcast(-1.0)


class TestTrainingCommunication:
    def test_offload_helps_training_step(self, model):
        gradients = 400e6  # a 100M-parameter FP32 model
        host = training_step_communication(model, gradients, offload=False)
        offloaded = training_step_communication(model, gradients, offload=True)
        assert offloaded < host

    def test_host_path_picks_best_algorithm(self, model):
        tiny = training_step_communication(model, 1e3, offload=False)
        assert tiny == pytest.approx(model.allreduce_tree(1e3))
