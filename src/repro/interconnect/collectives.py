"""Collective-communication cost models with in-network offload.

The paper (§III.C): "remote memory access and message passing can be
offloaded efficiently to specialized network hardware as can complex
communication patterns, the bulk-data all reduction operations used in
training for example."

This module prices the collectives that dominate HPC/AI communication —
all-reduce, all-gather, broadcast, all-to-all, barrier — under the
standard alpha-beta(-gamma) model:

* ``alpha``  — per-message latency (s),
* ``beta``   — per-byte transfer time (s/byte, the inverse bandwidth),
* ``gamma``  — per-byte local reduction compute (s/byte).

Three all-reduce implementations are provided:

* **ring** — bandwidth optimal: ``2(p-1)/p * n`` bytes per node, ``2(p-1)``
  latency terms. The workhorse of data-parallel training.
* **recursive doubling (tree)** — latency optimal: ``2 log2 p`` latency
  terms but ``2 n log2 p / p``-ish bandwidth inefficiency for large
  messages (modelled at full ``n`` per step).
* **in-network (switch offload)** — the paper's claim: reduction happens
  in the fabric (SHARP-like), so each node sends its buffer **once** up
  the tree and receives the result once: ``~2 alpha * log_radix p`` latency
  and ``2 n`` bytes per node, with the gamma term moved into switch ALUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class CollectiveModel:
    """Alpha-beta-gamma cost model for a node population.

    Attributes
    ----------
    nodes:
        Participating endpoints (p >= 1).
    alpha:
        Per-message latency, seconds.
    bandwidth:
        Per-node injection bandwidth, bytes/s (beta = 1/bandwidth).
    reduce_rate:
        Local reduction throughput, bytes/s (gamma = 1/reduce_rate).
    switch_radix:
        Fabric switch radix, setting the in-network reduction tree fan-in.
    switch_reduce_rate:
        Per-switch reduction throughput for in-network offload, bytes/s.
    """

    nodes: int
    alpha: float = 2e-6
    bandwidth: float = 25e9
    reduce_rate: float = 50e9
    switch_radix: int = 64
    switch_reduce_rate: float = 200e9

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if min(self.alpha, self.bandwidth, self.reduce_rate) <= 0:
            raise ConfigurationError("alpha, bandwidth, reduce_rate must be positive")
        if self.switch_radix < 2 or self.switch_reduce_rate <= 0:
            raise ConfigurationError("invalid switch parameters")

    @property
    def beta(self) -> float:
        """Per-byte wire time, s/byte."""
        return 1.0 / self.bandwidth

    @property
    def gamma(self) -> float:
        """Per-byte local reduction time, s/byte."""
        return 1.0 / self.reduce_rate

    # --- all-reduce ----------------------------------------------------------

    def allreduce_ring(self, message_bytes: float) -> float:
        """Ring all-reduce: bandwidth optimal, latency linear in p."""
        self._check_bytes(message_bytes)
        p = self.nodes
        if p == 1:
            return 0.0
        steps = 2 * (p - 1)
        chunk = message_bytes / p
        return steps * (self.alpha + chunk * self.beta) + (
            (p - 1) * chunk * self.gamma
        )

    def allreduce_tree(self, message_bytes: float) -> float:
        """Recursive-doubling all-reduce: latency optimal."""
        self._check_bytes(message_bytes)
        p = self.nodes
        if p == 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        per_round = self.alpha + message_bytes * self.beta + message_bytes * self.gamma
        # Reduce-scatter + all-gather each take `rounds` rounds; the
        # all-gather rounds skip the gamma term.
        gather_round = self.alpha + message_bytes * self.beta
        return rounds * per_round + rounds * gather_round

    def allreduce_in_network(self, message_bytes: float) -> float:
        """Switch-offloaded all-reduce (SHARP-like).

        Every node streams its buffer once into the reduction tree and the
        fabric streams the result back: two wire traversals of the full
        message, ``2 * ceil(log_radix p)`` hop latencies, and the reduction
        pipelined through switch ALUs (bounded by the slower of wire and
        switch reduce rate).
        """
        self._check_bytes(message_bytes)
        p = self.nodes
        if p == 1:
            return 0.0
        depth = max(1, math.ceil(math.log(p, self.switch_radix)))
        latency = 2.0 * depth * self.alpha
        wire = 2.0 * message_bytes * self.beta
        switch_reduce = message_bytes / self.switch_reduce_rate
        return latency + max(wire, switch_reduce)

    # --- other collectives ----------------------------------------------------

    def broadcast(self, message_bytes: float) -> float:
        """Binomial-tree broadcast."""
        self._check_bytes(message_bytes)
        if self.nodes == 1:
            return 0.0
        rounds = math.ceil(math.log2(self.nodes))
        return rounds * (self.alpha + message_bytes * self.beta)

    def allgather(self, message_bytes_per_node: float) -> float:
        """Ring all-gather: each node contributes its block."""
        self._check_bytes(message_bytes_per_node)
        p = self.nodes
        if p == 1:
            return 0.0
        return (p - 1) * (self.alpha + message_bytes_per_node * self.beta)

    def alltoall(self, message_bytes_per_pair: float) -> float:
        """Pairwise-exchange all-to-all (the FFT transpose pattern)."""
        self._check_bytes(message_bytes_per_pair)
        p = self.nodes
        if p == 1:
            return 0.0
        return (p - 1) * (self.alpha + message_bytes_per_pair * self.beta)

    def barrier(self) -> float:
        """Dissemination barrier: ceil(log2 p) zero-byte rounds."""
        if self.nodes == 1:
            return 0.0
        return math.ceil(math.log2(self.nodes)) * self.alpha

    @staticmethod
    def _check_bytes(message_bytes: float) -> None:
        if message_bytes < 0:
            raise ValueError("message size must be non-negative")


def training_step_communication(
    model: CollectiveModel,
    gradient_bytes: float,
    offload: bool,
) -> float:
    """Per-step gradient synchronisation time for data-parallel training.

    With offload the fabric reduces gradients in-network; without it the
    best host-based algorithm is chosen per size.
    """
    if offload:
        return model.allreduce_in_network(gradient_bytes)
    ring = model.allreduce_ring(gradient_bytes)
    tree = model.allreduce_tree(gradient_bytes)
    return min(ring, tree)
