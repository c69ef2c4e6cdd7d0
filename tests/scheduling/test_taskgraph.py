"""Tests for the data-centric task-graph runtime (C14)."""

import pytest

from repro.core.errors import ConfigurationError, SchedulingError
from repro.hardware.device import KernelProfile
from repro.hardware.precision import Precision
from repro.scheduling.taskgraph import (
    HOST,
    DataTask,
    Mapper,
    Region,
    TaskGraph,
    TaskGraphExecutor,
)


def kernel(flops=1e10, precision=Precision.FP32):
    return KernelProfile(flops=flops, bytes_moved=flops / 10, precision=precision)


@pytest.fixture
def devices(catalog):
    return [catalog.get("epyc-class-cpu"), catalog.get("hpc-gpu")]


class TestRegion:
    def test_defaults_to_host(self):
        region = Region("grid", 1e9)
        assert region.placement == HOST

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            Region("bad", -1.0)


class TestDependencyDerivation:
    def test_raw_dependency(self):
        graph = TaskGraph()
        data = Region("data", 1e6)
        producer = graph.add(DataTask("produce", kernel(), writes=(data,)))
        consumer = graph.add(DataTask("consume", kernel(), reads=(data,)))
        assert graph.dependencies(consumer) == [producer.task_id]

    def test_war_dependency(self):
        graph = TaskGraph()
        data = Region("data", 1e6)
        reader = graph.add(DataTask("read", kernel(), reads=(data,)))
        writer = graph.add(DataTask("overwrite", kernel(), writes=(data,)))
        assert graph.dependencies(writer) == [reader.task_id]

    def test_waw_dependency(self):
        graph = TaskGraph()
        data = Region("data", 1e6)
        first = graph.add(DataTask("w1", kernel(), writes=(data,)))
        second = graph.add(DataTask("w2", kernel(), writes=(data,)))
        assert graph.dependencies(second) == [first.task_id]

    def test_disjoint_regions_independent(self):
        graph = TaskGraph()
        a, b = Region("a", 1e6), Region("b", 1e6)
        graph.add(DataTask("ta", kernel(), writes=(a,)))
        tb = graph.add(DataTask("tb", kernel(), writes=(b,)))
        assert graph.dependencies(tb) == []

    def test_chained_read_write_dependencies(self):
        graph = TaskGraph()
        data = Region("d", 1e6)
        t1 = graph.add(DataTask("t1", kernel(), writes=(data,)))
        t2 = graph.add(DataTask("t2", kernel(), reads=(data,), writes=(data,)))
        t3 = graph.add(DataTask("t3", kernel(), reads=(data,)))
        assert graph.dependencies(t2) == [t1.task_id]
        assert graph.dependencies(t3) == [t1.task_id, t2.task_id]


class TestMapper:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            Mapper("magic")

    def test_infeasible_precision_raises(self, catalog):
        tpu = catalog.get("tpu-like")  # no FP64
        mapper = Mapper("compute-greedy")
        task = DataTask("sim", kernel(precision=Precision.FP64))
        with pytest.raises(SchedulingError):
            mapper.choose(task, [tpu], {}, lambda t, d: 0.0)

    def test_compute_greedy_picks_fastest(self, devices):
        mapper = Mapper("compute-greedy")
        task = DataTask("gemm", kernel(flops=1e12))
        chosen = mapper.choose(task, devices, {}, lambda t, d: 0.0)
        assert chosen.name == "hpc-gpu"

    def test_round_robin_cycles(self, devices):
        mapper = Mapper("round-robin")
        task = DataTask("t", kernel())
        picks = [
            mapper.choose(task, devices, {}, lambda t, d: 0.0).name
            for _ in range(4)
        ]
        assert picks == ["epyc-class-cpu", "hpc-gpu"] * 2

    def test_data_aware_prefers_data_locality(self, devices):
        cpu, gpu = devices
        mapper = Mapper("data-aware")
        big_input = Region("big", 1e9, placement=cpu.name)
        task = DataTask("scan", kernel(flops=1e8), reads=(big_input,))

        def transfer(t, device):
            remote = sum(
                r.size_bytes for r in t.reads if r.placement != device.name
            )
            return remote / 1e9  # a slow 1 GB/s link: 1 s to move to GPU

        chosen = mapper.choose(task, devices, {}, transfer)
        assert chosen.name == cpu.name


class TestExecutor:
    def test_requires_devices(self):
        with pytest.raises(ConfigurationError):
            TaskGraphExecutor([])

    def test_serial_chain_orders_finishes(self, devices):
        graph = TaskGraph()
        data = Region("d", 1e6)
        graph.add(DataTask("t1", kernel(), writes=(data,)))
        graph.add(DataTask("t2", kernel(), reads=(data,), writes=(data,)))
        executor = TaskGraphExecutor(devices)
        executions = executor.run(graph)
        assert executions[1].start >= executions[0].finish

    def test_independent_tasks_overlap_across_devices(self, devices):
        graph = TaskGraph()
        a, b = Region("a", 1e6), Region("b", 1e6)
        graph.add(DataTask("ta", kernel(flops=1e12), writes=(a,)))
        graph.add(DataTask("tb", kernel(flops=1e12), writes=(b,)))
        executor = TaskGraphExecutor(devices, mapper=Mapper("round-robin"))
        executions = executor.run(graph)
        devices_used = {e.device_name for e in executions}
        assert len(devices_used) == 2
        assert executor.makespan(executions) < sum(
            e.compute_time + e.transfer_time for e in executions
        )

    def test_regions_migrate_with_execution(self, devices):
        graph = TaskGraph()
        data = Region("d", 1e6)
        graph.add(DataTask("produce", kernel(flops=1e12), writes=(data,)))
        executor = TaskGraphExecutor(devices, mapper=Mapper("compute-greedy"))
        executor.run(graph)
        assert data.placement == "hpc-gpu"

    def test_data_aware_beats_compute_greedy_on_movement_heavy_graph(self, devices):
        """The Legion thesis: mapping with the data beats mapping blind.

        Chain of cheap tasks over a huge region: compute-greedy bounces to
        the GPU for a negligible compute win and pays the transfer;
        data-aware keeps the chain where the data sits.
        """
        def build_graph():
            graph = TaskGraph()
            blob = Region("blob", 20e9, placement="epyc-class-cpu")
            for index in range(6):
                # Big enough that the GPU wins on raw compute, small enough
                # that moving 20 GB dwarfs the compute advantage.
                graph.add(
                    DataTask(
                        f"step{index}",
                        kernel(flops=1e10),
                        reads=(blob,),
                        writes=(blob,),
                    )
                )
            return graph

        greedy = TaskGraphExecutor(devices, mapper=Mapper("compute-greedy"))
        greedy_span = greedy.makespan(greedy.run(build_graph()))
        aware = TaskGraphExecutor(devices, mapper=Mapper("data-aware"))
        aware_span = aware.makespan(aware.run(build_graph()))
        assert aware_span < greedy_span

    def test_transfer_accounting(self, devices):
        graph = TaskGraph()
        remote = Region("remote", 1e9, placement=HOST)
        graph.add(DataTask("load", kernel(flops=1e12), reads=(remote,)))
        executor = TaskGraphExecutor(devices, interconnect_bandwidth=10e9)
        executions = executor.run(graph)
        assert executor.total_transfer_time(executions) >= 0.1  # 1GB @ 10GB/s
