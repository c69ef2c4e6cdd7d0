"""A data-centric task-graph runtime (Legion-like) for heterogeneous nodes.

The paper (§III.D): "Especially well-suited for distributed heterogeneous
architectures, data-centric runtime environments like Legion are also
rapidly emerging. They enable the programmer to embed the data structure to
facilitate the extraction of task and data parallelism, and to map more
easily to complex, multi-level, memory hierarchies."

The model:

* a :class:`Region` is a logical chunk of data with a size and a current
  placement (some device's memory, or host),
* a :class:`DataTask` reads and writes regions and carries a
  device-independent :class:`~repro.hardware.device.KernelProfile`,
* a :class:`TaskGraph` derives dependencies from region access (RAW, WAR,
  WAW) in program order,
* a :class:`Mapper` assigns tasks to devices; the provided strategies are
  ``data-aware`` (minimise predicted finish = data movement + queue +
  compute — the Legion philosophy), ``compute-greedy`` (fastest device,
  blind to data location) and ``round-robin``,
* :class:`TaskGraphExecutor` simulates execution: per-device timelines,
  host-interconnect transfers whenever a task's inputs live elsewhere.

The C14 experiment shows the data-aware mapper beating data-blind mapping
on movement-heavy graphs — the reason data-centric runtimes exist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, SchedulingError
from repro.hardware.device import Device, KernelProfile

_region_ids = itertools.count()
_task_ids = itertools.count()

#: Placement name for data still in host memory.
HOST = "host"


@dataclass
class Region:
    """A logical data region.

    Attributes
    ----------
    name:
        Human-readable identifier (unique within a graph).
    size_bytes:
        Region size.
    placement:
        Where the current valid copy lives: ``HOST`` or a device name.
    """

    name: str
    size_bytes: float
    placement: str = HOST
    region_id: int = field(default_factory=lambda: next(_region_ids))

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ConfigurationError(f"{self.name}: size must be non-negative")


@dataclass
class DataTask:
    """A task reading/writing regions and running a kernel.

    Attributes
    ----------
    name:
        Identifier.
    kernel:
        Device-independent cost description.
    reads / writes:
        Regions accessed. A region in both is read-modify-write.
    """

    name: str
    kernel: KernelProfile
    reads: Tuple[Region, ...] = ()
    writes: Tuple[Region, ...] = ()
    task_id: int = field(default_factory=lambda: next(_task_ids))

    @property
    def accessed(self) -> Tuple[Region, ...]:
        seen = {}
        for region in self.reads + self.writes:
            seen.setdefault(region.region_id, region)
        return tuple(seen.values())

    def input_bytes(self) -> float:
        return sum(region.size_bytes for region in self.reads)


class TaskGraph:
    """Tasks in program order with dependencies derived from data access."""

    def __init__(self) -> None:
        self._tasks: List[DataTask] = []
        self._dependencies: Dict[int, List[int]] = {}

    def add(self, task: DataTask) -> DataTask:
        """Append a task; dependencies on earlier tasks are derived from
        RAW / WAR / WAW conflicts over shared regions."""
        deps: List[int] = []
        read_ids = {r.region_id for r in task.reads}
        write_ids = {r.region_id for r in task.writes}
        for earlier in self._tasks:
            earlier_writes = {r.region_id for r in earlier.writes}
            earlier_reads = {r.region_id for r in earlier.reads}
            raw = earlier_writes & read_ids
            war = earlier_reads & write_ids
            waw = earlier_writes & write_ids
            if raw or war or waw:
                deps.append(earlier.task_id)
        self._tasks.append(task)
        self._dependencies[task.task_id] = deps
        return task

    @property
    def tasks(self) -> List[DataTask]:
        return list(self._tasks)

    def dependencies(self, task: DataTask) -> List[int]:
        return list(self._dependencies[task.task_id])


class Mapper:
    """Task-to-device mapping strategies."""

    STRATEGIES = ("data-aware", "compute-greedy", "round-robin")

    def __init__(self, strategy: str = "data-aware") -> None:
        if strategy not in self.STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; choose from {self.STRATEGIES}"
            )
        self.strategy = strategy
        self._round_robin_index = 0

    def choose(
        self,
        task: DataTask,
        devices: Sequence[Device],
        device_free_at: Dict[str, float],
        transfer_time,
    ) -> Device:
        """Pick a device for a task.

        ``transfer_time(task, device)`` prices moving the task's remote
        inputs to the device.
        """
        feasible = [d for d in devices if d.supports(task.kernel.precision)]
        if not feasible:
            raise SchedulingError(
                f"no device supports {task.kernel.precision} for {task.name}"
            )
        if self.strategy == "round-robin":
            device = feasible[self._round_robin_index % len(feasible)]
            self._round_robin_index += 1
            return device
        if self.strategy == "compute-greedy":
            return min(feasible, key=lambda d: d.time_for(task.kernel))

        # data-aware: minimise predicted finish time end to end.
        def predicted_finish(device: Device) -> float:
            return (
                device_free_at.get(device.name, 0.0)
                + transfer_time(task, device)
                + device.time_for(task.kernel)
            )

        return min(feasible, key=predicted_finish)


@dataclass(frozen=True)
class TaskExecution:
    """One task's simulated execution."""

    task: DataTask
    device_name: str
    start: float
    transfer_time: float
    compute_time: float

    @property
    def finish(self) -> float:
        return self.start + self.transfer_time + self.compute_time


class TaskGraphExecutor:
    """Simulates a task graph over a node's heterogeneous devices.

    Parameters
    ----------
    devices:
        The node's devices (one queue each).
    interconnect_bandwidth:
        Device-to-device / host-to-device transfer bandwidth, bytes/s
        (a CXL-class link by default).
    interconnect_latency:
        Per-transfer latency, seconds.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        mapper: Optional[Mapper] = None,
        interconnect_bandwidth: float = 64e9,
        interconnect_latency: float = 1e-6,
    ) -> None:
        if not devices:
            raise ConfigurationError("executor needs at least one device")
        if interconnect_bandwidth <= 0 or interconnect_latency < 0:
            raise ConfigurationError("invalid interconnect parameters")
        self.devices = list(devices)
        self.mapper = mapper or Mapper()
        self.interconnect_bandwidth = interconnect_bandwidth
        self.interconnect_latency = interconnect_latency

    def _transfer_time(self, task: DataTask, device: Device) -> float:
        remote_bytes = sum(
            region.size_bytes
            for region in task.reads
            if region.placement != device.name
        )
        if remote_bytes == 0:
            return 0.0
        return self.interconnect_latency + remote_bytes / self.interconnect_bandwidth

    def run(self, graph: TaskGraph) -> List[TaskExecution]:
        """Execute the graph; returns per-task executions in program order.

        Regions move: after a task runs, every region it accessed lives in
        its device's memory (valid-copy migration, Legion-style).
        """
        device_free_at: Dict[str, float] = {d.name: 0.0 for d in self.devices}
        finish_of: Dict[int, float] = {}
        executions: List[TaskExecution] = []
        for task in graph.tasks:
            ready = max(
                (finish_of[dep] for dep in graph.dependencies(task)), default=0.0
            )
            device = self.mapper.choose(
                task, self.devices, device_free_at, self._transfer_time
            )
            transfer = self._transfer_time(task, device)
            compute = device.time_for(task.kernel)
            start = max(ready, device_free_at[device.name])
            execution = TaskExecution(
                task=task,
                device_name=device.name,
                start=start,
                transfer_time=transfer,
                compute_time=compute,
            )
            executions.append(execution)
            device_free_at[device.name] = execution.finish
            finish_of[task.task_id] = execution.finish
            for region in task.accessed:
                region.placement = device.name
        return executions

    @staticmethod
    def makespan(executions: Sequence[TaskExecution]) -> float:
        """Completion time of the whole graph."""
        if not executions:
            return 0.0
        return max(e.finish for e in executions)

    @staticmethod
    def total_transfer_time(executions: Sequence[TaskExecution]) -> float:
        return sum(e.transfer_time for e in executions)
