"""Device-independent workload descriptions.

A :class:`Job` is a sequence of :class:`Phase` objects (compute,
communication, synchronisation, I/O), optionally parallel over ``ranks``.
Schedulers combine phases with device/network models to predict runtimes;
the federation layer adds dataset placement for data-gravity decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.hardware.device import KernelProfile
from repro.hardware.precision import Precision

_job_ids = itertools.count()


class PhaseKind(Enum):
    """What a phase does, which decides which resource model prices it."""

    COMPUTE = "compute"
    COMMUNICATION = "communication"
    BARRIER = "barrier"
    IO = "io"


class JobClass(Enum):
    """The paper's Figure 1 workload taxonomy."""

    SIMULATION = "simulation"       # classical HPC
    ANALYTICS = "analytics"         # big data
    ML_TRAINING = "ml_training"     # AI, training
    ML_INFERENCE = "ml_inference"   # AI, inference
    HYBRID = "hybrid"               # closed-loop HPC+AI


@dataclass(frozen=True)
class Phase:
    """One phase of a job's execution.

    Attributes
    ----------
    kind:
        Phase type.
    kernel:
        For COMPUTE phases: the kernel each rank executes.
    comm_bytes:
        For COMMUNICATION phases: bytes exchanged per rank.
    sync:
        Whether the phase ends at a barrier (BSP superstep). Barrier phases
        make the job noise sensitive: the slowest rank gates all.
    io_bytes:
        For IO phases: bytes read/written to the data foundation per rank.
    """

    kind: PhaseKind
    kernel: Optional[KernelProfile] = None
    comm_bytes: float = 0.0
    sync: bool = False
    io_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is PhaseKind.COMPUTE and self.kernel is None:
            raise ConfigurationError("COMPUTE phase requires a kernel")
        if self.kind is PhaseKind.COMMUNICATION and self.comm_bytes <= 0:
            raise ConfigurationError("COMMUNICATION phase requires comm_bytes > 0")
        if self.kind is PhaseKind.IO and self.io_bytes <= 0:
            raise ConfigurationError("IO phase requires io_bytes > 0")
        if self.comm_bytes < 0 or self.io_bytes < 0:
            raise ConfigurationError("byte counts must be non-negative")


@dataclass
class Task:
    """A schedulable unit: one rank-group executing a list of phases."""

    name: str
    phases: List[Phase]
    ranks: int = 1

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ConfigurationError("ranks must be >= 1")
        if not self.phases:
            raise ConfigurationError(f"task {self.name} has no phases")

    @property
    def total_flops(self) -> float:
        """Total FLOPs across all ranks and phases."""
        return self.ranks * sum(
            p.kernel.flops for p in self.phases if p.kernel is not None
        )

    @property
    def barrier_count(self) -> int:
        """Number of synchronising phases (noise-sensitivity proxy)."""
        return sum(1 for p in self.phases if p.sync)


@dataclass
class Job:
    """A complete job: tasks, class and dataset dependencies.

    Attributes
    ----------
    name:
        Human-readable identifier.
    job_class:
        Figure 1 taxonomy class.
    tasks:
        Tasks composing the job (run sequentially unless a scheduler
        exploits independence).
    iterations:
        Repetitions of the phase list (e.g. timesteps, epochs).
    precision:
        Numeric precision the job requests.
    input_dataset:
        Name of the dataset the job reads (data gravity anchor), if any.
    input_bytes:
        Size of that input (bytes moved if the job runs away from the data).
    deadline:
        Wall-clock deadline in seconds from submission (None = best effort).
    arrival_time:
        Submission time (set by trace generators).
    """

    name: str
    job_class: JobClass
    tasks: List[Task]
    iterations: int = 1
    precision: Precision = Precision.FP64
    input_dataset: Optional[str] = None
    input_bytes: float = 0.0
    deadline: Optional[float] = None
    arrival_time: float = 0.0
    job_id: int = field(default_factory=lambda: next(_job_ids))

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigurationError(f"job {self.name} has no tasks")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.input_bytes < 0:
            raise ConfigurationError("input_bytes must be non-negative")

    @property
    def ranks(self) -> int:
        """Maximum rank width across tasks (node allocation size)."""
        return max(task.ranks for task in self.tasks)

    @property
    def total_flops(self) -> float:
        return self.iterations * sum(task.total_flops for task in self.tasks)

    @property
    def barrier_count(self) -> int:
        return self.iterations * sum(task.barrier_count for task in self.tasks)

    @property
    def is_synchronisation_sensitive(self) -> bool:
        """Whether barrier frequency makes the job noise sensitive (§II.C).

        A job is deemed sensitive when it synchronises more often than once
        per 10^10 FLOPs of per-rank work — frequent fine-grained barriers.
        """
        if self.barrier_count == 0:
            return False
        per_rank_flops = self.total_flops / max(self.ranks, 1)
        return per_rank_flops / self.barrier_count < 1e10

    def arithmetic_intensity(self) -> float:
        """Aggregate FLOPs per byte over compute phases (job-level proxy)."""
        flops = 0.0
        transferred = 0.0
        for task in self.tasks:
            for phase in task.phases:
                if phase.kernel is not None:
                    flops += phase.kernel.flops * task.ranks
                    transferred += phase.kernel.bytes_moved * task.ranks
        if transferred == 0:
            return float("inf") if flops else 0.0
        return flops / transferred


def make_single_kernel_job(
    name: str,
    job_class: JobClass,
    flops: float,
    bytes_moved: float,
    precision: Precision = Precision.FP64,
    ranks: int = 1,
    iterations: int = 1,
    comm_bytes_per_iteration: float = 0.0,
    sync_every_iteration: bool = False,
    mvm_dimension: Optional[int] = None,
    **job_kwargs,
) -> Job:
    """Convenience constructor: one compute phase (+ optional comm/barrier)."""
    kernel = KernelProfile(
        flops=flops,
        bytes_moved=bytes_moved,
        precision=precision,
        mvm_dimension=mvm_dimension,
    )
    phases: List[Phase] = [Phase(kind=PhaseKind.COMPUTE, kernel=kernel)]
    if comm_bytes_per_iteration > 0:
        phases.append(
            Phase(
                kind=PhaseKind.COMMUNICATION,
                comm_bytes=comm_bytes_per_iteration,
                sync=sync_every_iteration,
            )
        )
    elif sync_every_iteration:
        phases.append(Phase(kind=PhaseKind.BARRIER, sync=True))
    task = Task(name=f"{name}-task", phases=phases, ranks=ranks)
    return Job(
        name=name,
        job_class=job_class,
        tasks=[task],
        iterations=iterations,
        precision=precision,
        **job_kwargs,
    )
