"""Statistical job-trace generation for scheduling experiments.

Generates streams of :class:`~repro.workloads.base.Job` objects with
Poisson (optionally diurnal) arrivals, log-normal sizes and a configurable
mix over the Figure 1 workload classes. Used by the meta-scheduler,
federation and market experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.hardware.precision import Precision
from repro.workloads.ai import (
    AIModel,
    LayerShape,
    build_cnn,
    build_mlp,
    build_transformer,
)
from repro.workloads.base import Job, JobClass, make_single_kernel_job
from repro.workloads.hpc import (
    dense_linear_algebra,
    nbody,
    sparse_solver,
    spectral_transform,
    stencil,
)


@lru_cache(maxsize=4)  # the three training builders and the inference MLP
def _shared_layers(
    builder: Callable[..., AIModel], **shape: int
) -> Tuple[LayerShape, ...]:
    """The layers of ``builder(**shape)``, built once per process.

    A job is a function of its model's name and layer dimensions only, so
    every generated model shares these frozen layers under its own name.
    """
    return tuple(builder(**shape).layers)


@dataclass
class TraceConfig:
    """Parameters of a synthetic job trace.

    Attributes
    ----------
    arrival_rate:
        Mean job arrivals per second.
    duration:
        Trace length, seconds.
    mix:
        Probability weight per :class:`JobClass`; missing classes get 0.
    size_median / size_sigma:
        Log-normal scale factor applied to each job's nominal work.
    diurnal:
        When True, modulates the arrival rate sinusoidally (period
        ``diurnal_period``) between 25% and 175% of nominal — the demand
        fluctuation that motivates federation (§III.F).
    diurnal_period:
        Period of the modulation in seconds.
    max_jobs:
        Hard cap on generated jobs.
    """

    arrival_rate: float = 0.01
    duration: float = 86_400.0
    mix: Dict[JobClass, float] = field(default_factory=lambda: {
        JobClass.SIMULATION: 0.45,
        JobClass.ANALYTICS: 0.2,
        JobClass.ML_TRAINING: 0.2,
        JobClass.ML_INFERENCE: 0.15,
    })
    size_median: float = 1.0
    size_sigma: float = 1.0
    diurnal: bool = False
    diurnal_period: float = 86_400.0
    max_jobs: int = 10_000

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0 or self.duration <= 0:
            raise ConfigurationError("arrival_rate and duration must be positive")
        if not self.mix or all(w <= 0 for w in self.mix.values()):
            raise ConfigurationError("mix must contain a positive weight")
        if self.size_median <= 0 or self.size_sigma < 0:
            raise ConfigurationError("invalid size distribution")
        if self.max_jobs <= 0:
            raise ConfigurationError("max_jobs must be positive")


class JobTraceGenerator:
    """Generates job traces from a :class:`TraceConfig` and a seed."""

    def __init__(self, config: TraceConfig, rng: Optional[RandomSource] = None) -> None:
        self.config = config
        self.rng = rng or RandomSource(seed=42, name="trace")

    # --- arrival process ------------------------------------------------------

    def _rate_at(self, time: float) -> float:
        if not self.config.diurnal:
            return self.config.arrival_rate
        phase = 2.0 * math.pi * time / self.config.diurnal_period
        return self.config.arrival_rate * (1.0 + 0.75 * math.sin(phase))

    def _next_arrival(self, now: float) -> float:
        """Thinning algorithm for the (possibly inhomogeneous) Poisson process."""
        peak_rate = self.config.arrival_rate * (1.75 if self.config.diurnal else 1.0)
        while True:
            now += self.rng.exponential(1.0 / peak_rate)
            if self.rng.uniform() <= self._rate_at(now) / peak_rate:
                return now

    # --- job construction ------------------------------------------------------

    def _scale(self) -> float:
        return self.rng.lognormal(self.config.size_median, self.config.size_sigma)

    def _make_simulation(self, index: int, scale: float) -> Job:
        family = self.rng.choice(["stencil", "spectral", "nbody", "sparse", "dense"])
        ranks = int(self.rng.choice([1, 2, 4, 8, 16, 32]))
        if family == "stencil":
            return stencil(
                grid_points=int(2e6 * scale) + 1,
                timesteps=200,
                ranks=ranks,
                name=f"stencil-{index}",
            )
        if family == "spectral":
            return spectral_transform(
                grid_points=int(1e6 * scale) + 2,
                timesteps=100,
                ranks=ranks,
                name=f"spectral-{index}",
            )
        if family == "nbody":
            return nbody(
                bodies=int(20_000 * math.sqrt(scale)) + 2,
                timesteps=20,
                ranks=ranks,
                name=f"nbody-{index}",
            )
        if family == "sparse":
            return sparse_solver(
                unknowns=int(3e6 * scale) + 1,
                iterations=300,
                ranks=ranks,
                name=f"sparse-{index}",
            )
        return dense_linear_algebra(
            matrix_dim=int(4_000 * scale ** (1 / 3)) + 1,
            ranks=ranks,
            name=f"dense-{index}",
        )

    def _make_analytics(self, index: int, scale: float) -> Job:
        # Scan-heavy, low intensity, embarrassingly parallel.
        data_bytes = 50e9 * scale
        return make_single_kernel_job(
            name=f"analytics-{index}",
            job_class=JobClass.ANALYTICS,
            flops=data_bytes * 0.5,      # ~0.5 FLOP per byte scanned
            bytes_moved=data_bytes,
            precision=Precision.FP32,
            ranks=int(self.rng.choice([1, 2, 4, 8])),
            iterations=1,
            input_dataset=f"dataset-{index % 20}",
            input_bytes=data_bytes,
        )

    def _make_training(self, index: int, scale: float) -> Job:
        builder = self.rng.choice([build_mlp, build_cnn, build_transformer])
        model = AIModel(f"model-{index}", _shared_layers(builder))
        steps = max(10, int(500 * scale))
        ranks = int(self.rng.choice([1, 2, 4, 8]))
        return model.training_job(
            batch=256,
            steps=steps,
            ranks=ranks,
            input_dataset=f"dataset-{index % 20}",
            input_bytes=10e9 * scale,
        )

    def _make_inference(self, index: int, scale: float) -> Job:
        model = AIModel(
            f"serve-{index}", _shared_layers(build_mlp, hidden_dim=2048, depth=3)
        )
        return model.inference_job(
            requests=max(1, int(100_000 * scale)),
            batch=32,
        )

    def make_job(self, index: int, job_class: JobClass, arrival_time: float) -> Job:
        """Build one job of a class at an arrival time."""
        scale = self._scale()
        if job_class is JobClass.SIMULATION:
            job = self._make_simulation(index, scale)
        elif job_class is JobClass.ANALYTICS:
            job = self._make_analytics(index, scale)
        elif job_class is JobClass.ML_TRAINING:
            job = self._make_training(index, scale)
        elif job_class is JobClass.ML_INFERENCE:
            job = self._make_inference(index, scale)
        else:
            raise ConfigurationError(f"trace generator cannot build {job_class}")
        job.arrival_time = arrival_time
        return job

    def generate(self) -> List[Job]:
        """Generate the full trace, sorted by arrival time."""
        classes = list(self.config.mix)
        weights = [self.config.mix[c] for c in classes]
        jobs: List[Job] = []
        now = 0.0
        for index in range(self.config.max_jobs):
            now = self._next_arrival(now)
            if now > self.config.duration:
                break
            job_class = self.rng.choice(classes, weights=weights)
            jobs.append(self.make_job(index, job_class, now))
        return jobs
