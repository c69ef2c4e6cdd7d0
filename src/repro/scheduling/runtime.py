"""Analytical runtime and energy prediction for a job on a device at a site.

This is the model the meta-scheduler uses to "select the best available
silicon for the job" (§III.F): it combines

* the device model for compute phases (roofline + structural refinements),
* the site's interconnect for communication phases,
* the site's noise level for barrier-synchronised phases (§II.C),
* precision compatibility (jobs degrade along the precision ladder when a
  device lacks their format natively — §III.D "model compilation to
  reduced precision arithmetic"; FP64 simulation never degrades).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.federation.site import Site
from repro.hardware.device import Device, KernelProfile
from repro.hardware.precision import Precision, narrower_precisions
from repro.scheduling.noise import bsp_slowdown
from repro.workloads.base import Job, JobClass, Phase, PhaseKind


@dataclass(frozen=True)
class RuntimeEstimate:
    """Predicted execution of a job on (device, site).

    ``feasible`` is False when the device cannot run the job at all (e.g.
    an FP64 simulation on an INT8-only edge part).
    """

    feasible: bool
    time: float = float("inf")
    energy: float = float("inf")
    devices_used: int = 0
    effective_precision: Optional[Precision] = None
    infeasible_reason: str = ""

    def __post_init__(self) -> None:
        if self.feasible and (self.time < 0 or self.energy < 0):
            raise ConfigurationError("feasible estimate needs non-negative cost")


#: Job classes whose numerics tolerate precision degradation. Classical
#: simulation demands its requested precision; AI and analytics tolerate
#: narrowing (quantisation).
_DEGRADABLE = (JobClass.ML_TRAINING, JobClass.ML_INFERENCE, JobClass.ANALYTICS, JobClass.HYBRID)


def resolve_precision(job: Job, device: Device) -> Optional[Precision]:
    """The precision the job would execute at on the device, or None.

    Native support wins; degradable job classes walk down the ladder; the
    ANALOG pseudo-precision accepts any degradable job whose ladder reaches
    INT8.
    """
    if device.supports(job.precision):
        return job.precision
    if job.job_class not in _DEGRADABLE:
        return None
    for candidate in narrower_precisions(job.precision):
        if device.supports(candidate):
            return candidate
    if device.supports(Precision.ANALOG) and job.precision.bits <= 32:
        return Precision.ANALOG
    return None


def _phase_time(
    phase: Phase,
    job: Job,
    device: Device,
    site: Site,
    precision: Precision,
) -> float:
    """Time of one phase for one rank-group iteration."""
    if phase.kind is PhaseKind.COMPUTE:
        assert phase.kernel is not None
        kernel = KernelProfile(
            flops=phase.kernel.flops,
            bytes_moved=phase.kernel.bytes_moved,
            precision=precision,
            mvm_dimension=phase.kernel.mvm_dimension,
            parallel_fraction=phase.kernel.parallel_fraction,
        )
        return device.time_for(kernel)
    if phase.kind is PhaseKind.COMMUNICATION:
        return site.interconnect_latency + phase.comm_bytes / site.interconnect_bandwidth
    if phase.kind is PhaseKind.BARRIER:
        return site.interconnect_latency * 2.0
    if phase.kind is PhaseKind.IO:
        return phase.io_bytes / site.interconnect_bandwidth
    raise ConfigurationError(f"unknown phase kind: {phase.kind}")


def estimate_job(job: Job, device: Device, site: Site) -> RuntimeEstimate:
    """Predict time/energy for ``job`` on ``device`` at ``site``.

    The job's ranks map one-to-one onto devices; if the site has fewer free
    devices the caller decides whether to queue (this function prices the
    execution itself). Barrier-closed phases are inflated by the site's
    noise slowdown at the job's width.
    """
    precision = resolve_precision(job, device)
    if precision is None:
        return RuntimeEstimate(
            feasible=False,
            infeasible_reason=(
                f"{device.name} supports neither {job.precision} nor a "
                f"degradable alternative for {job.job_class.value}"
            ),
        )

    noise_factor = bsp_slowdown(job.ranks, site.noise_level or 0.0)
    total_time = 0.0
    total_energy = 0.0
    try:
        for task in job.tasks:
            task_time = 0.0
            has_barrier = any(phase.sync for phase in task.phases)
            for phase in task.phases:
                phase_time = _phase_time(phase, job, device, site, precision)
                task_time += phase_time
                if phase.kind is PhaseKind.COMPUTE:
                    total_energy += phase_time * device.spec.tdp * task.ranks
                else:
                    total_energy += phase_time * device.spec.idle_power * task.ranks
            # A barrier-closed superstep runs at the pace of the slowest
            # rank: the whole iteration inflates by the expected max over
            # per-rank noise (SII.C — "the slowest component dictates
            # performance"), not just the synchronising phase itself.
            if has_barrier and task.ranks > 1:
                task_time *= noise_factor
            total_time += task_time
    except ConfigurationError as error:
        return RuntimeEstimate(feasible=False, infeasible_reason=str(error))

    total_time *= job.iterations
    total_energy *= job.iterations
    return RuntimeEstimate(
        feasible=True,
        time=total_time,
        energy=total_energy,
        devices_used=job.ranks,
        effective_precision=precision,
    )
