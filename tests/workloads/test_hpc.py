"""Tests for the HPC kernel generators."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.base import JobClass
from repro.workloads.hpc import (
    dense_linear_algebra,
    nbody,
    sparse_solver,
    spectral_transform,
    stencil,
)


class TestStencil:
    def test_all_simulation_class(self):
        assert stencil(grid_points=1000).job_class is JobClass.SIMULATION

    def test_barrier_every_timestep(self):
        job = stencil(grid_points=1000, timesteps=50)
        assert job.barrier_count == 50

    def test_work_splits_across_ranks(self):
        single = stencil(grid_points=8000, ranks=1)
        parallel = stencil(grid_points=8000, ranks=8)
        assert parallel.total_flops == pytest.approx(single.total_flops)
        per_rank_single = single.tasks[0].phases[0].kernel.flops
        per_rank_parallel = parallel.tasks[0].phases[0].kernel.flops
        assert per_rank_parallel == pytest.approx(per_rank_single / 8)

    def test_memory_bound_intensity(self):
        """Stencils live far below typical ridge points."""
        job = stencil(grid_points=100_000)
        assert job.arithmetic_intensity() < 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            stencil(grid_points=0)


class TestSpectral:
    def test_flops_include_log_factor(self):
        small = spectral_transform(grid_points=2**10, timesteps=1)
        large = spectral_transform(grid_points=2**20, timesteps=1)
        # N log N: 2^10 -> 2^20 grows by 2^10 * (20/10) = 2048x.
        assert large.total_flops / small.total_flops == pytest.approx(2048, rel=0.01)

    def test_all_to_all_synchronises(self):
        job = spectral_transform(grid_points=4096, timesteps=10)
        assert job.barrier_count == 10


class TestNbody:
    def test_quadratic_interactions(self):
        small = nbody(bodies=1000, timesteps=1)
        large = nbody(bodies=2000, timesteps=1)
        assert large.total_flops / small.total_flops == pytest.approx(4.0, rel=0.01)

    def test_compute_bound_intensity(self):
        job = nbody(bodies=50_000, timesteps=1)
        assert job.arithmetic_intensity() > 100.0


class TestSparseSolver:
    def test_very_low_intensity(self):
        """SpMV is the bandwidth-bound extreme (< 0.25 FLOP/byte)."""
        job = sparse_solver(unknowns=1_000_000)
        assert job.arithmetic_intensity() < 0.25

    def test_noise_sensitive(self):
        """Per-iteration reductions make CG the canonical noise victim."""
        job = sparse_solver(unknowns=1_000_000, iterations=500, ranks=64)
        assert job.is_synchronisation_sensitive


class TestDenseLinearAlgebra:
    def test_cubic_flops(self):
        small = dense_linear_algebra(matrix_dim=1000)
        large = dense_linear_algebra(matrix_dim=2000)
        assert large.total_flops / small.total_flops == pytest.approx(8.0, rel=0.01)

    def test_intensity_grows_with_size(self):
        small = dense_linear_algebra(matrix_dim=500)
        large = dense_linear_algebra(matrix_dim=5000)
        assert large.arithmetic_intensity() > small.arithmetic_intensity()


class TestSpectrumCoverage:
    def test_kernels_span_the_intensity_spectrum(self):
        """The five families must cover memory-bound to compute-bound."""
        intensities = {
            "sparse": sparse_solver(unknowns=10**6).arithmetic_intensity(),
            "stencil": stencil(grid_points=10**6).arithmetic_intensity(),
            "spectral": spectral_transform(grid_points=2**20).arithmetic_intensity(),
            "dense": dense_linear_algebra(matrix_dim=4000).arithmetic_intensity(),
            "nbody": nbody(bodies=50_000).arithmetic_intensity(),
        }
        assert intensities["sparse"] < intensities["stencil"]
        assert intensities["stencil"] < intensities["dense"]
        assert intensities["dense"] < intensities["nbody"]
