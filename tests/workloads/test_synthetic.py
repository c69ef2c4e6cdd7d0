"""Tests for GAN-based synthetic data generation."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.base import JobClass
from repro.workloads.synthetic import GanPair, build_gan


@pytest.fixture
def gan():
    return build_gan(latent_dim=64, sample_dim=1024, hidden_dim=512)


class TestGanPair:
    def test_build_gan_shapes(self, gan):
        assert gan.generator.layers[0].k == 64
        assert gan.generator.layers[-1].n == 1024
        assert gan.discriminator.layers[0].k == 1024
        assert gan.discriminator.layers[-1].n == 1

    def test_rejects_bad_sample_bytes(self, gan):
        with pytest.raises(ConfigurationError):
            GanPair(
                generator=gan.generator,
                discriminator=gan.discriminator,
                sample_bytes=0.0,
            )

    def test_training_step_flops_counts_both_networks(self, gan):
        combined = gan.training_step_flops(batch=32)
        generator_only = gan.generator.training_step_flops(32)
        assert combined > generator_only * 1.5

    def test_training_job_class_and_sync(self, gan):
        job = gan.training_job(batch=64, steps=10, ranks=2)
        assert job.job_class is JobClass.ML_TRAINING
        assert job.barrier_count == 10

    def test_training_job_validation(self, gan):
        with pytest.raises(ConfigurationError):
            gan.training_job(batch=1, steps=10, ranks=4)

    def test_generation_job_iterations(self, gan):
        job = gan.generation_job(samples=1000, batch=100)
        assert job.iterations == 10
        assert job.job_class is JobClass.ML_INFERENCE

    def test_generation_includes_sample_io(self, gan):
        job = gan.generation_job(samples=100, batch=100)
        io_phases = [p for t in job.tasks for p in t.phases if p.io_bytes > 0]
        assert io_phases
        assert io_phases[0].io_bytes == pytest.approx(100 * gan.sample_bytes)
