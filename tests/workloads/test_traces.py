"""Tests for the job trace generator."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.workloads.ai import build_cnn, build_mlp, build_transformer
from repro.workloads.base import JobClass
from repro.workloads.traces import (
    JobTraceGenerator,
    TraceConfig,
    _shared_layers,
)


class TestTraceConfig:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(arrival_rate=0.0)

    def test_rejects_empty_mix(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(mix={})

    def test_rejects_zero_weights(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(mix={JobClass.SIMULATION: 0.0})


class TestGeneration:
    def make_trace(self, **config_kwargs):
        defaults = dict(arrival_rate=0.05, duration=20_000.0, max_jobs=300)
        defaults.update(config_kwargs)
        generator = JobTraceGenerator(
            TraceConfig(**defaults), rng=RandomSource(seed=77)
        )
        return generator.generate()

    def test_arrivals_sorted(self):
        jobs = self.make_trace()
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)

    def test_arrival_rate_approximate(self):
        jobs = self.make_trace(max_jobs=10_000)
        observed = len(jobs) / 20_000.0
        assert observed == pytest.approx(0.05, rel=0.2)

    def test_mix_respected(self):
        jobs = self.make_trace(
            max_jobs=500,
            mix={JobClass.SIMULATION: 0.5, JobClass.ML_TRAINING: 0.5},
        )
        classes = {j.job_class for j in jobs}
        assert classes == {JobClass.SIMULATION, JobClass.ML_TRAINING}

    def test_single_class_mix(self):
        jobs = self.make_trace(max_jobs=50, mix={JobClass.ANALYTICS: 1.0})
        assert all(j.job_class is JobClass.ANALYTICS for j in jobs)

    def test_analytics_jobs_carry_datasets(self):
        jobs = self.make_trace(max_jobs=30, mix={JobClass.ANALYTICS: 1.0})
        assert all(j.input_dataset is not None for j in jobs)
        assert all(j.input_bytes > 0 for j in jobs)

    def test_deterministic_for_seed(self):
        a = JobTraceGenerator(
            TraceConfig(arrival_rate=0.05, duration=5_000, max_jobs=50),
            rng=RandomSource(seed=3),
        ).generate()
        b = JobTraceGenerator(
            TraceConfig(arrival_rate=0.05, duration=5_000, max_jobs=50),
            rng=RandomSource(seed=3),
        ).generate()
        assert [j.name for j in a] == [j.name for j in b]
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_max_jobs_cap(self):
        jobs = self.make_trace(max_jobs=10)
        assert len(jobs) == 10

    def test_diurnal_rate_varies(self):
        """Diurnal traces must show arrival-rate modulation across the day."""
        generator = JobTraceGenerator(
            TraceConfig(
                arrival_rate=0.05,
                duration=86_400.0,
                diurnal=True,
                max_jobs=10_000,
            ),
            rng=RandomSource(seed=5),
        )
        jobs = generator.generate()
        # Compare first-quarter (rising sine) with third-quarter (falling).
        quarter = 86_400.0 / 4
        first = sum(1 for j in jobs if j.arrival_time < quarter)
        third = sum(1 for j in jobs if 2 * quarter <= j.arrival_time < 3 * quarter)
        assert first > third * 1.5

    def test_every_job_is_valid(self):
        for job in self.make_trace(max_jobs=100):
            assert job.total_flops > 0
            assert job.ranks >= 1


class _FreshModels(JobTraceGenerator):
    """The generator as it was before model shapes were shared: a whole
    fresh model per job, named after the job."""

    def _make_training(self, index, scale):
        builder = self.rng.choice([build_mlp, build_cnn, build_transformer])
        model = builder(name=f"model-{index}")
        steps = max(10, int(500 * scale))
        ranks = int(self.rng.choice([1, 2, 4, 8]))
        return model.training_job(
            batch=256, steps=steps, ranks=ranks,
            input_dataset=f"dataset-{index % 20}", input_bytes=10e9 * scale,
        )

    def _make_inference(self, index, scale):
        model = build_mlp(name=f"serve-{index}", hidden_dim=2048, depth=3)
        return model.inference_job(
            requests=max(1, int(100_000 * scale)), batch=32,
        )


def _job_fields(job):
    """Every field but the process-wide ``job_id``."""
    return {f.name: getattr(job, f.name) for f in fields(job)
            if f.name != "job_id"}


class TestSharedModelShapes:
    CONFIG = dict(arrival_rate=0.05, duration=2_000.0, max_jobs=40, mix={
        JobClass.SIMULATION: 0.25, JobClass.ANALYTICS: 0.25,
        JobClass.ML_TRAINING: 0.25, JobClass.ML_INFERENCE: 0.25,
    })

    def _trace(self, cls, seed):
        return cls(
            TraceConfig(**self.CONFIG), rng=RandomSource(seed=seed)
        ).generate()

    def test_jobs_equal_those_from_fresh_models(self):
        seen = set()
        for seed in range(20):
            shared = self._trace(JobTraceGenerator, seed)
            fresh = self._trace(_FreshModels, seed)
            assert len(shared) == len(fresh) > 0
            for ours, theirs in zip(shared, fresh):
                assert _job_fields(ours) == _job_fields(theirs)
            seen.update(job.job_class for job in shared)
        assert seen == set(self.CONFIG["mix"])  # every class it can build

    def test_shared_layers_cannot_be_mutated_through_jobs(self):
        reference = [_job_fields(job)
                     for job in self._trace(_FreshModels, 5)]
        for job in self._trace(JobTraceGenerator, 5):
            for task in job.tasks:
                task.phases.clear()
            job.tasks.clear()
        again = [_job_fields(job)
                 for job in self._trace(JobTraceGenerator, 5)]
        assert again == reference
        for builder in (build_mlp, build_cnn, build_transformer):
            layers = _shared_layers(builder)
            assert isinstance(layers, tuple)
            with pytest.raises(FrozenInstanceError):
                layers[0].k = 1
