"""Tests for the lineage/provenance DAG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.datafoundation.lineage import LineageGraph, Transformation


@pytest.fixture
def pipeline():
    """raw -> calibrated -> (features, qa-report); features -> model."""
    graph = LineageGraph()
    graph.add_source("raw")
    graph.record(Transformation("calibrate", inputs=("raw",), outputs=("calibrated",)))
    graph.record(
        Transformation(
            "featurise", inputs=("calibrated",), outputs=("features", "qa-report")
        )
    )
    graph.record(Transformation("train", inputs=("features",), outputs=("model",)))
    return graph


class TestRecording:
    def test_unknown_input_rejected(self):
        graph = LineageGraph()
        with pytest.raises(ConfigurationError):
            graph.record(Transformation("t", inputs=("ghost",), outputs=("out",)))

    def test_outputs_are_immutable(self, pipeline):
        """Re-producing an existing dataset name is forbidden — this is
        what makes cycles structurally impossible."""
        with pytest.raises(ConfigurationError):
            pipeline.record(
                Transformation("overwrite", inputs=("model",), outputs=("raw",))
            )

    def test_empty_outputs_rejected(self):
        with pytest.raises(ConfigurationError):
            Transformation("t", inputs=(), outputs=())

    def test_multi_output_recorded(self, pipeline):
        assert pipeline.has_dataset("qa-report")


class TestQueries:
    def test_producer_of_source_is_none(self, pipeline):
        assert pipeline.producer("raw") is None

    def test_producer_of_derived(self, pipeline):
        producer = pipeline.producer("model")
        assert producer is not None
        assert producer.name == "train"

    def test_ancestry_full_closure(self, pipeline):
        assert pipeline.ancestry("model") == {"raw", "calibrated", "features"}

    def test_derivation_path_ordered(self, pipeline):
        steps = pipeline.derivation_path("raw", "model")
        assert [s.name for s in steps] == ["calibrate", "featurise", "train"]

    def test_no_derivation_raises(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.derivation_path("model", "raw")

    def test_sources_of(self, pipeline):
        assert pipeline.sources_of("model") == {"raw"}
        assert pipeline.sources_of("raw") == {"raw"}

    def test_unknown_dataset_raises(self, pipeline):
        with pytest.raises(KeyError):
            pipeline.ancestry("ghost")

    def test_step_count(self, pipeline):
        assert pipeline.step_count() == 3


class TestAcyclicityProperty:
    @given(
        chain_length=st.integers(min_value=1, max_value=30),
        fan_out=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_pipelines_stay_acyclic(self, chain_length, fan_out):
        """Any sequence of valid recordings keeps provenance acyclic, and
        ancestry never contains the dataset itself."""
        graph = LineageGraph()
        graph.add_source("s0")
        previous = "s0"
        for step in range(chain_length):
            outputs = tuple(f"d{step}-{branch}" for branch in range(fan_out))
            graph.record(
                Transformation(f"t{step}", inputs=(previous,), outputs=outputs)
            )
            previous = outputs[0]
        for dataset in graph.datasets():
            assert dataset not in graph.ancestry(dataset)
