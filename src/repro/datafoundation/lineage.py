"""Provenance lineage as a directed acyclic graph.

The paper (§III.A): foundational data protocols must preserve "lineage and
provenance"; (§III.B) the data foundation layer "keeps track of the
workflow and the various data transformation steps".

The :class:`LineageGraph` records datasets and :class:`Transformation`
steps; datasets point to the transformation that produced them, and
transformations point to their inputs. Acyclicity is enforced on every
insertion — provenance can never be circular.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.errors import ConfigurationError
from repro.interconnect.graph import (
    DiGraph,
    NetworkXNoPath,
    NodeNotFound,
    ancestors,
    is_directed_acyclic_graph,
    shortest_path,
)

_transformation_ids = itertools.count()


@dataclass(frozen=True)
class Transformation:
    """One recorded data-transformation step.

    Attributes
    ----------
    name:
        Human-readable step name (e.g. ``'calibration'``, ``'training'``).
    inputs / outputs:
        Dataset names consumed and produced.
    executed_at:
        Simulated or wall-clock execution time.
    site:
        Where the step ran (edge/core attribution).
    parameters:
        Free-form reproducibility payload (tool versions, arguments).
    """

    name: str
    inputs: tuple
    outputs: tuple
    executed_at: float = 0.0
    site: str = ""
    parameters: str = ""
    step_id: int = field(default_factory=lambda: next(_transformation_ids))

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ConfigurationError(f"transformation {self.name} produces nothing")


class LineageGraph:
    """A DAG over dataset names and transformation steps."""

    def __init__(self) -> None:
        self._graph = DiGraph()
        self._transformations: Dict[int, Transformation] = {}

    # --- recording -------------------------------------------------------------

    def add_source(self, dataset: str) -> None:
        """Register a primary dataset (no producing transformation)."""
        self._graph.add_node(("data", dataset))

    def record(self, transformation: Transformation) -> Transformation:
        """Record a step; inputs must exist, outputs must be new datasets."""
        step_node = ("step", transformation.step_id)
        for input_name in transformation.inputs:
            if ("data", input_name) not in self._graph:
                raise ConfigurationError(
                    f"{transformation.name}: unknown input dataset {input_name!r}"
                )
        for output_name in transformation.outputs:
            if ("data", output_name) in self._graph:
                raise ConfigurationError(
                    f"{transformation.name}: output {output_name!r} already exists "
                    "(datasets are immutable; derive a new name)"
                )
        self._graph.add_node(step_node)
        for input_name in transformation.inputs:
            self._graph.add_edge(("data", input_name), step_node)
        for output_name in transformation.outputs:
            self._graph.add_node(("data", output_name))
            self._graph.add_edge(step_node, ("data", output_name))
        if not is_directed_acyclic_graph(self._graph):  # defensive; cannot
            # happen given the immutability check, but provenance integrity
            # is worth the O(V+E) verification.
            raise ConfigurationError("lineage graph became cyclic")
        self._transformations[transformation.step_id] = transformation
        return transformation

    # --- queries -----------------------------------------------------------------

    def datasets(self) -> List[str]:
        return sorted(
            name for kind, name in self._graph.nodes if kind == "data"
        )

    def has_dataset(self, dataset: str) -> bool:
        return ("data", dataset) in self._graph

    def producer(self, dataset: str) -> Optional[Transformation]:
        """The transformation that produced a dataset (None for sources)."""
        node = ("data", dataset)
        if node not in self._graph:
            raise KeyError(f"unknown dataset {dataset!r}")
        predecessors = list(self._graph.predecessors(node))
        if not predecessors:
            return None
        (_, step_id) = predecessors[0]
        return self._transformations[step_id]

    def ancestry(self, dataset: str) -> Set[str]:
        """All upstream dataset names (full provenance closure)."""
        node = ("data", dataset)
        if node not in self._graph:
            raise KeyError(f"unknown dataset {dataset!r}")
        return {
            name for kind, name in ancestors(self._graph, node) if kind == "data"
        }

    def derivation_path(self, ancestor: str, descendant: str) -> List[Transformation]:
        """The ordered chain of transformations from ancestor to descendant.

        Raises if no derivation exists.
        """
        source = ("data", ancestor)
        target = ("data", descendant)
        try:
            nodes = shortest_path(self._graph, source, target)
        except (NetworkXNoPath, NodeNotFound):
            raise ConfigurationError(
                f"{descendant!r} is not derived from {ancestor!r}"
            ) from None
        return [
            self._transformations[name]
            for kind, name in nodes
            if kind == "step"
        ]

    def sources_of(self, dataset: str) -> Set[str]:
        """The primary (underived) datasets this one ultimately comes from."""
        closure = self.ancestry(dataset) | {dataset}
        return {
            name
            for name in closure
            if not list(self._graph.predecessors(("data", name)))
        }

    def step_count(self) -> int:
        return len(self._transformations)
