"""The common data foundation: metadata, lineage and transfer planning.

The paper (§III.A): "the creation of a common data foundation for AI will
be the glue that ties together the intelligent HPC infrastructure of
tomorrow. Well-defined foundational data protocols can accelerate
innovation by providing actionable metadata and preserving important
aspects such as lineage and provenance."

Components:

* :mod:`repro.datafoundation.metadata` — a searchable metadata catalog with
  schemas, tags and governance labels,
* :mod:`repro.datafoundation.lineage` — a provenance DAG recording every
  transformation ("keeps track of the workflow and the various data
  transformation steps", §III.B),
* :mod:`repro.datafoundation.transfer` — a replica-aware transfer planner
  over the federation WAN.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".lineage": ("LineageGraph", "Transformation"),
    ".metadata": ("DataEntry", "GovernanceLabel", "MetadataCatalog"),
    ".transfer": ("TransferPlan", "TransferPlanner"),
})
