"""Tests for the metadata catalog and governance."""

import pytest

from repro.core.errors import ConfigurationError
from repro.datafoundation.metadata import (
    DataEntry,
    GovernanceLabel,
    MetadataCatalog,
)


def entry(name="d", governance=GovernanceLabel.INSTITUTIONAL, tags=()):
    return DataEntry(
        name=name,
        size_bytes=1e9,
        schema={"energy": "float64", "detector_id": "int32"},
        tags=set(tags),
        governance=governance,
    )


class TestCatalog:
    def test_register_and_get(self):
        catalog = MetadataCatalog()
        catalog.register(entry("x"))
        assert catalog.get("x").name == "x"
        assert "x" in catalog
        assert len(catalog) == 1

    def test_duplicate_rejected(self):
        catalog = MetadataCatalog()
        catalog.register(entry("x"))
        with pytest.raises(ConfigurationError):
            catalog.register(entry("x"))

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            MetadataCatalog().get("ghost")

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DataEntry(name="bad", size_bytes=-1.0)

    def test_may_move_respects_governance(self):
        catalog = MetadataCatalog()
        catalog.register(entry("open", governance=GovernanceLabel.PUBLIC))
        catalog.register(entry("secret", governance=GovernanceLabel.RESTRICTED))
        assert catalog.may_move("open", "site-a", "site-b")
        assert not catalog.may_move("secret", "site-a", "site-b")
        assert catalog.may_move("secret", "site-a", "site-a")

    def test_total_bytes(self):
        catalog = MetadataCatalog()
        catalog.register(entry("a"))
        catalog.register(entry("b"))
        assert catalog.total_bytes() == pytest.approx(2e9)
