"""Tests for the API-reference generator (and the public API's hygiene)."""

import importlib.util
import pathlib

import pytest

_TOOL_PATH = (
    pathlib.Path(__file__).parent.parent.parent / "tools" / "gen_api_docs.py"
)
_spec = importlib.util.spec_from_file_location("gen_api_docs", _TOOL_PATH)
gen_api_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_api_docs)


def test_committed_reference_is_current():
    """docs/API.md is what the generator renders today: a public name
    added or removed without regenerating it fails here."""
    committed = _TOOL_PATH.parent.parent / "docs" / "API.md"
    assert gen_api_docs.render() == committed.read_text(), (
        "docs/API.md is stale; regenerate with python tools/gen_api_docs.py"
    )


class TestRender:
    def test_every_subpackage_sectioned(self):
        content = gen_api_docs.render()
        for package in gen_api_docs.SUBPACKAGES:
            assert f"## `{package}`" in content

    def test_key_symbols_present(self):
        content = gen_api_docs.render()
        for symbol in ("MetaScheduler", "FabricSimulator", "ComputeExchange",
                       "LineageGraph", "default_catalog"):
            assert symbol in content

    def test_main_writes_file(self, tmp_path, capsys):
        output = tmp_path / "API.md"
        assert gen_api_docs.main(output) == 0
        assert output.read_text().startswith("# API reference")


class TestPublicApiHygiene:
    @pytest.mark.parametrize("package", gen_api_docs.SUBPACKAGES)
    def test_all_exports_resolve_and_are_documented(self, package):
        """Every name in __all__ exists and every public class/function has
        a docstring — the doc-comments deliverable, enforced."""
        import importlib
        import inspect

        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            if name.startswith("__"):
                continue
            obj = getattr(module, name)  # raises if the export is stale
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{package}.{name} lacks a docstring"

    @pytest.mark.parametrize("package", gen_api_docs.SUBPACKAGES)
    def test_all_lists_are_sorted_sets(self, package):
        """__all__ contains no duplicates (sortedness is stylistic, but
        duplicates are always a bug)."""
        import importlib

        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported))
