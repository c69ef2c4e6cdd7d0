"""Tests for crash-consistent file writes."""

import pytest

from repro.core import atomicio
from repro.core.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)


class TestAtomicWriteText:
    def test_writes_and_returns_the_path(self, tmp_path):
        target = tmp_path / "out.json"
        assert atomic_write_text(str(target), '{"a": 1}') == target
        assert target.read_text() == '{"a": 1}'

    def test_replaces_an_existing_file_leaving_no_temporaries(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_write_keeps_the_old_file_and_removes_the_temporary(
        self, tmp_path
    ):
        target = tmp_path / "out.json"
        target.write_text("old")
        with pytest.raises(TypeError):
            atomic_write_text(target, b"not text")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write_text(tmp_path / "absent" / "out.json", "x")


class TestAtomicWriteBytes:
    def test_writes_the_exact_bytes(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        assert atomic_write_bytes(target, b'{"a": 1}\r\n') == target
        assert target.read_bytes() == b'{"a": 1}\r\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_write_keeps_the_old_file_and_removes_the_temporary(
        self, tmp_path
    ):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not bytes")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("write, payload", [
    (atomic_write_text, "text"), (atomic_write_bytes, b"bytes"),
])
def test_a_published_file_fsyncs_its_directory(
    tmp_path, monkeypatch, write, payload
):
    synced = []
    monkeypatch.setattr(atomicio, "fsync_directory", synced.append)
    write(tmp_path / "out.json", payload)
    assert synced == [tmp_path]


def test_fsync_directory_ignores_a_directory_it_cannot_open(tmp_path):
    fsync_directory(tmp_path)
    fsync_directory(tmp_path / "absent")
