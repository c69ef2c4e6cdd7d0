"""Crash-consistent file writes shared by the result stores.

A process killed mid-``write_text`` leaves a truncated artefact that a
later ``json.loads`` chokes on.  :func:`atomic_write_text` (and
:func:`atomic_write_bytes`, for serve's exact response bytes) removes
that window: the payload lands in a temporary file *in the same directory*
(same filesystem, so the final rename cannot degrade into a copy), is
flushed and fsynced, then published with :func:`os.replace`, and the
directory entry is fsynced so the rename itself survives power loss —
readers see either the complete old file or the complete new one, never
a torn middle state.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Union


def atomic_write_text(
    path: Union[str, pathlib.Path], text: str
) -> pathlib.Path:
    """Write ``text`` to ``path`` so a crash never leaves a partial file."""
    return _atomic_write(path, text, "w")


def atomic_write_bytes(
    path: Union[str, pathlib.Path], data: bytes
) -> pathlib.Path:
    """Write ``data`` to ``path`` so a crash never leaves a partial file."""
    return _atomic_write(path, data, "wb")


def _atomic_write(
    path: Union[str, pathlib.Path], payload: Union[str, bytes], mode: str
) -> pathlib.Path:
    target = pathlib.Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode=mode,
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    fsync_directory(target.parent)
    return target


def fsync_directory(path: Union[str, pathlib.Path]) -> None:
    """Flush a directory's entry table (durability of a just-renamed file)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms that refuse dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse dir fsync
        pass
    finally:
        os.close(fd)
