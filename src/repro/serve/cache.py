"""The fingerprint-keyed artefact cache behind ``repro serve``.

Completed response bodies are stored on disk under
``<store>/artefacts/<fingerprint>.json`` — written with
:func:`repro.core.atomicio.atomic_write_bytes`, like the sweep and golden
stores, so a crash mid-write can never publish a torn artefact — and
fronted by a bounded in-memory LRU so the hot path
serves repeats without touching the filesystem.

The same store owns ``<store>/journals/<fingerprint>.jsonl``: the sweep
run journal for an in-flight request.  A serve process killed mid-sweep
leaves the journal behind; the restarted process finds it and resumes
(``run_sweep(resume=...)``) instead of recomputing, then deletes it once
the artefact lands.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Union

from repro.core.atomicio import atomic_write_bytes


class ResultCache:
    """Disk-backed, memory-fronted cache of response bodies by fingerprint.

    ``max_memory_entries`` bounds only the in-memory front; the disk
    store is the durable, unbounded source of truth.

    ``ttl`` (seconds, ``None`` = never expire) ages artefacts out of both
    tiers: an entry whose age reaches the TTL is evicted — memory entry
    dropped, disk file unlinked — and the lookup counts as a miss, so the
    next request recomputes.  Ages are measured with the injectable
    ``clock`` (the serve config's clock), which makes expiry
    deterministic under test; an artefact already on disk when this
    process first observes it is stamped fresh at that observation (disk
    mtimes come from the wall clock and cannot be compared against an
    injected one).  The LRU bound and hit accounting are unchanged.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        max_memory_entries: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive, got {ttl}")
        self.directory = pathlib.Path(directory)
        self.artefacts = self.directory / "artefacts"
        self.journals = self.directory / "journals"
        self.artefacts.mkdir(parents=True, exist_ok=True)
        self.journals.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.ttl = ttl
        self.clock = clock
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._stamps: Dict[str, float] = {}
        self.stats: Dict[str, int] = {
            "memory_hits": 0, "disk_hits": 0, "misses": 0, "expired": 0,
        }

    def artefact_path(self, fingerprint: str) -> pathlib.Path:
        return self.artefacts / f"{fingerprint}.json"

    def journal_path(self, fingerprint: str) -> pathlib.Path:
        return self.journals / f"{fingerprint}.jsonl"

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The cached body, or ``None``.  Corrupt artefacts raise.

        Artefacts are written atomically, so a corrupt file means
        something outside the service touched the store — surface that
        loudly (naming the path) rather than silently recomputing over
        it.
        """
        if self._expire(fingerprint):
            self.stats["misses"] += 1
            return None
        body = self._memory.get(fingerprint)
        if body is not None:
            self._memory.move_to_end(fingerprint)
            self.stats["memory_hits"] += 1
            return body
        path = self.artefact_path(fingerprint)
        try:
            body = path.read_bytes()
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        try:
            json.loads(body)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}: corrupt cached artefact (invalid JSON: {error}) "
                "— delete it to allow recomputation"
            ) from None
        self.stats["disk_hits"] += 1
        self._remember(fingerprint, body)
        return body

    def put(self, fingerprint: str, body: bytes) -> pathlib.Path:
        """Publish a completed response body atomically."""
        path = atomic_write_bytes(self.artefact_path(fingerprint), body)
        if self.ttl is not None:
            # A (re)publication is fresh by definition.
            self._stamps[fingerprint] = self.clock()
        self._remember(fingerprint, body)
        return path

    def discard_journal(self, fingerprint: str) -> None:
        """Drop the run journal once its artefact is durable."""
        try:
            self.journal_path(fingerprint).unlink()
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.artefacts.glob("*.json"))

    def _expire(self, fingerprint: str) -> bool:
        """Evict the entry if its age has reached the TTL.

        With no TTL this is a no-op.  Entries never stamped by this
        process (disk artefacts from a previous run) are stamped fresh
        on first observation rather than expired by an incomparable
        mtime.  Returns whether the entry was evicted.
        """
        if self.ttl is None:
            return False
        stamp = self._stamps.get(fingerprint)
        if stamp is None:
            if (
                fingerprint in self._memory
                or self.artefact_path(fingerprint).exists()
            ):
                self._stamps[fingerprint] = self.clock()
            return False
        if self.clock() - stamp < self.ttl:
            return False
        self._memory.pop(fingerprint, None)
        self._stamps.pop(fingerprint, None)
        try:
            self.artefact_path(fingerprint).unlink()
        except FileNotFoundError:
            pass
        self.stats["expired"] += 1
        return True

    def _remember(self, fingerprint: str, body: bytes) -> None:
        if self.ttl is not None:
            # Age counts from publication (or first observation), never
            # from access: reads must not refresh a stale-bound entry.
            self._stamps.setdefault(fingerprint, self.clock())
        self._memory[fingerprint] = body
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
