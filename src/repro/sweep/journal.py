"""Append-only run journals: crash-consistent sweep progress on disk.

A journal is a JSONL file (schema ``repro.sweep.journal/v1``): one header
line identifying the sweep, then one line per completed point (and one
per terminally-failed point).  Every record is flushed **and fsynced**
before the supervisor moves on, so the journal survives a SIGKILL of any
worker *or the parent* with at most one torn trailing line — which
:func:`load_journal` detects and drops, because a record only counts once
its terminating newline is on disk.

``run_sweep(spec, resume=path)`` uses the journal to skip completed
points and re-attempt failed ones; the resumed result's fingerprint is
bit-identical to an uninterrupted run because every point's outcome is a
pure function of ``(seed, sweep name, point index)`` — never of which
run, attempt or worker produced it.

Distributed sweeps write *several* journals — the coordinator's primary
plus one per worker host — and :func:`merge_journals` folds them back
into one resume state: the first-listed journal wins duplicate indices,
and a duplicate whose payload digest disagrees raises ``ValueError``
naming the offending path and point index (two journals claiming
different outcomes for the same point means the determinism contract was
broken, which must never be papered over).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.core.atomicio import fsync_directory
from repro.sweep.engine import PointResult, SweepSpec, finite_values

#: Journal document schema identifier (the header's ``schema`` field).
SCHEMA = "repro.sweep.journal/v1"


def grid_digest(spec: SweepSpec) -> str:
    """A stable digest of the spec's full parameter grid.

    Written into the journal header and re-checked on resume, so a
    journal can never silently replay onto a sweep whose axes changed.
    """
    payload = json.dumps(
        [
            {"index": point.index,
             "params": {k: repr(v) for k, v in point.params.items()}}
            for point in spec.points()
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def journal_header(spec: SweepSpec) -> Dict[str, object]:
    """The header record for one spec."""
    return {
        "kind": "header",
        "schema": SCHEMA,
        "name": spec.name,
        "target": spec.target,
        "seed": spec.seed,
        "points": len(spec.points()),
        "grid_digest": grid_digest(spec),
    }


@dataclass
class JournalState:
    """Everything a journal file recorded, ready for resume."""

    header: Dict[str, object]
    completed: Dict[int, PointResult] = field(default_factory=dict)
    failed: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: Attempts recorded per completed point index.
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Which journal file each completed record came from (meaningful for
    #: :func:`merge_journals`; single-file loads point every index here).
    origin: Dict[int, str] = field(default_factory=dict)
    #: True when the final line was torn (a crash mid-append) and dropped.
    torn_tail: bool = False

    def matches(self, spec: SweepSpec) -> Optional[str]:
        """``None`` if this journal belongs to ``spec``, else the mismatch."""
        expected = journal_header(spec)
        for key in ("schema", "name", "target", "seed", "points",
                    "grid_digest"):
            if self.header.get(key) != expected[key]:
                return (
                    f"journal {key} {self.header.get(key)!r} does not match "
                    f"the spec's {expected[key]!r}"
                )
        return None


def point_record(result: PointResult, attempts: int = 1) -> Dict[str, object]:
    """The JSON-ready record for one completed point.

    The same encoding serves the journal file and the fleet's ``result``
    frames, so a worker host's wire payload and its local journal line
    are byte-for-byte the same JSON object.
    """
    record = {
        "kind": "point",
        "index": result.index,
        "params": result.params,
        "metrics": result.metrics,
        "counters": result.counters,
        "wall_seconds": result.wall_seconds,
        "attempts": attempts,
    }
    if result.telemetry is not None:
        # Telemetry-collecting runs journal each point's summary so a
        # resumed run merges the same aggregate as an uninterrupted one.
        record["telemetry"] = result.telemetry
    return record


def point_from_record(record: Dict[str, object]) -> Tuple[PointResult, int]:
    """Decode one ``kind == "point"`` record into ``(result, attempts)``.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed input,
    a non-finite metric or counter included; callers wrap with path/line
    (journal loads) or host (wire frames) context.
    """
    index = int(record["index"])
    result = PointResult(
        index=index,
        params=dict(record["params"]),
        metrics=finite_values(record["metrics"], "metrics"),
        counters=finite_values(record.get("counters", {}), "counters"),
        wall_seconds=float(record.get("wall_seconds", 0.0)),
        telemetry=record.get("telemetry"),
    )
    return result, int(record.get("attempts", 1))


def point_payload_digest(result: PointResult) -> str:
    """Digest of one point's deterministic payload.

    Hashes :meth:`PointResult.payload`, the encoding
    :meth:`SweepResult.fingerprint` hashes too, so two records for the
    same point digest equal iff the determinism contract held.
    """
    payload = json.dumps(result.payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load_journal(path: Union[str, pathlib.Path]) -> JournalState:
    """Parse a journal file into a :class:`JournalState`.

    Tolerates exactly one torn trailing line (the crash-in-flight append);
    any other malformed line raises ``ValueError`` naming the path and
    line number, as does a missing or mismatched header.
    """
    source = pathlib.Path(path)
    raw = source.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is the torn tail of an interrupted
    # append and is dropped (its record never durably happened).
    torn_tail = bool(lines and lines[-1] != "")
    body = lines[:-1]
    state: Optional[JournalState] = None
    for number, line in enumerate(body, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{source}: corrupt journal line {number}: {error}"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError(
                f"{source}: journal line {number} has no 'kind' field"
            )
        kind = record["kind"]
        if kind == "header":
            if state is not None:
                raise ValueError(
                    f"{source}: duplicate header at line {number}"
                )
            if record.get("schema") != SCHEMA:
                raise ValueError(
                    f"{source}: expected schema {SCHEMA!r}, found "
                    f"{record.get('schema')!r}"
                )
            state = JournalState(header=record)
            continue
        if state is None:
            raise ValueError(
                f"{source}: line {number} precedes the journal header"
            )
        if kind == "point":
            try:
                result, attempts = point_from_record(record)
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{source}: malformed point record at line {number}: "
                    f"{error}"
                ) from None
            state.completed[result.index] = result
            state.attempts[result.index] = attempts
            state.origin[result.index] = str(source)
            state.failed.pop(result.index, None)
            continue
        if kind == "failure":
            try:
                index = int(record["index"])
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{source}: malformed failure record at line {number}: "
                    f"{error}"
                ) from None
            if index not in state.completed:
                state.failed[index] = record
            continue
        raise ValueError(
            f"{source}: unknown record kind {kind!r} at line {number}"
        )
    if state is None:
        raise ValueError(f"{source}: journal has no header record")
    state.torn_tail = torn_tail
    return state


#: Header fields every journal in a merge set must agree on.
_HEADER_KEYS = ("schema", "name", "target", "seed", "points", "grid_digest")


def merge_journals(
    paths: Iterable[Union[str, pathlib.Path]]
) -> JournalState:
    """Merge one or more journals of the same sweep into one resume state.

    Duplicate point indices keep the record from the **first-listed**
    journal that completed them; a later journal's record for the same
    index is checked against the kept one via
    :func:`point_payload_digest`, and a disagreement raises ``ValueError``
    naming the offending path and index (the records claim different
    deterministic outcomes, so neither can be trusted).  Headers must
    all describe the same spec — same name, target, seed and
    ``grid_digest``.  Failure records survive only for indices no journal
    completed.  ``origin`` maps each kept index to the file it came from,
    which lets a resumed run copy foreign records into its primary
    journal.
    """
    ordered = [pathlib.Path(p) for p in paths]
    if not ordered:
        raise ValueError("merge_journals needs at least one journal path")
    merged: Optional[JournalState] = None
    digests: Dict[int, Tuple[str, pathlib.Path]] = {}
    first = ordered[0]
    for path in ordered:
        state = load_journal(path)
        if merged is None:
            merged = JournalState(header=state.header,
                                  torn_tail=state.torn_tail)
        else:
            for key in _HEADER_KEYS:
                if state.header.get(key) != merged.header.get(key):
                    raise ValueError(
                        f"{path}: journal {key} {state.header.get(key)!r} "
                        f"does not match {first}'s "
                        f"{merged.header.get(key)!r}"
                    )
            merged.torn_tail = merged.torn_tail or state.torn_tail
        for index in sorted(state.completed):
            result = state.completed[index]
            digest = point_payload_digest(result)
            if index in digests:
                kept_digest, kept_path = digests[index]
                if digest != kept_digest:
                    raise ValueError(
                        f"{path}: conflicting record for point {index}: "
                        f"payload digest {digest[:16]} disagrees with "
                        f"{kept_path}'s {kept_digest[:16]}"
                    )
                continue
            digests[index] = (digest, path)
            merged.completed[index] = result
            merged.attempts[index] = state.attempts.get(index, 1)
            merged.origin[index] = str(path)
        for index, record in state.failed.items():
            if index not in merged.failed:
                merged.failed[index] = record
    for index in list(merged.failed):
        if index in merged.completed:
            del merged.failed[index]
    return merged


class RunJournal:
    """The append side: durable, crash-consistent progress records.

    Open in ``"fresh"`` mode to truncate and start a new journal (header
    written immediately) or ``"resume"`` to append to an existing one
    (header must already match the spec — callers validate via
    :func:`load_journal` / :meth:`JournalState.matches` first).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        spec: SweepSpec,
        mode: str = "fresh",
        fsync: bool = True,
    ) -> None:
        if mode not in ("fresh", "resume"):
            raise ValueError(f"journal mode must be fresh|resume, not {mode!r}")
        self.path = pathlib.Path(path)
        self.fsync = fsync
        if self.path.parent and not self.path.parent.is_dir():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if mode == "resume":
            self._truncate_torn_tail()
        self._handle = open(self.path, "w" if mode == "fresh" else "a")
        if mode == "fresh":
            if self.fsync:
                # The journal *file* is fsynced per record, but its very
                # existence is only durable once the directory entry is.
                fsync_directory(self.path.parent)
            self._append(journal_header(spec))

    def _truncate_torn_tail(self) -> None:
        """Drop a torn trailing line before appending in resume mode.

        :func:`load_journal` tolerates one torn tail (the record never
        durably happened), but appending after it would concatenate the
        next record onto the partial line, corrupting the journal for
        every later load.  Truncating back to the last terminated line
        restores the invariant of at most one torn trailing line.
        """
        try:
            with open(self.path, "rb+") as handle:
                raw = handle.read()
                if not raw or raw.endswith(b"\n"):
                    return
                handle.truncate(raw.rfind(b"\n") + 1)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        except FileNotFoundError:
            return

    def _append(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def record_point(self, result: PointResult, attempts: int = 1) -> None:
        """Durably journal one completed point."""
        self._append(point_record(result, attempts))

    def record_failure(
        self, index: int, error: str, attempts: int
    ) -> None:
        """Durably journal one terminally-failed point."""
        self._append(
            {"kind": "failure", "index": index, "error": error,
             "attempts": attempts}
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
