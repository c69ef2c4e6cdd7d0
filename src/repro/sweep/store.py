"""JSON persistence for sweep results.

One sweep run serialises to a single self-describing JSON document
(schema id ``repro.sweep/v1``) — the same shape the ``BENCH_*.json``
artefacts use, so a stored sweep seeds benchmark baselines directly.
Round-tripping through :func:`save_sweep`/:func:`load_sweep` preserves
every deterministic field (:meth:`~repro.sweep.engine.SweepResult.fingerprint`
is stable across the round trip).

Robustness contract:

* :func:`save_sweep` writes **atomically** (temp file in the same
  directory, then ``os.replace``) — a crash mid-write never leaves a
  truncated artefact behind;
* :func:`load_sweep` fails loudly on corrupt artefacts: malformed JSON,
  a missing required field, or a non-finite metric value all raise
  ``ValueError`` naming the path and the offending field.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Union

from repro.core.atomicio import atomic_write_text
from repro.sweep.backends import PointFailure
from repro.sweep.engine import PointResult, SweepResult

#: Schema identifier written into (and required from) every document.
SCHEMA = "repro.sweep/v1"

#: Fields every stored document must carry.
_REQUIRED = ("name", "target", "seed", "points")

#: Fields every stored point must carry.
_POINT_REQUIRED = ("index", "params", "metrics")


def sweep_document(result: SweepResult) -> dict:
    """The JSON-ready dict for one sweep result."""
    document = {
        "schema": SCHEMA,
        "name": result.name,
        "target": result.target,
        "seed": result.seed,
        "workers": result.workers,
        "wall_seconds": result.wall_seconds,
        "fingerprint": result.fingerprint(),
        "points": [
            {
                "index": point.index,
                "params": point.params,
                "metrics": point.metrics,
                "counters": point.counters,
                "wall_seconds": point.wall_seconds,
                **(
                    {"telemetry": point.telemetry}
                    if point.telemetry is not None
                    else {}
                ),
            }
            for point in result.points
        ],
    }
    if result.failures:
        document["failures"] = [
            failure.record() for failure in result.failures
        ]
    if result.harness:
        document["harness"] = dict(result.harness)
    if result.telemetry is not None:
        document["telemetry"] = result.telemetry
    return document


def save_sweep(
    result: SweepResult, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Atomically write the result as JSON; returns the path written."""
    return atomic_write_text(
        path, json.dumps(sweep_document(result), indent=2) + "\n"
    )


def _finite_floats(mapping, path, where: str) -> dict:
    """``{k: float(v)}`` with a named error for any non-finite value."""
    values = {}
    for key, value in mapping.items():
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: {where}[{key!r}] is not a number: {value!r}"
            ) from None
        if not math.isfinite(number):
            raise ValueError(
                f"{path}: {where}[{key!r}] is non-finite ({number!r}); "
                "artefact is corrupt or was saved from a broken run"
            )
        values[key] = number
    return values


def load_sweep(path: Union[str, pathlib.Path]) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a saved document.

    Raises ``ValueError`` — always naming the path, and the field where
    one is at fault — on malformed JSON (e.g. a truncated artefact), a
    missing/unknown ``schema``, a missing required field, or a
    non-finite metric value.
    """
    source = pathlib.Path(path)
    try:
        document = json.loads(source.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{source}: corrupt sweep artefact (invalid JSON: {error})"
        ) from None
    if not isinstance(document, dict):
        raise ValueError(
            f"{source}: expected a JSON object, found "
            f"{type(document).__name__}"
        )
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{source}: expected schema {SCHEMA!r}, found {schema!r}"
        )
    for field in _REQUIRED:
        if field not in document:
            raise ValueError(
                f"{source}: missing required field {field!r}"
            )
    points = []
    for position, entry in enumerate(document["points"]):
        if not isinstance(entry, dict):
            raise ValueError(
                f"{source}: points[{position}] is not an object"
            )
        for field in _POINT_REQUIRED:
            if field not in entry:
                raise ValueError(
                    f"{source}: points[{position}] missing required field "
                    f"{field!r}"
                )
        index = int(entry["index"])
        points.append(
            PointResult(
                index=index,
                params=dict(entry["params"]),
                metrics=_finite_floats(
                    entry["metrics"], source, f"points[{position}].metrics"
                ),
                counters=_finite_floats(
                    entry.get("counters", {}), source,
                    f"points[{position}].counters",
                ),
                wall_seconds=float(entry.get("wall_seconds", 0.0)),
                telemetry=entry.get("telemetry"),
            )
        )
    failures = []
    for position, entry in enumerate(document.get("failures", [])):
        if not isinstance(entry, dict):
            raise ValueError(
                f"{source}: failures[{position}] is not an object"
            )
        if "index" not in entry:
            raise ValueError(
                f"{source}: failures[{position}] missing required field "
                "'index'"
            )
        try:
            index = int(entry["index"])
            attempts = int(entry.get("attempts", 1))
        except (TypeError, ValueError):
            raise ValueError(
                f"{source}: failures[{position}] has a non-integer "
                "'index' or 'attempts'"
            ) from None
        failures.append(
            PointFailure(
                index=index,
                params=dict(entry.get("params", {})),
                error=str(entry.get("error", "")),
                attempts=attempts,
            )
        )
    return SweepResult(
        name=document["name"],
        target=document["target"],
        seed=int(document["seed"]),
        workers=int(document.get("workers", 1)),
        points=points,
        wall_seconds=float(document.get("wall_seconds", 0.0)),
        failures=failures,
        harness={
            k: float(v) for k, v in document.get("harness", {}).items()
        },
        telemetry=document.get("telemetry"),
    )
