"""Golden-result fingerprints: tolerance-aware drift detection.

A *fingerprint* is a small JSON document (``repro.validate/v1``) capturing
everything deterministic about one run — the summary metrics and every
counter total for a profile; per-point params, metrics and counters for a
sweep. Fingerprints recorded from a known-good build live in
``tests/golden/`` and every later build is compared against them:

* comparisons are **tolerance-aware** — numbers may drift by ``rtol``
  before they count, so harmless float reassociation across platforms
  passes while a changed answer fails;
* mismatches produce **drift-explaining messages** (which key, golden vs
  current value, by how much) instead of a bare hash inequality, so the
  first question after a red check — "what actually changed?" — is
  answered by the failure itself.

:class:`GoldenStore` is the directory-backed record/load/check API used by
``python -m repro validate`` and the tier-1 golden tests.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import pathlib
from typing import Dict, List, Mapping, Optional, Union

from repro.core.atomicio import atomic_write_text

#: Fingerprint document schema identifier.
SCHEMA = "repro.validate/v1"

#: Canonical serve-request schema identifier (the cache-key form).
REQUEST_SCHEMA = "repro.serve.request/v1"

#: Default relative tolerance for numeric comparisons. Runs are seeded and
#: deterministic, so this only needs to absorb cross-platform libm and
#: reassociation noise — far below any real behaviour change.
DEFAULT_RTOL = 1e-6

#: Absolute floor so comparisons against zero do not demand exact zeros.
DEFAULT_ATOL = 1e-12


def profile_fingerprint(result) -> Dict[str, object]:
    """The ``repro.validate/v1`` document for one ``ProfileResult``.

    Captures the numeric summary metrics and every counter total from the
    run's telemetry — the same observable surface the sweep engine hashes,
    so any behaviour change a sweep would notice, a golden notices too.
    """
    counters = {
        metric.name: float(metric.total())
        for metric in result.telemetry.metrics
        if metric.kind == "counter"
    }
    return {
        "schema": SCHEMA,
        "kind": "profile",
        "id": result.experiment_id,
        "title": result.title,
        "params": {k: repr(v) for k, v in result.params.items()},
        "metrics": dict(result.metrics),
        "counters": counters,
    }


def sweep_fingerprint(result) -> Dict[str, object]:
    """The ``repro.validate/v1`` document for one ``SweepResult``.

    Stores the sweep's exact digest for reference plus the full per-point
    payload, so a drift report can say *which point, which metric*.
    """
    return {
        "schema": SCHEMA,
        "kind": "sweep",
        "id": result.name,
        "target": result.target,
        "seed": result.seed,
        "digest": result.fingerprint(),
        "points": [point.payload() for point in result.points],
    }


def _close(golden: float, current: float, rtol: float) -> bool:
    return abs(golden - current) <= DEFAULT_ATOL + rtol * max(
        abs(golden), abs(current)
    )


def _numeric_drifts(
    prefix: str,
    golden: Dict[str, float],
    current: Dict[str, float],
    rtol: float,
) -> List[str]:
    """Key-by-key comparison of two name -> number maps."""
    messages: List[str] = []
    for key in sorted(set(golden) - set(current)):
        messages.append(
            f"{prefix}[{key!r}]: in golden ({golden[key]!r}) but missing "
            "from the current run"
        )
    for key in sorted(set(current) - set(golden)):
        messages.append(
            f"{prefix}[{key!r}]: new in the current run ({current[key]!r}), "
            "absent from golden — re-record if intentional"
        )
    for key in sorted(set(golden) & set(current)):
        g, c = float(golden[key]), float(current[key])
        if not _close(g, c, rtol):
            scale = max(abs(g), abs(c), DEFAULT_ATOL)
            drift = abs(g - c) / scale
            messages.append(
                f"{prefix}[{key!r}]: golden {g!r} -> current {c!r} "
                f"(rel drift {drift:.3e} > rtol {rtol:g})"
            )
    return messages


def _exact_drifts(
    prefix: str, golden: Dict[str, str], current: Dict[str, str]
) -> List[str]:
    """Exact comparison for repr-encoded parameter maps."""
    messages: List[str] = []
    for key in sorted(set(golden) | set(current)):
        g, c = golden.get(key), current.get(key)
        if g != c:
            messages.append(
                f"{prefix}[{key!r}]: golden {g!r} -> current {c!r}"
            )
    return messages


def compare_fingerprints(
    golden: Dict[str, object],
    current: Dict[str, object],
    rtol: float = DEFAULT_RTOL,
) -> List[str]:
    """Every way ``current`` drifted from ``golden``, as readable messages.

    An empty list means the run matches the golden within tolerance.
    Structural fields (schema, kind, id, params) compare exactly; metric
    and counter values compare within ``rtol``.
    """
    messages: List[str] = []
    for field in ("schema", "kind", "id"):
        if golden.get(field) != current.get(field):
            messages.append(
                f"{field}: golden {golden.get(field)!r} != current "
                f"{current.get(field)!r}"
            )
    if messages:
        return messages  # structurally different documents; stop here

    messages.extend(
        _exact_drifts("params", golden.get("params", {}),
                      current.get("params", {}))
    )
    if golden["kind"] == "profile":
        messages.extend(
            _numeric_drifts("metrics", golden.get("metrics", {}),
                            current.get("metrics", {}), rtol)
        )
        messages.extend(
            _numeric_drifts("counters", golden.get("counters", {}),
                            current.get("counters", {}), rtol)
        )
        return messages

    golden_points = golden.get("points", [])
    current_points = current.get("points", [])
    if len(golden_points) != len(current_points):
        messages.append(
            f"points: golden has {len(golden_points)}, current has "
            f"{len(current_points)}"
        )
        return messages
    for g_point, c_point in zip(golden_points, current_points):
        index = g_point.get("index")
        prefix = f"point[{index}]"
        if c_point.get("index") != index:
            messages.append(
                f"{prefix}: index changed to {c_point.get('index')}"
            )
            continue
        messages.extend(
            _exact_drifts(f"{prefix}.params", g_point.get("params", {}),
                          c_point.get("params", {}))
        )
        messages.extend(
            _numeric_drifts(f"{prefix}.metrics", g_point.get("metrics", {}),
                            c_point.get("metrics", {}), rtol)
        )
        messages.extend(
            _numeric_drifts(f"{prefix}.counters",
                            g_point.get("counters", {}),
                            c_point.get("counters", {}), rtol)
        )
    return messages


class GoldenStore:
    """Directory of golden fingerprints, one JSON file per subject.

    Files are named ``<kind>_<id>.json`` (``profile_C1.json``,
    ``sweep_smoke.json``) and hold one ``repro.validate/v1`` document,
    pretty-printed with sorted keys so diffs in review stay readable.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)

    def path_for(self, kind: str, subject_id: str) -> pathlib.Path:
        return self.directory / f"{kind}_{subject_id}.json"

    def record(self, document: Dict[str, object]) -> pathlib.Path:
        """Write (or overwrite) the golden for one document."""
        if document.get("schema") != SCHEMA:
            raise ValueError(
                f"refusing to record non-{SCHEMA} document: "
                f"{document.get('schema')!r}"
            )
        path = self.path_for(str(document["kind"]), str(document["id"]))
        self.directory.mkdir(parents=True, exist_ok=True)
        # Atomic: a crash mid-record must never truncate a golden that
        # every later build would then fail to load.
        atomic_write_text(
            path, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        return path

    @staticmethod
    def _load_file(path: pathlib.Path) -> Dict[str, object]:
        """Parse one golden file, raising a named error on corruption."""
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}: corrupt golden fingerprint (invalid JSON: "
                f"{error}) — delete it and re-record"
            ) from None
        if not isinstance(document, dict):
            raise ValueError(
                f"{path}: expected a JSON object, found "
                f"{type(document).__name__}"
            )
        if document.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: expected schema {SCHEMA!r}, found "
                f"{document.get('schema')!r}"
            )
        for field in ("kind", "id"):
            if field not in document:
                raise ValueError(
                    f"{path}: missing required field {field!r}"
                )
        subjects = [("", document)] + [
            (f"points[{position}].", point)
            for position, point in enumerate(document.get("points", []))
        ]
        for prefix, holder in subjects:
            for section in ("metrics", "counters"):
                for key, value in holder.get(section, {}).items():
                    if not isinstance(
                        value, (int, float)
                    ) or not math.isfinite(float(value)):
                        raise ValueError(
                            f"{path}: {prefix}{section}[{key!r}] is not a "
                            f"finite number: {value!r}"
                        )
        return document

    def load(
        self, kind: str, subject_id: str
    ) -> Optional[Dict[str, object]]:
        """The stored golden document, or ``None`` if never recorded.

        A file that exists but fails to parse (truncated write from a
        crashed recorder, hand-edit gone wrong, NaN values) raises a
        ``ValueError`` naming the path rather than mis-comparing.
        """
        path = self.path_for(kind, subject_id)
        if not path.is_file():
            return None
        return self._load_file(path)

    def documents(self) -> List[Dict[str, object]]:
        """Every stored golden, sorted by filename."""
        if not self.directory.is_dir():
            return []
        return [
            self._load_file(path)
            for path in sorted(self.directory.glob("*.json"))
        ]

    def check(
        self, document: Dict[str, object], rtol: float = DEFAULT_RTOL
    ) -> List[str]:
        """Drift messages for ``document`` against its stored golden."""
        golden = self.load(str(document["kind"]), str(document["id"]))
        if golden is None:
            return [
                f"no golden recorded for {document['kind']} "
                f"{document['id']!r} under {self.directory} — run "
                "`python -m repro validate --record` on a known-good build"
            ]
        return compare_fingerprints(golden, document, rtol=rtol)


# ---------------------------------------------------------------------------
# Canonical serve requests (``repro.serve.request/v1``)
# ---------------------------------------------------------------------------
#
# ``python -m repro serve`` caches completed artefacts keyed by a hash of
# the *request*, so two requests that mean the same thing must hash the
# same: ``{"aggressors": 8}`` vs ``{"aggressors": 8.0}``, shuffled key
# order, defaults spelled out vs omitted. ``canonical_request`` maps every
# equivalent spelling onto one normal form, and — critically — the service
# *executes* from that same normal form, so the hash can never disagree
# with what actually ran.

#: Top-level request keys that carry transport concerns, not meaning.
#: They never influence the fingerprint.
_TRANSPORT_KEYS = frozenset({"schema", "kind", "tenant", "stream"})

#: Largest integer exactly representable as a float; integral floats
#: beyond it are left as floats rather than silently rounded.
_MAX_SAFE_INT = 2 ** 53

_PROFILE_DEFAULTS_CACHE: Dict[str, Dict[str, object]] = {}


def profile_defaults(profile_id: str) -> Dict[str, object]:
    """The requestable parameters of a profile, with their defaults.

    A parameter is requestable iff it has a default in the profile's
    signature (positional infrastructure arguments such as ``telemetry``
    are wired by the runner, never by a request). Signatures are memoised
    so the serve hot path does not pay ``inspect`` per request.
    """
    key = str(profile_id).upper()
    cached = _PROFILE_DEFAULTS_CACHE.get(key)
    if cached is None:
        from repro import profiles

        try:
            function = profiles.PROFILES[key]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile_id!r}; choose from "
                f"{', '.join(sorted(profiles.PROFILES))}"
            ) from None
        cached = {
            name: parameter.default
            for name, parameter in inspect.signature(
                function
            ).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        _PROFILE_DEFAULTS_CACHE[key] = cached
    return dict(cached)


def _canonical_value(value: object, where: str) -> object:
    """One JSON-native normal form for a parameter value.

    Integral floats collapse to int (``8.0`` -> ``8``) so JSON float
    formatting cannot split the cache; bools stay bools (checked before
    int — ``True`` must not become ``1``); non-finite floats are rejected
    because they cannot round-trip through JSON.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{where}: non-finite float {value!r}")
        if value.is_integer() and abs(value) <= _MAX_SAFE_INT:
            return int(value)
        return value
    if isinstance(value, (list, tuple)):
        return [
            _canonical_value(item, f"{where}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, Mapping):
        return {
            str(key): _canonical_value(value[key], f"{where}[{key!r}]")
            for key in sorted(value, key=str)
        }
    raise ValueError(
        f"{where}: unsupported value type {type(value).__name__!r} "
        f"({value!r}) — requests are JSON documents"
    )


def _reject_unknown_keys(payload: Mapping, allowed: frozenset) -> None:
    unknown = sorted(set(map(str, payload)) - allowed - _TRANSPORT_KEYS)
    if unknown:
        raise ValueError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _canonical_profile_request(payload: Mapping) -> Dict[str, object]:
    _reject_unknown_keys(payload, frozenset({"profile", "params"}))
    profile_id = str(payload["profile"]).upper()
    defaults = profile_defaults(profile_id)

    raw_params = payload.get("params") or {}
    if not isinstance(raw_params, Mapping):
        raise ValueError(
            f"params: expected an object, found "
            f"{type(raw_params).__name__}"
        )
    unknown = sorted(set(map(str, raw_params)) - set(defaults))
    if unknown:
        raise ValueError(
            f"profile {profile_id} has no parameter(s) "
            f"{', '.join(unknown)} (requestable: "
            f"{', '.join(sorted(defaults))})"
        )
    # Resolve *every* parameter — explicit or defaulted — through the
    # same normalisation, so "default spelled out" and "default omitted"
    # are literally the same document.
    params = {
        name: _canonical_value(
            raw_params.get(name, default), f"params[{name}]"
        )
        for name, default in defaults.items()
    }
    return {
        "schema": REQUEST_SCHEMA,
        "kind": "profile",
        "profile": profile_id,
        "params": {name: params[name] for name in sorted(params)},
    }


def _canonical_sweep_request(payload: Mapping) -> Dict[str, object]:
    if "sweep" in payload:
        _reject_unknown_keys(payload, frozenset({"sweep", "seed"}))
        from repro.sweep import named_sweep

        seed = payload.get("seed")
        try:
            spec = named_sweep(
                str(payload["sweep"]),
                seed=None if seed is None else int(seed),
            )
        except KeyError as error:
            raise ValueError(str(error.args[0])) from None
        name, target, seed = spec.name, spec.target, spec.seed
        axes = spec.grid.axes
    else:
        _reject_unknown_keys(
            payload, frozenset({"target", "axes", "seed", "name"})
        )
        target = str(payload["target"])
        axes = payload.get("axes")
        if not isinstance(axes, Mapping) or not axes:
            raise ValueError(
                "axes: expected a non-empty object of "
                "axis name -> list of values"
            )
        name = str(payload.get("name") or target)
        seed = int(payload.get("seed", 0))

    from repro.sweep import resolve_target

    try:
        resolve_target(target)
    except KeyError as error:
        raise ValueError(str(error.args[0])) from None

    canonical_axes: Dict[str, List[object]] = {}
    for axis in sorted(map(str, axes)):
        values = axes[axis]
        if isinstance(values, (str, bytes)) or not hasattr(
            values, "__iter__"
        ):
            raise ValueError(
                f"axes[{axis!r}]: expected a list of values, found "
                f"{values!r}"
            )
        values = list(values)
        if not values:
            raise ValueError(f"axes[{axis!r}]: empty axis")
        # Value order stays significant (it fixes the enumeration order
        # and therefore point identity); only axis *names* are sorted.
        canonical_axes[axis] = [
            _canonical_value(value, f"axes[{axis!r}][{index}]")
            for index, value in enumerate(values)
        ]
    return {
        "schema": REQUEST_SCHEMA,
        "kind": "sweep",
        "name": name,
        "target": target,
        "seed": int(seed),
        "axes": canonical_axes,
    }


def canonical_request(payload: Mapping) -> Dict[str, object]:
    """The ``repro.serve.request/v1`` normal form of a request payload.

    Accepts raw client payloads and already-canonical documents alike
    (canonicalisation is idempotent). Profile requests carry ``profile``
    (+ optional ``params``); sweep requests carry either ``sweep`` (a
    named sweep, + optional ``seed``) or ``target``/``axes``
    (+ optional ``seed``/``name``). Everything invalid — unknown
    profile, unknown parameter, empty axis, non-JSON value — raises
    ``ValueError`` with the offending field named.

    The service executes from the canonical form (see
    ``repro.sweep.spec_from_request``), so hash and execution cannot
    disagree.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"request: expected a JSON object, found "
            f"{type(payload).__name__}"
        )
    has_profile = "profile" in payload
    has_sweep = "sweep" in payload or "target" in payload
    if has_profile and has_sweep:
        raise ValueError(
            "request mixes profile and sweep fields — send exactly one "
            "of 'profile', 'sweep', or 'target'"
        )
    if has_profile:
        return _canonical_profile_request(payload)
    if has_sweep:
        return _canonical_sweep_request(payload)
    raise ValueError(
        "request needs one of 'profile' (run a profile), 'sweep' "
        "(a named sweep), or 'target' + 'axes' (a custom sweep)"
    )


def request_fingerprint(payload: Mapping) -> str:
    """The cache key for a request: sha256 of its canonical form.

    Every spelling of the same request — shuffled keys, ``8.0`` for
    ``8``, defaults omitted or explicit — produces the same digest;
    any semantic change produces a different one.
    """
    canonical = canonical_request(payload)
    encoded = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
