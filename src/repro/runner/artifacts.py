"""Deterministic JSON artifacts and the hashed run manifest.

Artifact bytes are *canonical*: keys sorted, two-space indentation, ASCII
output, floats printed with Python's shortest-round-trip ``repr`` and
non-finite values encoded portably (strict JSON has no ``Infinity`` /
``NaN`` literals) as ``{"$nonfinite": "inf" | "-inf" | "nan"}``.  Running
the same experiment twice — in any process, under any worker count —
therefore yields byte-identical files, which is what the run manifest's
SHA-256 digests and the golden-regression suite rely on.

Layout under an output directory (see ``ARTIFACTS.md``)::

    artifacts/<scale>/<EXPERIMENT_ID>.json   one ExperimentResult each
    artifacts/<scale>/manifest.json          deterministic run manifest
    artifacts/<scale>/run_info.json          wall times etc. (NOT deterministic)
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ModelValidationError
from repro.simulation.results import ExperimentResult

__all__ = ["MANIFEST_SCHEMA_VERSION", "canonical_json_bytes",
           "decode_payload", "result_to_artifact_bytes",
           "load_artifact", "load_artifact_payload",
           "artifact_filename", "build_manifest", "manifest_bytes",
           "load_manifest", "sha256_bytes"]

#: Version of the ``manifest.json`` layout.
MANIFEST_SCHEMA_VERSION = 1

#: ``kind`` marker embedded in manifests.
MANIFEST_KIND = "repro-netneutrality/run-manifest"

#: Sentinel key used to encode non-finite floats in strict JSON.
_NONFINITE_KEY = "$nonfinite"

_NONFINITE_ENCODE = {math.inf: "inf", -math.inf: "-inf"}


def _encode_nonfinite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by a sentinel object."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Real) and not isinstance(
            value, numbers.Integral):
        value = float(value)
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {_NONFINITE_KEY: "nan"}
        return {_NONFINITE_KEY: _NONFINITE_ENCODE[value]}
    if isinstance(value, Mapping):
        if _NONFINITE_KEY in value:
            raise ModelValidationError(
                f"payload mappings may not use the reserved key "
                f"{_NONFINITE_KEY!r}")
        return {key: _encode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_nonfinite(item) for item in value]
    return value


def _decode_nonfinite(value: Any) -> Any:
    """Inverse of :func:`_encode_nonfinite` (applied after ``json.loads``)."""
    if isinstance(value, dict):
        if set(value) == {_NONFINITE_KEY}:
            token = value[_NONFINITE_KEY]
            try:
                return {"inf": math.inf, "-inf": -math.inf,
                        "nan": math.nan}[token]
            except KeyError:
                raise ModelValidationError(
                    f"unknown non-finite token {token!r}") from None
        return {key: _decode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_nonfinite(item) for item in value]
    return value


def canonical_json_bytes(payload: Any) -> bytes:
    """``payload`` as canonical JSON text (sorted keys, trailing newline)."""
    encoded = _encode_nonfinite(payload)
    text = json.dumps(encoded, sort_keys=True, indent=2, ensure_ascii=True,
                      allow_nan=False)
    return (text + "\n").encode("ascii")


def decode_payload(data: bytes) -> Any:
    """Parse canonical JSON bytes back into a payload (sentinels decoded)."""
    return _decode_nonfinite(json.loads(data.decode("ascii")))


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def result_to_artifact_bytes(result: ExperimentResult) -> bytes:
    """The canonical artifact bytes of one experiment result."""
    return canonical_json_bytes(result.to_dict())


def artifact_filename(experiment_id: str) -> str:
    """File name of one experiment's artifact inside a run directory."""
    return f"{experiment_id}.json"


def load_artifact_payload(path: Path) -> Dict[str, Any]:
    """The decoded JSON payload of an artifact file."""
    try:
        payload = decode_payload(Path(path).read_bytes())
    except (OSError, ValueError) as error:
        raise ModelValidationError(
            f"cannot read artifact {path}: {error}") from error
    if not isinstance(payload, dict):
        raise ModelValidationError(f"artifact {path} is not a JSON object")
    return payload


def load_artifact(path: Path) -> ExperimentResult:
    """An :class:`ExperimentResult` reloaded from an artifact file."""
    return ExperimentResult.from_dict(load_artifact_payload(path))


def build_manifest(scale: str,
                   artifacts: Mapping[str, bytes],
                   failed_findings: Optional[Mapping[str, List[str]]] = None,
                   solver: Optional[Mapping[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """The deterministic run manifest for a set of artifact bytes.

    ``artifacts`` maps experiment id to the canonical artifact bytes; the
    manifest orders experiments by id and records the SHA-256 and size of
    each file, so two runs agree byte-for-byte exactly when every artifact
    does.  ``solver`` is the run's solver provenance
    (:meth:`repro.config.SolverConfig.provenance`) — deterministic for a
    given config, and how ``scripts/manifest_diff.py`` catches comparisons
    across solver tolerances.  Anything non-deterministic (wall times, worker
    counts) belongs in ``run_info.json``, never here.
    """
    failed_findings = failed_findings or {}
    experiments = {
        experiment_id: {
            "artifact": artifact_filename(experiment_id),
            "sha256": sha256_bytes(data),
            "bytes": len(data),
            "failed_findings": sorted(failed_findings.get(experiment_id, [])),
        }
        for experiment_id, data in artifacts.items()
    }
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "scale": scale,
        "experiments": dict(sorted(experiments.items())),
    }
    if solver is not None:
        manifest["solver"] = dict(solver)
    return manifest


def manifest_bytes(manifest: Mapping[str, Any]) -> bytes:
    """Canonical bytes of a manifest payload."""
    return canonical_json_bytes(dict(manifest))


def load_manifest(path: Path) -> Dict[str, Any]:
    """A run manifest reloaded (and schema-checked) from disk."""
    payload = load_artifact_payload(path)
    if payload.get("kind") != MANIFEST_KIND:
        raise ModelValidationError(f"{path} is not a run manifest")
    if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ModelValidationError(
            f"unsupported manifest schema {payload.get('schema')!r} in {path}")
    return payload
