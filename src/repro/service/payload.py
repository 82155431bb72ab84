"""The job payload: validation, and the job's :class:`FullChipConfig`.

A payload names a workload (``layout``), a litho ``scale`` and any
:class:`~repro.fullchip.FullChipConfig` field declared with a payload
name.  :func:`normalize_payload` checks keys and JSON types;
:func:`job_config` maps a payload onto the config, whose own validation
covers every range and choice.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import ReproError, ServiceError
from ..fullchip.engine import FullChipConfig, knob_fields, knob_type
from ..workloads.spec import validate_workload_spec

__all__ = ["job_config", "normalize_payload"]

_SCALES = ("reduced", "paper")

#: Where the service's payload defaults differ from FullChipConfig's:
#: jobs run on the durable queue unless the tenant asks otherwise.
_SERVICE_DEFAULTS: Dict[str, object] = {"executor": "queue"}


def _json_type_ok(value: object, kind: type) -> bool:
    """True when a JSON value fits a field of ``kind``, without coercion."""
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is kind


def normalize_payload(payload: object) -> Dict[str, object]:
    """Validate a submission body into the canonical job payload.

    Unknown keys, bad or undersized workload specs, file-path layouts,
    values of the wrong JSON type and anything ``FullChipConfig``
    rejects all raise a :class:`~repro.errors.ReproError` here, at
    submission time, so the HTTP layer answers 400 instead of a worker
    crashing mid-run.
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    knobs = {f.metadata["payload"]: f for f in knob_fields("payload")}
    allowed = {"layout", "scale", *knobs}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServiceError(
            f"unknown payload field(s) {unknown}; allowed: {sorted(allowed)}"
        )
    if "layout" not in payload:
        raise ServiceError("job payload needs a 'layout' workload spec")
    # The service refuses server-side file paths: a layout must be a
    # bundled benchmark or a synth: spec both ends can reconstruct.
    validate_workload_spec(payload["layout"], allow_paths=False)
    scale = payload.get("scale")
    normalized: Dict[str, object] = {
        "layout": payload["layout"],
        "scale": "reduced" if scale is None else scale,
    }
    if normalized["scale"] not in _SCALES:
        raise ServiceError(f"scale must be one of {_SCALES}, got {scale!r}")
    for name, knob in knobs.items():
        value = payload.get(name)
        kind = knob_type(knob)
        if value is None:
            value = _SERVICE_DEFAULTS.get(name, knob.default)
        elif not _json_type_ok(value, kind):
            raise ServiceError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
        elif kind is float:
            value = float(value)
        normalized[name] = value
    job_config(normalized)
    return normalized


def job_config(
    payload: Dict[str, object],
    overrides: Optional[Dict[str, object]] = None,
    run_dir: Union[str, Path] = "run",
    trace_id: Optional[str] = None,
) -> FullChipConfig:
    """The :class:`FullChipConfig` a job with this payload runs under.

    Layers, later winning: the payload's declared fields, the service's
    ``overrides``, then the job's own run directory (as the telemetry
    dir) and trace id.  Both per-job fields are ``placement`` fields,
    so validation and cache keying may leave them at their defaults.

    Raises:
        ServiceError: an unknown field, or a value ``FullChipConfig``
            rejects (HTTP 400).
    """
    kwargs = {
        knob.name: payload[knob.metadata["payload"]]
        for knob in knob_fields("payload")
        if knob.metadata["payload"] in payload
    }
    kwargs.update(overrides or {})
    kwargs.update(telemetry_dir=str(run_dir), trace_id=trace_id)
    try:
        return FullChipConfig(**kwargs)
    except (ReproError, TypeError) as exc:  # TypeError: unknown field
        raise ServiceError(f"bad job recipe: {exc}") from exc
