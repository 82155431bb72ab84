"""Content-addressed result cache for the job service.

A job's *cache key* is the :func:`~repro.utils.hashing.canonical_hash`
of everything that determines its stitched mask: the workload spec and
scale, every non-``placement`` field of the job's effective
:class:`~repro.fullchip.FullChipConfig` (payload plus the service's
overrides) with the backend resolved, the solver/optics configuration
fingerprint, and the code version.  Placement fields (workers,
executor, ``keep_going``, run dir, ...) are left out, so a resubmit on
a different fleet still dedups; an unmarked field is keyed, so a
forgotten mark costs a miss, never a wrong hit.

Entries are one JSON file per key under ``<root>/cache/``, pointing at
the job that produced the result.  Lookups validate that the source
job's run directory still holds the mask artifact, so a pruned run dir
degrades to a cache miss instead of a dangling DONE job.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional, Union

from ..utils.hashing import canonical_hash
from ..utils.io import write_json_atomic
from ..xp import resolve_spec
from .payload import job_config

__all__ = ["CACHE_DIRNAME", "cache_key_for", "ResultCache"]

CACHE_DIRNAME = "cache"


def cache_key_for(
    payload: Dict[str, object],
    version: str,
    config_fingerprint: Optional[str] = None,
    overrides: Optional[Dict[str, object]] = None,
) -> str:
    """Content address of a normalized job payload.

    Args:
        payload: the normalized submission (see
            :func:`repro.service.payload.normalize_payload`).
        version: the serving code version — results are not assumed
            portable across releases.
        config_fingerprint: canonical hash of any solver/optics config
            overrides the service was constructed with (None when the
            stock per-scale configs apply; they are already pinned by
            ``scale`` + ``version``).
        overrides: the service's ``FullChipConfig`` overrides.

    Raises:
        ServiceError: the effective config is invalid.
    """
    config = job_config(payload, overrides)
    recipe = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if not f.metadata["placement"]
    }
    recipe["backend"] = resolve_spec(config.backend)
    return canonical_hash(
        {
            "layout": payload["layout"],
            "scale": payload["scale"],
            "recipe": recipe,
            "version": version,
            "config_fingerprint": config_fingerprint,
        }
    )


class ResultCache:
    """File-backed key → job-id map with artifact validation."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root) / CACHE_DIRNAME
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cache entry for ``key``, or None on a miss."""
        path = self._entry_path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or "job_id" not in entry:
            return None
        return entry

    def get_valid(self, key: str, artifact_path) -> Optional[Dict[str, object]]:
        """Like :meth:`get`, but demand the result artifact still exists.

        Args:
            key: the cache key.
            artifact_path: callable mapping ``(job_id, name)`` to the
                artifact's path or None (the job store provides this).
        """
        entry = self.get(key)
        if entry is None:
            return None
        try:
            path = artifact_path(str(entry["job_id"]), "mask.npz")
        except Exception:  # noqa: BLE001 - stale entry (pruned job) = miss
            return None
        if path is None or not Path(path).is_file():
            return None
        return entry

    def put(self, key: str, job_id: str, **meta: object) -> None:
        """Record ``key`` → ``job_id`` (last writer wins)."""
        write_json_atomic(
            self._entry_path(key), {"key": key, "job_id": job_id, **meta}
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
