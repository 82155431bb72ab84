"""Output checks: mask digests and the recorded expected values.

``expected.json`` holds, for every input a workload can draw, the
digest of the mask the program produced when it was recorded and the
mask's quality (EPE violations, PV band in nm^2).  Regenerate it with
``python3 perfbench/record_expected.py`` only when a change is meant to
alter the masks.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

from .stats import Checks

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def mask_digest(mask: np.ndarray) -> str:
    """Shape plus SHA-256 of the float64 bytes: any flipped bit changes it."""
    array = np.ascontiguousarray(mask, dtype=np.float64)
    shape = "x".join(str(n) for n in array.shape)
    return f"{shape}:{hashlib.sha256(array.tobytes()).hexdigest()}"


def npz_mask(payload: bytes) -> np.ndarray:
    """The ``mask`` array of a ``mask.npz`` artifact."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as data:
        return np.array(data["mask"])


def quality_record(mask: np.ndarray, epe_violations: int, pv_band_nm2: float) -> Dict[str, object]:
    return {
        "mask": mask_digest(mask),
        "epe_violations": int(epe_violations),
        "pv_band_nm2": float(pv_band_nm2),
    }


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def check_output(
    checks: Checks,
    label: str,
    expected: Optional[Mapping[str, object]],
    mask: np.ndarray,
    epe_violations: int,
    pv_band_nm2: float,
) -> bool:
    """Compare one produced mask and its quality with the recorded values."""
    if not checks.expect(expected is not None, f"{label}: no recorded expected values"):
        return False
    got = quality_record(mask, epe_violations, pv_band_nm2)
    ok = True
    for key in ("mask", "epe_violations", "pv_band_nm2"):
        ok &= checks.expect(
            got[key] == expected[key],
            f"{label}: {key} {got[key]!r} != recorded {expected[key]!r}",
        )
    return ok
