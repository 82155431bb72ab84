"""The output checker: mask digests and recorded expected values."""

import io

import numpy as np

from mosaicbench.checks import (
    check_output,
    load_expected,
    mask_digest,
    npz_mask,
    quality_record,
)
from mosaicbench.stats import Checks


def _mask():
    rng = np.random.default_rng(3)
    return (rng.random((32, 48)) > 0.5).astype(np.float64)


def _flip_one_byte(mask):
    raw = bytearray(np.ascontiguousarray(mask).tobytes())
    raw[len(raw) // 2] ^= 0x01
    return np.frombuffer(bytes(raw), dtype=mask.dtype).reshape(mask.shape)


def test_checker_accepts_the_recorded_mask():
    mask = _mask()
    checks = Checks()
    assert check_output(checks, "m", quality_record(mask, 2, 640.0), mask.copy(), 2, 640.0)
    assert checks.correct


def test_checker_rejects_a_mask_with_one_flipped_byte():
    mask = _mask()
    expected = quality_record(mask, 2, 640.0)
    flipped = _flip_one_byte(mask)
    assert flipped.tobytes() != mask.tobytes()
    checks = Checks()
    assert not check_output(checks, "m", expected, flipped, 2, 640.0)
    assert not checks.correct
    assert any("mask" in problem for problem in checks.problems)


def test_checker_rejects_changed_quality_or_missing_record():
    mask = _mask()
    expected = quality_record(mask, 2, 640.0)
    checks = Checks()
    assert not check_output(checks, "m", expected, mask, 3, 640.0)
    assert not check_output(checks, "m", expected, mask, 2, 656.0)
    assert not check_output(checks, "m", None, mask, 2, 640.0)
    assert len(checks.problems) == 3


def test_digest_depends_on_shape():
    mask = _mask()
    assert mask_digest(mask) != mask_digest(mask.reshape(48, 32))


def test_npz_round_trip():
    mask = _mask()
    buffer = io.BytesIO()
    np.savez_compressed(buffer, mask=mask)
    assert mask_digest(npz_mask(buffer.getvalue())) == mask_digest(mask)


def test_expected_values_cover_every_input():
    from mosaicbench.chip import CHIP_VARIANTS, chip_spec
    from mosaicbench.service import POOL_SIZE, service_spec

    expected = load_expected()
    assert len(expected["clips"]) == 10
    assert all(set(modes) == {"fast", "exact"} for modes in expected["clips"].values())
    assert {chip_spec(k) for k in range(CHIP_VARIANTS)} <= set(expected["chip"])
    assert {service_spec(k) for k in range(POOL_SIZE)} <= set(expected["service"])
