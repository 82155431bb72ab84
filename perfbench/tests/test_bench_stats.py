"""Metric grammar, percentiles, failure counting and the result line."""

import json
import math

import pytest

from mosaicbench.stats import (
    Checks,
    OpCounter,
    check_metric_name,
    metric_block,
    percentile,
    result_line,
    union_seconds,
)


@pytest.mark.parametrize(
    "name", ["setup_s", "optics.forward_s", "opc.objective_s.image_diff", "9x", "a-b.c_d"]
)
def test_metric_name_accepts_grammar(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/name", "colon:x", "é", "x" * 65]
)
def test_metric_name_rejects_outside_grammar(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_percentile_reports_value_and_sample_count():
    p50 = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert p50.value == pytest.approx(2.5)
    assert p50.n == 4
    assert percentile([7.0], 90).value == 7.0
    assert percentile([0.0, 10.0], 90).value == pytest.approx(9.0)
    assert "(n=4)" in p50.describe("s")


def test_percentile_of_nothing_is_nan_with_zero_samples():
    empty = percentile([], 50)
    assert empty.n == 0 and math.isnan(empty.value)
    assert "n=0" in empty.describe("s")
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_failure_counting():
    ops = OpCounter()
    for _ in range(3):
        ops.ok()
    ops.fail("HTTP 429: rate limited")
    assert (ops.attempted, ops.failed) == (4, 1)
    assert ops.failed_ratio == pytest.approx(0.25)
    assert ops.failures == ["HTTP 429: rate limited"]
    assert OpCounter().failed_ratio == 0.0


def test_checks_record_problems():
    checks = Checks()
    assert checks.expect(True, "fine")
    assert not checks.expect(False, "mask differs")
    assert not checks.correct
    assert checks.problems == ["mask differs"] and checks.passed == 1


def test_metric_block_needs_exactly_the_declared_metrics():
    units = {"wall_s": "s", "rss_peak_mb": "MiB"}
    block = metric_block({"wall_s": 1.5, "rss_peak_mb": 300.0}, units)
    assert block == {"wall_s": {"value": 1.5, "unit": "s"},
                     "rss_peak_mb": {"value": 300.0, "unit": "MiB"}}
    with pytest.raises(ValueError):
        metric_block({"wall_s": 1.5}, units)
    with pytest.raises(ValueError):
        metric_block({"wall_s": 1.5, "rss_peak_mb": 1.0, "extra": 2.0}, units)
    with pytest.raises(ValueError):
        metric_block({"wall_s": math.nan, "rss_peak_mb": 1.0}, units)


def test_result_line_has_exactly_the_contract_keys():
    ops = OpCounter()
    ops.ok()
    ops.fail("tile failed")
    line = json.loads(result_line(True, ops, {"wall_s": {"value": 2.0, "unit": "s"}}))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert (line["attempted"], line["failed"]) == (2, 1)
    with pytest.raises(ValueError):
        result_line(True, OpCounter(), {})


def test_union_seconds_merges_overlaps():
    assert union_seconds([]) == 0.0
    assert union_seconds([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
