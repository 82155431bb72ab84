"""The report: a pass without samples still ends in an incorrect result."""

import json
import math
from types import SimpleNamespace

import run
from mosaicbench.schema import PassResult
from mosaicbench.stats import Checks, OpCounter, median

ARGS = SimpleNamespace(seed=1, seconds=20.0, trace=0)


def _outcome(ops, unit_s, figures=None, traced=None):
    return {
        "setup": median([1.0, 1.2, 1.1]), "cold": 2.0,
        "untraced": PassResult(wall_s=30.0, unit_s=unit_s, figures=figures or {}),
        "traced": traced, "rss_mb": 300.0, "ops": ops, "checks": Checks(),
    }


def test_a_pass_without_samples_still_prints_an_incorrect_result():
    ops = OpCounter()
    ops.fail("chip synth:2048x2048:1: RuntimeError: boom")
    lines = run.report("chip", ARGS, _outcome(ops, unit_s=[]), {"cores": 2})
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert set(result["metrics"]) == {"setup_s", "wall_s"}
    assert "failure chip synth:2048x2048:1: RuntimeError: boom" in lines
    assert "check-failed unit_p50_s: no samples to report" in lines


def test_a_figure_without_samples_fails_the_run_and_is_not_zeroed():
    ops = OpCounter()
    ops.ok()
    figures = {"job_miss_p50_s": 16.0, "job_hit_p50_ms": math.nan}
    traced = PassResult(wall_s=33.0, unit_s=[16.5], layers={"service.submit_ms": 4.0})
    outcome = _outcome(ops, unit_s=[16.0], figures=figures, traced=traced)
    result = json.loads(run.report("service", SimpleNamespace(seed=1, seconds=20.0, trace=1),
                                   outcome, {})[-1])
    assert result["correct"] is False
    assert "job_hit_p50_ms" not in result["metrics"]
    assert result["metrics"]["job_miss_p50_s"]["value"] == 16.0
    assert result["metrics"]["trace.overhead_ratio"]["value"] == 33.0 / 30.0


def test_a_complete_pass_is_correct_with_every_end_to_end_metric():
    ops = OpCounter()
    ops.ok()
    result = json.loads(run.report("clips", ARGS, _outcome(ops, unit_s=[7.0, 7.4]), {})[-1])
    assert result["correct"] is True
    assert result["metrics"]["unit_p50_s"] == {"value": 7.2, "unit": "s"}
    assert set(result["metrics"]) == {"setup_s", "wall_s", "unit_p50_s"}
