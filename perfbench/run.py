#!/usr/bin/env python3
"""MOSAIC benchmark: clips, chip and service workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clips --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is
the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("clips", "chip", "service")
#: Fresh-process set-up samples kept per run (after one discarded warm-up).
SETUP_RUNS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name: str, ctx, trace: bool) -> Dict[str, object]:
    from mosaicbench.chip import ChipWorkload
    from mosaicbench.clips import ClipsWorkload
    from mosaicbench.layers import SpanRecorder, fullchip_targets, layer_targets
    from mosaicbench.procs import vm_hwm_mb
    from mosaicbench.service import ServiceWorkload
    from mosaicbench.stats import Checks, OpCounter, median

    workload = {"clips": ClipsWorkload, "chip": ChipWorkload,
                "service": ServiceWorkload}[name](ctx)
    ops, checks = OpCounter(), Checks()
    # One discarded warm-up sample, then the kept ones.
    cold, *kept = [workload.probe() for _ in range(SETUP_RUNS + 1)]
    recorder = SpanRecorder() if trace else None
    targets = layer_targets() + (fullchip_targets() if name == "chip" else [])
    if recorder is not None:
        with recorder.patched(targets):
            workload.setup()
    else:
        workload.setup()
    untraced = workload.run_pass(ops, checks)
    rss_mb = untraced.rss_mb or vm_hwm_mb()
    traced = None
    if recorder is not None:
        with recorder.patched(targets):
            traced = workload.run_pass(ops, checks, recorder)
    return {
        "setup": median(kept), "cold": cold, "untraced": untraced,
        "traced": traced, "rss_mb": rss_mb, "ops": ops, "checks": checks,
    }


def metric_values(outcome: Dict[str, object]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The run's metric values and their units: end-to-end, or per-layer when traced."""
    from mosaicbench.schema import END_TO_END, PER_LAYER
    from mosaicbench.stats import median

    untraced, traced = outcome["untraced"], outcome["traced"]
    if traced is None:
        values = {
            "setup_s": outcome["setup"].value,
            "wall_s": untraced.wall_s,
            "unit_p50_s": median(untraced.unit_s).value,
        }
        return values, {k: u for k, (u, _) in END_TO_END.items()}
    # A layer that does no work on this workload reads 0.
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(traced.layers)
    values.update(untraced.figures)
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    values["setup.cold_s"] = outcome["cold"]
    values["failed_ratio"] = outcome["ops"].failed_ratio
    values["rss_peak_mb"] = outcome["rss_mb"]
    return values, {k: u for k, (u, _) in PER_LAYER.items()}


def report(name: str, args, outcome: Dict[str, object], host: Dict[str, object]) -> List[str]:
    """Readable lines, then the JSON result line.

    A metric or figure with no samples behind it (every clip, tile or miss
    failed, say) has no value: it fails the run's checks and is left out
    of the result, which is then incorrect.
    """
    from mosaicbench.schema import PER_LAYER, WORKLOAD_FIGURES
    from mosaicbench.stats import median, metric_block, result_line

    untraced, traced = outcome["untraced"], outcome["traced"]
    ops, checks, setup = outcome["ops"], outcome["checks"], outcome["setup"]
    values, units = metric_values(outcome)
    reported = {**untraced.figures, **values}
    missing = [key for key, value in reported.items() if not math.isfinite(float(value))]
    for key in missing:
        checks.expect(False, f"{key}: no samples to report")
    lines = [
        f"# perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "host " + json.dumps(host, sort_keys=True),
        *(f"note {note}" for note in untraced.notes),
        f"setup_s {setup.value:.4f} s (median of {setup.n} fresh processes; "
        f"discarded cold sample {outcome['cold']:.4f} s)",
        f"wall_s {untraced.wall_s:.4f} s",
        f"unit_p50_s {median(untraced.unit_s).describe('s')}",
    ]
    for figure in WORKLOAD_FIGURES:
        if figure in untraced.figures:
            samples = ", ".join(f"{k}={v}" for k, v in untraced.samples.items())
            lines.append(f"{figure} {untraced.figures[figure]:.6g} {PER_LAYER[figure][0]}"
                         + (f" ({samples})" if figure.endswith(("_s", "_ms")) else ""))
    lines.append(f"failed_ratio {ops.failed_ratio:.4g} ({ops.failed}/{ops.attempted} failed)")
    lines.append(f"rss_peak_mb {outcome['rss_mb']:.1f} MiB")
    lines.extend(f"failure {line}" for line in ops.failures)
    lines.append(f"checks {checks.passed} passed, {len(checks.problems)} failed")
    lines.extend(f"check-failed {problem}" for problem in checks.problems)
    if traced is not None:
        lines.extend(f"layer {k} {values[k]:.6g} {u}" for k, u in units.items())
    kept = {k: u for k, u in units.items() if k not in missing}
    block = metric_block({k: values[k] for k in kept}, kept)
    lines.append(result_line(checks.correct, ops, block))
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    from mosaicbench.host import PINNED_THREADS, bench_env

    # Before numpy is imported anywhere in this process.
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    from mosaicbench.checks import load_expected
    from mosaicbench.host import fingerprint
    from mosaicbench.procs import stdout_to_stderr
    from mosaicbench.schema import RunContext

    work_root = ROOT / ".perfbench-work"
    ctx = RunContext(
        root=ROOT,
        work=work_root / f"{args.workload}-{os.getpid()}",
        env=bench_env(SRC),
        seed=args.seed,
        seconds=args.seconds,
        expected=load_expected(),
    )
    ctx.work.mkdir(parents=True)
    try:
        with stdout_to_stderr():
            outcome = measure(args.workload, ctx, bool(args.trace))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for line in report(args.workload, args, outcome, fingerprint(ROOT)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
