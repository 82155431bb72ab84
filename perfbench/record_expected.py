#!/usr/bin/env python3
"""Record the expected masks and quality for every benchmark input.

Writes ``perfbench/mosaicbench/expected.json``: for each bundled clip
and mode, each chip variant and each service spec, the digest of the
mask the program produces and its EPE violations and PV band.  Run it
from the root of a checkout, only when a change is meant to alter masks::

    python3 perfbench/record_expected.py

It solves with the benchmark's own code paths, configuration and
thread settings: the clips solver, the chip workload's engine
configuration, and a ``repro serve`` process given the default payload.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def record_clips() -> dict:
    from repro import BENCHMARK_NAMES
    from mosaicbench.checks import quality_record
    from mosaicbench.clips import ClipSolver
    from mosaicbench.stats import OpCounter

    ops = OpCounter()
    results, _ = ClipSolver(list(BENCHMARK_NAMES)).solve(ops)
    if ops.failed:
        raise RuntimeError("clips failed: " + "; ".join(ops.failures))
    out: dict = {}
    for (name, mode), result in results.items():
        score = result.score
        out.setdefault(name, {})[mode] = quality_record(
            result.mask, score.epe_violations, score.pv_band_nm2)
        print(f"clips {name}/{mode}: {out[name][mode]}", file=sys.stderr)
    return out


def record_chip() -> dict:
    from repro import FullChipEngine, LithoConfig
    from repro.workloads.spec import load_workload
    from mosaicbench.checks import quality_record
    from mosaicbench.chip import CHIP_VARIANTS, chip_config, chip_spec

    out = {}
    for k in range(CHIP_VARIANTS):
        spec = chip_spec(k)
        with tempfile.TemporaryDirectory(dir=WORK) as run_dir:
            engine = FullChipEngine(LithoConfig.reduced(), config=chip_config(run_dir))
            result = engine.solve(load_workload(spec))
        if not result.all_ok:
            raise RuntimeError(f"{spec}: tiles failed {result.failed_tiles}")
        score = result.score
        out[spec] = quality_record(result.mask, score.epe_violations, score.pv_band_nm2)
        print(f"{spec}: {out[spec]}", file=sys.stderr)
    return out


def record_service() -> dict:
    from mosaicbench.checks import quality_record
    from mosaicbench.host import bench_env
    from mosaicbench.service import POOL_SIZE, Server, client_loop, service_spec

    jobs: list = []
    with tempfile.TemporaryDirectory(dir=WORK) as root:
        server = Server(Path(root) / "serve", bench_env(SRC), ROOT)
        try:
            client_loop(server.url, "record", [service_spec(k) for k in range(POOL_SIZE)], jobs)
        finally:
            server.stop()
    out = {}
    for job in jobs:
        if job.error or job.hit:
            raise RuntimeError(f"{job.spec}: not solved ({job.error or 'cache hit'})")
        out[job.spec] = quality_record(*job.quality())
        print(f"{job.spec}: {out[job.spec]}", file=sys.stderr)
    return out


def main() -> int:
    from mosaicbench.host import PINNED_THREADS

    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    from mosaicbench.checks import EXPECTED_PATH

    WORK.mkdir(exist_ok=True)
    try:
        expected = {"clips": record_clips(), "chip": record_chip(),
                    "service": record_service()}
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
