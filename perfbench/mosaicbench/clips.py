"""``clips``: MOSAIC_fast then MOSAIC_exact on bundled ICCAD clips.

The paper's Table 2/3 flow in one process at ``LithoConfig.reduced()``.
All solves share one pre-warmed simulator, built during set-up.  The
clip set is fixed by ``--seconds`` (evenly spaced over B1-B10, about
:data:`SECONDS_PER_CLIP` per clip) and ``--seed`` shuffles the order,
so a result that depends on what ran before it shows as a wrong mask.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from .checks import check_output, mask_digest
from .layers import SpanRecorder
from .procs import time_probe
from .schema import PassResult
from .stats import Checks, OpCounter, median, union_seconds

#: Nominal seconds for one clip (fast + exact) on a 2-core host.
SECONDS_PER_CLIP = 5.5


def clip_names(seconds: float, seed: int) -> List[str]:
    """Clips for a run: evenly spaced over B1-B10, in seeded order."""
    from repro import BENCHMARK_NAMES

    names = list(BENCHMARK_NAMES)
    count = max(1, min(len(names), round(seconds / SECONDS_PER_CLIP)))
    if count == 1:
        chosen = names[:1]
    else:
        chosen = [names[round(i * (len(names) - 1) / (count - 1))] for i in range(count)]
    return random.Random(seed).sample(chosen, len(chosen))


class ClipSolver:
    """MOSAIC_fast then MOSAIC_exact on each named clip, one shared simulator.

    The constructor is the set-up (simulator pre-warmed, layouts loaded);
    ``perfbench/record_expected.py`` records the expected values with it.
    """

    def __init__(self, names: List[str]) -> None:
        from repro import LithoConfig, LithographySimulator, load_benchmark

        self.names = list(names)
        self.litho = LithoConfig.reduced()
        self.sim = LithographySimulator(self.litho)
        self.sim.prewarm()
        self.layouts = {name: load_benchmark(name) for name in self.names}

    def solve(self, ops: OpCounter) -> Tuple[Dict[Tuple[str, str], object],
                                             Dict[str, Dict[str, float]]]:
        """Results by ``(clip, mode)`` and solve seconds by mode and clip."""
        from repro import MosaicExact, MosaicFast

        results: Dict[Tuple[str, str], object] = {}
        seconds: Dict[str, Dict[str, float]] = {"fast": {}, "exact": {}}
        for name in self.names:
            for mode, solver in (("fast", MosaicFast), ("exact", MosaicExact)):
                began = time.perf_counter()
                try:
                    result = solver(self.litho, simulator=self.sim).solve(self.layouts[name])
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    ops.fail(f"{name}/{mode}: {type(exc).__name__}: {exc}")
                    continue
                seconds[mode][name] = time.perf_counter() - began
                results[(name, mode)] = result
                ops.ok()
        return results, seconds


class ClipsWorkload:
    name = "clips"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.order = clip_names(ctx.seconds, ctx.seed)
        self.digests: Dict[str, str] = {}

    def probe(self) -> float:
        return time_probe("clips", self.ctx.env, self.ctx.root)

    def setup(self) -> None:
        self.solver = ClipSolver(self.order)

    def run_pass(
        self, ops: OpCounter, checks: Checks, recorder: Optional[SpanRecorder] = None
    ) -> PassResult:
        start = time.perf_counter()
        results, seconds = self.solver.solve(ops)
        end = time.perf_counter()

        expected = self.ctx.expected["clips"]
        epe = pvb = 0.0
        for (name, mode), result in results.items():
            score = result.score
            label = f"clips {name}/{mode}"
            check_output(checks, label, expected.get(name, {}).get(mode), result.mask,
                         score.epe_violations, score.pv_band_nm2)
            digest = mask_digest(result.mask)
            previous = self.digests.setdefault(label, digest)
            checks.expect(previous == digest, f"{label}: mask differs between passes")
            epe += score.epe_violations
            pvb += score.pv_band_nm2

        units = [seconds["fast"][n] + seconds["exact"][n]
                 for n in self.order if n in seconds["fast"] and n in seconds["exact"]]
        out = PassResult(
            wall_s=end - start,
            unit_s=units,
            figures={
                "clip_fast_p50_s": median(seconds["fast"].values()).value,
                "clip_exact_p50_s": median(seconds["exact"].values()).value,
                "epe_violations": epe,
                "pvband_nm2": pvb,
            },
            samples={"fast": len(seconds["fast"]), "exact": len(seconds["exact"])},
            notes=[f"clips {' '.join(self.order)}"],
        )
        if recorder is not None:
            totals = recorder.totals()
            totals.iterations = sum(r.optimization.iterations for r in results.values())
            out.layers = totals.core_values()
            covered = union_seconds(recorder.intervals(start, end))
            out.layers["trace.unexplained_ratio"] = 1.0 - covered / out.wall_s
        return out

