"""``chip``: ``FullChipEngine.solve`` on a 4-tile synthetic chip.

``synth:2048x2048:<k>`` with ``k = seed % CHIP_VARIANTS`` (every variant
has recorded expected values), solved at ``LithoConfig.reduced()`` by
the durable-queue executor with two ``repro worker`` processes, so
each worker solves two tiles.  Set-up builds the ambit model in the
benchmark process; the workers build theirs cold, inside the timed part.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .checks import check_output, mask_digest
from .layers import SpanRecorder, queue_phases, spool_layers
from .procs import time_probe
from .schema import PassResult
from .stats import Checks, OpCounter, union_seconds

CHIP_VARIANTS = 8
CHIP_WORKERS = 2


def chip_spec(seed: int) -> str:
    return f"synth:2048x2048:{seed % CHIP_VARIANTS}"


def chip_config(run_dir: str):
    from repro import FullChipConfig

    return FullChipConfig(workers=CHIP_WORKERS, executor="queue", telemetry_dir=run_dir)


class ChipWorkload:
    name = "chip"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.spec = chip_spec(ctx.seed)
        self.passes = 0
        self.digest: Optional[str] = None

    def probe(self) -> float:
        return time_probe("chip", self.ctx.env, self.ctx.root)

    def setup(self) -> None:
        from repro import FullChipEngine, LithoConfig
        from repro.workloads.spec import load_workload

        self.litho = LithoConfig.reduced()
        FullChipEngine(self.litho).model  # builds and caches the ambit model
        self.layout = load_workload(self.spec)

    def run_pass(
        self, ops: OpCounter, checks: Checks, recorder: Optional[SpanRecorder] = None
    ) -> PassResult:
        from repro import FullChipEngine

        self.passes += 1
        run_dir = self.ctx.work / f"chip-{self.passes}"
        engine = FullChipEngine(self.litho, config=chip_config(str(run_dir)))
        start_ts, start = time.time(), time.perf_counter()
        try:
            result = engine.solve(self.layout)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ops.fail(f"chip {self.spec}: {type(exc).__name__}: {exc}")
            checks.expect(False, f"chip {self.spec}: solve raised {exc}")
            return PassResult(wall_s=time.perf_counter() - start, unit_s=[])
        end_ts, end = time.time(), time.perf_counter()

        for tile in result.tile_results:
            if tile.ok:
                ops.ok()
            else:
                ops.fail(f"chip {self.spec} tile {tile.index}: {tile.status.status}")
        score = result.score
        check_output(checks, f"chip {self.spec}", self.ctx.expected["chip"].get(self.spec),
                     result.mask, score.epe_violations, score.pv_band_nm2)
        digest = mask_digest(result.mask)
        self.digest = self.digest or digest
        checks.expect(self.digest == digest, f"chip {self.spec}: mask differs between passes")

        phases = queue_phases(run_dir / "queue")
        checks.expect(phases is not None, f"chip {self.spec}: no queue history")
        out = PassResult(
            wall_s=end - start,
            unit_s=[hi - lo for lo, hi in phases.tile_spans] if phases else [],
            figures={"epe_violations": score.epe_violations, "pvband_nm2": score.pv_band_nm2},
            samples={"tiles": result.plan.num_tiles},
            notes=[f"chip {self.spec}: {result.plan.num_tiles} tiles, "
                   f"{CHIP_WORKERS} queue workers"],
        )
        if recorder is not None and phases is not None:
            out.layers = self._layers(recorder, run_dir, phases, start_ts, start, end_ts, end)
        return out

    @staticmethod
    def _layers(recorder, run_dir, phases, start_ts, start, end_ts, end) -> Dict[str, float]:
        own = recorder.totals()
        layers = own.merged(spool_layers([run_dir])).core_values()
        layers.update({
            "fullchip.ambit_build_s": own.seconds.get("fullchip.ambit_build", 0.0),
            "fullchip.worker_start_s": phases.first_leased_ts - start_ts,
            "fullchip.claim_wait_s": phases.claim_wait_s,
            "fullchip.commit_overhead_s": phases.commit_overhead_s,
            "fullchip.stitch_s": own.seconds.get("fullchip.stitch", 0.0),
            "fullchip.drain_tail_s": end_ts - phases.last_done_ts,
            "fullchip.requeues": phases.requeues,
        })
        # Queue timestamps are wall-clock; map them onto perf_counter.
        offset = start_ts - start
        measured = recorder.intervals(start, end)
        measured.append((start, phases.first_leased_ts - offset))
        measured.extend((lo - offset, hi - offset) for lo, hi in phases.tile_spans)
        layers["trace.unexplained_ratio"] = 1.0 - union_seconds(measured) / (end - start)
        return layers
