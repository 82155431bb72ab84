"""A/B benchmark: batched vs legacy multi-corner forward engine.

Times the full optimizer iteration loop (MOSAIC_fast objective: F_id +
F_pvb across all process corners) on B1 at the bench scale, with the
batched shared-FFT engine against the historical per-corner,
one-FFT-per-kernel path.  The ISSUE acceptance bar is a >= 1.5x speedup
with aerial images agreeing to <= 1e-10 max abs diff; both are asserted
here and recorded in ``BENCH_forward_batching.json`` at the repository
root (uploaded as a CI artifact and gated against the checked-in
baseline by ``python -m repro bench-check``, which reads regression
direction off the key names: ``*_s`` lower-is-better, ``speedup*``
higher-is-better, ``*floor*`` config echoes).

The record also carries ``window_forward_adjoint_s``: the absolute time
of one batched forward+adjoint pass on a full-chip tile window (ambit
window kernels, full-grid support), the path every ``repro fullchip``
tile solve runs.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import OptimizerConfig
from repro.fullchip import FullChipEngine
from repro.geometry.raster import rasterize_layout
from repro.litho.simulator import LithographySimulator
from repro.opc.mosaic import MosaicFast
from repro.opc.optimizer import GradientDescentOptimizer
from repro.optics.hopkins import (
    ForwardCache,
    accumulate_backprojection,
    batched_field_stacks,
)
from repro.workloads.iccad2013 import load_benchmark
from repro.workloads.spec import load_workload

from conftest import bench_scale

BENCH_JSON = Path(__file__).parent.parent / "BENCH_forward_batching.json"

ITERATIONS = 10
ROUNDS = 3
WINDOW_ROUNDS = 5
WINDOW_CHIP = "synth:1024x1024:1"
SPEEDUP_FLOOR = 1.5
AERIAL_TOL = 1e-10


def _make_runner(sim, layout):
    """The timed unit: just the optimizer iteration loop (Alg. 1), with
    targets, objective, and initial mask prepared outside the clock."""
    config = OptimizerConfig(max_iterations=ITERATIONS, use_jump=False)
    solver = MosaicFast(sim.config, optimizer_config=config, simulator=sim)
    target = rasterize_layout(layout, sim.grid).astype(np.float64)
    objective = solver.build_objective(target, layout)
    initial = solver.initial_mask(layout)
    optimizer = GradientDescentOptimizer(sim, objective, solver.optimizer_config)
    return lambda: optimizer.run(initial)


def _time_loop(sim, layout):
    run = _make_runner(sim, layout)
    best = np.inf
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_window(litho):
    """Best-of time of one batched forward + adjoint on a tile window.

    The window is a real full-chip tile's (core plus two ambit halos,
    372 px at reduced scale) and the kernels are the ambit model's window
    kernels at every focus, as a ``repro fullchip`` tile solve uses them.
    """
    engine = FullChipEngine(litho)
    shape = next(iter(engine.plan_for(load_workload(WINDOW_CHIP)))).window_shape
    kernel_sets = [
        engine.model.window_kernels(shape, f) for f in engine.model.defocus_values_nm
    ]
    rng = np.random.default_rng(0)
    mask = rng.random(shape)
    df_di = [rng.standard_normal(shape) for _ in kernel_sets]
    best = np.inf
    for _ in range(WINDOW_ROUNDS):
        start = time.perf_counter()
        stacks = batched_field_stacks(ForwardCache(mask), kernel_sets)
        accumulate_backprojection(list(zip(df_di, stacks, kernel_sets)))
        best = min(best, time.perf_counter() - start)
    return shape, best


def test_forward_batching_speedup(benchmark, bench_config, bench_sim, emit):
    layout = load_benchmark("B1")
    legacy_sim = LithographySimulator(bench_config, batch_forward=False)
    legacy_sim.prewarm()

    # Numerical equivalence gate: identical aerial images at every corner
    # before any timing is trusted.
    mask = MosaicFast(bench_config, simulator=bench_sim).initial_mask(layout)
    corners = bench_sim.corners()
    batched_images = bench_sim.simulate_all_corners(mask, corners)
    legacy_images = legacy_sim.simulate_all_corners(mask, corners)
    max_abs_diff = max(
        float(np.max(np.abs(b - ref)))
        for b, ref in zip(batched_images, legacy_images)
    )
    assert max_abs_diff <= AERIAL_TOL

    legacy_s, legacy_result = _time_loop(legacy_sim, layout)
    batched_s, batched_result = _time_loop(bench_sim, layout)
    speedup = legacy_s / batched_s

    # Same trajectory either way: the engines are interchangeable.
    assert batched_result.history.objectives[-1] == pytest.approx(
        legacy_result.history.objectives[-1], rel=1e-9
    )

    window_shape, window_s = _time_window(bench_config)

    benchmark.pedantic(_make_runner(bench_sim, layout), rounds=1, iterations=1)

    record = {
        "scale": bench_scale(),
        "cores": len(os.sched_getaffinity(0)),
        "grid_shape": list(bench_sim.grid.shape),
        "num_kernels": bench_sim.config.optics.num_kernels,
        "corners": len(corners),
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "legacy_s": round(legacy_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 3),
        "max_abs_diff_aerial": max_abs_diff,
        "window_shape": list(window_shape),
        "window_forward_adjoint_s": round(window_s, 4),
        "speedup_floor": SPEEDUP_FLOOR,
        "aerial_tol": AERIAL_TOL,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "perf_forward_batching",
        "\n".join(
            [
                f"  legacy   ({ITERATIONS} iterations): {legacy_s:8.2f} s",
                f"  batched  ({ITERATIONS} iterations): {batched_s:8.2f} s",
                f"  speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)",
                f"  max abs aerial diff: {max_abs_diff:.3e} (tol {AERIAL_TOL:.0e})",
                f"  window {window_shape[0]}x{window_shape[1]} forward+adjoint: "
                f"{window_s * 1e3:8.1f} ms",
            ]
        ),
    )

    assert speedup >= SPEEDUP_FLOOR
