"""Benchmark of the batched multi-corner forward engine.

Times the full optimizer iteration loop (MOSAIC_fast objective: F_id +
F_pvb across all process corners) on B1 at the bench scale
(``batched_s``).  Before any timing is trusted, the batched aerial
images at every corner must agree with per-corner ``sim.aerial`` calls
to <= 1e-10 max abs diff.  The record goes to
``BENCH_forward_batching.json`` at the repository root (uploaded as a
CI artifact and gated against the checked-in baseline by
``python -m repro bench-check``, which reads regression direction off
the key names: ``*_s`` lower-is-better, ``*tol*`` config echoes).

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

from repro.config import OptimizerConfig
from repro.fullchip import FullChipEngine
from repro.geometry.raster import rasterize_layout
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
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


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


def test_forward_batching_timing(benchmark, bench_config, bench_sim, emit):
    layout = load_benchmark("B1")

    # Numerical equivalence gate: the batched aerial images match
    # per-corner imaging at every corner before any timing is trusted.
    mask = MosaicFast(bench_config, simulator=bench_sim).initial_mask(layout)
    corners = bench_sim.corners()
    batched_images = bench_sim.simulate_all_corners(mask, corners)
    max_abs_diff = max(
        float(np.max(np.abs(image - bench_sim.aerial(mask, corner))))
        for corner, image in zip(corners, batched_images)
    )
    assert max_abs_diff <= AERIAL_TOL

    batched_s = _time_loop(bench_sim, layout)
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
        "batched_s": round(batched_s, 4),
        "max_abs_diff_aerial": max_abs_diff,
        "window_shape": list(window_shape),
        "window_forward_adjoint_s": round(window_s, 4),
        "aerial_tol": AERIAL_TOL,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "perf_forward_batching",
        "\n".join(
            [
                f"  batched  ({ITERATIONS} iterations): {batched_s:8.2f} s",
                f"  max abs aerial diff: {max_abs_diff:.3e} (tol {AERIAL_TOL:.0e})",
                f"  window {window_shape[0]}x{window_shape[1]} forward+adjoint: "
                f"{window_s * 1e3:8.1f} ms",
            ]
        ),
    )
