"""Workload spec parsing shared by the CLI and the job service.

A *workload spec* is the string users hand to ``repro solve`` /
``repro fullchip`` / ``POST /v1/jobs`` to name a layout:

* a bundled benchmark name (``B1`` .. ``B10``),
* ``synth:<W>x<H>[:seed]`` — a synthetic canvas with dimensions in nm
  (e.g. ``synth:2048x2048:7``), or
* a path to a ``.glp`` layout file (CLI only; the service rejects
  host-dependent paths).

Both front ends validate through the same functions so a malformed
spec fails eagerly at submission time (CLI usage error / HTTP 400)
instead of crashing a worker mid-run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

from ..errors import ReproError
from .generator import MIN_CELL_NM, synthetic_canvas
from .iccad2013 import BENCHMARK_NAMES, load_benchmark

__all__ = [
    "SYNTH_PREFIX",
    "parse_synth_spec",
    "validate_workload_spec",
    "load_workload",
]

SYNTH_PREFIX = "synth:"


def parse_synth_spec(spec: str) -> Tuple[float, float, int]:
    """Parse ``synth:<W>x<H>[:seed]`` into ``(width_nm, height_nm, seed)``.

    Raises :class:`~repro.errors.ReproError` on any malformed spec —
    wrong field count, non-numeric dimensions, a canvas smaller than one
    generator cell (:data:`~repro.workloads.generator.MIN_CELL_NM`), or
    a non-integer seed.
    """
    if not spec.startswith(SYNTH_PREFIX):
        raise ReproError(f"not a synth spec: {spec!r}")
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ReproError(f"bad synth spec {spec!r}; expected synth:<W>x<H>[:seed]")
    dims = parts[1].lower().split("x")
    if len(dims) != 2:
        raise ReproError(f"bad synth dimensions {parts[1]!r}; expected <W>x<H> in nm")
    try:
        width, height = float(dims[0]), float(dims[1])
        seed = int(parts[2]) if len(parts) == 3 else 0
    except ValueError as exc:
        raise ReproError(f"bad synth spec {spec!r}: {exc}") from exc
    if not (width >= MIN_CELL_NM and height >= MIN_CELL_NM):
        raise ReproError(
            f"bad synth dimensions {parts[1]!r}; width and height must be "
            f">= {MIN_CELL_NM:g} nm (one canvas cell)"
        )
    return width, height, seed


def validate_workload_spec(spec: str, allow_paths: bool = True) -> str:
    """Check that ``spec`` names a loadable workload, without loading it.

    Returns the spec's kind: ``"benchmark"``, ``"synth"``, or
    ``"path"``.  Raises :class:`~repro.errors.ReproError` for anything
    unloadable, including path specs when ``allow_paths`` is false
    (the service refuses server-side file paths).
    """
    if not isinstance(spec, str) or not spec:
        raise ReproError(f"workload spec must be a non-empty string, got {spec!r}")
    if spec in BENCHMARK_NAMES:
        return "benchmark"
    if spec.startswith(SYNTH_PREFIX):
        parse_synth_spec(spec)
        return "synth"
    if not allow_paths:
        raise ReproError(
            f"{spec!r} is neither a bundled benchmark "
            f"({', '.join(BENCHMARK_NAMES)}) nor a synth:<W>x<H>[:seed] spec "
            "(file paths are not accepted here)"
        )
    path = Path(spec)
    if path.suffix == ".glp" or path.exists():
        return "path"
    raise ReproError(
        f"{spec!r} is neither a bundled benchmark ({', '.join(BENCHMARK_NAMES)}), "
        "a synth:<W>x<H>[:seed] spec, nor a readable .glp file"
    )


def load_workload(spec: str, allow_paths: bool = True):
    """Resolve a workload spec to a :class:`~repro.geometry.layout.Layout`."""
    kind = validate_workload_spec(spec, allow_paths=allow_paths)
    if kind == "benchmark":
        return load_benchmark(spec)
    if kind == "synth":
        width, height, seed = parse_synth_spec(spec)
        return synthetic_canvas(width, height, seed=seed)
    from ..io.glp import read_glp

    return read_glp(Path(spec))
