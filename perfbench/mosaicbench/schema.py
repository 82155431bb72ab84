"""The benchmark's metric set and the result of one measured pass.

The metric names, units and directions come from ``BENCHMARK.json`` at
the repository root, the one place they are declared.  The traced run
reports every per-layer metric on every workload; a layer that does no
work on a workload reads 0 there.  The workload-level figures
(``clip_*_p50_s``, ``job_*``, ``jobs_per_min``, quality sums,
``failed_ratio`` and ``rss_peak_mb``) are per-layer metrics, not gated
end-to-end ones, because each applies to one workload or is 0 when all
goes well; ``perfbench/README.md`` says why for each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _metrics(section: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (unit, better)`` for one metric list of ``BENCHMARK.json``."""
    with open(BENCHMARK_PATH) as handle:
        declared = json.load(handle)[section]
    return {m["name"]: (m["unit"], m["better"]) for m in declared}


#: Reported on every workload with tracing off.
END_TO_END = _metrics("end_to_end")
#: Reported on every workload by the traced run.
PER_LAYER = _metrics("per_layer")

#: The workload-level figures, printed with every run's report.
WORKLOAD_FIGURES: Tuple[str, ...] = (
    "clip_fast_p50_s",
    "clip_exact_p50_s",
    "job_miss_p50_s",
    "job_hit_p50_ms",
    "jobs_per_min",
    "epe_violations",
    "pvband_nm2",
)


@dataclass
class PassResult:
    """One measured pass of a workload.

    Attributes:
        wall_s: the timed part.
        unit_s: latency of each unit of work (clip, tile or solved job).
        figures: workload-level figures (names from ``WORKLOAD_FIGURES``).
        layers: per-layer values (traced pass only).
        samples: sample counts behind the medians, for the report.
        rss_mb: peak memory of the measured process, when not this one.
        notes: one-line facts for the report.
    """

    wall_s: float
    unit_s: List[float]
    figures: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0
    notes: List[str] = field(default_factory=list)


@dataclass
class RunContext:
    """What a workload needs from the command line and the checkout."""

    root: Path
    work: Path
    env: Dict[str, str]
    seed: int
    seconds: float
    expected: Dict[str, Dict[str, object]]
