"""Per-layer measurement for the traced run.

Two sources, both outside ``src/``:

* :class:`SpanRecorder` wraps public functions and methods of the
  layers (``optics``, ``litho``, ``opc``, ``fullchip``) in the
  benchmark's own process, recording one span per call;
* :func:`spool_layers` and :func:`queue_phases` read what tile workers
  and the durable queue leave in a run directory (worker span stats,
  queue history and terminal records), for work done in other
  processes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: (owner, attribute, span name) triples handed to :meth:`SpanRecorder.patched`.
Target = Tuple[object, str, str]


class SpanRecorder:
    """Record a span around every call of the patched callables.

    Spans stay in memory until the run ends.  Not thread-safe: it is
    used only in the benchmark's single-threaded main process.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def _wrap(self, original: Callable, name: str) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.spans.append(Span(name, start, time.perf_counter()))

        return wrapper

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["SpanRecorder"]:
        """Install the wrappers for the duration of the block."""
        saved: List[Tuple[object, str, object, bool]] = []
        try:
            for owner, attr, name in targets:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, value, own in reversed(saved):
                if own:
                    setattr(owner, attr, value)
                else:
                    delattr(owner, attr)

    def intervals(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Recorded spans clipped to ``[start, end]``."""
        return [
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.end > start and s.start < end
        ]

    def totals(self) -> "LayerTotals":
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            seconds[span.name] += span.duration
            calls[span.name] += 1
        return LayerTotals(dict(seconds), dict(calls))


def layer_targets() -> List[Target]:
    """The numeric-core callables every workload's traced run wraps."""
    import repro.litho.simulator as simulator
    import repro.opc.state as state
    from repro.litho.simulator import LithographySimulator
    from repro.opc.objectives.epe_objective import EPEObjective
    from repro.opc.objectives.image_diff import ImageDifferenceObjective
    from repro.opc.objectives.pvband_objective import PVBandObjective

    return [
        (simulator, "build_socs_kernels", "optics.kernel_build"),
        (simulator, "batched_field_stacks", "optics.forward"),
        (state, "batched_field_stacks", "optics.forward"),
        (simulator, "accumulate_backprojection", "optics.backproject"),
        (LithographySimulator, "simulate_all_corners", "litho.simulate"),
        (LithographySimulator, "gradient_all_corners", "litho.gradient"),
        # The composite objective calls each term's intensity_contributions
        # (value + intensity-space gradient); the adjoint it then runs once
        # for all terms is litho.gradient.
        (EPEObjective, "intensity_contributions", "opc.objective.epe"),
        (ImageDifferenceObjective, "intensity_contributions", "opc.objective.image_diff"),
        (PVBandObjective, "intensity_contributions", "opc.objective.pvband"),
    ]


def fullchip_targets() -> List[Target]:
    """Parent-process ``fullchip`` callables wrapped on the chip workload."""
    import repro.fullchip.ambit as ambit
    import repro.fullchip.engine as engine

    return [
        (ambit, "build_socs_kernels", "optics.kernel_build"),
        (engine, "ambit_model_for", "fullchip.ambit_build"),
        (engine, "stitch_masks", "fullchip.stitch"),
        (engine, "build_seam_report", "fullchip.stitch"),
    ]


#: Worker span leaf name -> benchmark layer name.
_SPOOL_LAYERS = {
    "forward.batched": "optics.forward",
    "backproject.batched": "optics.backproject",
    "kernel_build": "optics.kernel_build",
    "window_kernel_embed": "optics.kernel_build",
    "term:epe": "opc.objective.epe",
    "term:image_difference": "opc.objective.image_diff",
    "term:pvband": "opc.objective.pvband",
}


@dataclass
class LayerTotals:
    """Busy seconds and call counts per layer, plus optimizer iterations."""

    seconds: Dict[str, float]
    calls: Dict[str, int]
    iterations: int = 0

    def merged(self, other: "LayerTotals") -> "LayerTotals":
        seconds = dict(self.seconds)
        calls = dict(self.calls)
        for name, value in other.seconds.items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in other.calls.items():
            calls[name] = calls.get(name, 0) + value
        return LayerTotals(seconds, calls, self.iterations + other.iterations)

    def core_values(self) -> Dict[str, float]:
        """The ``optics``/``litho``/``opc`` per-layer metrics."""
        def busy(layer: str) -> float:
            return self.seconds.get(layer, 0.0)

        def calls(layer: str) -> int:
            return self.calls.get(layer, 0)

        forward_calls = calls("optics.forward")
        return {
            "optics.kernel_build_s": busy("optics.kernel_build"),
            "optics.forward_s": busy("optics.forward"),
            "optics.forward_calls": forward_calls,
            "optics.backproject_s": busy("optics.backproject"),
            "optics.backproject_calls": calls("optics.backproject"),
            "litho.simulate_s": busy("litho.simulate"),
            "litho.simulate_calls": calls("litho.simulate"),
            "litho.gradient_s": busy("litho.gradient"),
            "opc.objective_s.epe": busy("opc.objective.epe"),
            "opc.objective_s.image_diff": busy("opc.objective.image_diff"),
            "opc.objective_s.pvband": busy("opc.objective.pvband"),
            "opc.iterations": self.iterations,
            "opc.forward_evals_per_iter": (
                forward_calls / self.iterations if self.iterations else 0.0
            ),
        }


def spool_layers(run_dirs: Sequence[Path]) -> LayerTotals:
    """Sum worker span stats per layer over every spool in ``run_dirs``."""
    from repro.obs.distributed import SPOOL_DIRNAME, iter_spool_files, read_spool

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    iterations = 0
    for run_dir in run_dirs:
        for path in iter_spool_files(Path(run_dir) / SPOOL_DIRNAME):
            spool = read_spool(path)
            for span in spool.spans:
                layer = _SPOOL_LAYERS.get(str(span["path"]).rsplit("/", 1)[-1])
                if layer is not None:
                    seconds[layer] += float(span["total_s"])
                    calls[layer] += int(span["count"])
            counter = spool.metrics.get("iterations_total", {})
            iterations += int(counter.get("value", 0) or 0)
    return LayerTotals(dict(seconds), dict(calls), iterations)


@dataclass
class QueuePhases:
    """Timeline of one queue run, from its history and terminal records."""

    first_leased_ts: float
    last_done_ts: float
    tile_spans: List[Tuple[float, float]]
    claim_wait_s: float
    commit_overhead_s: float
    requeues: int


def queue_phases(queue_root: Path) -> Optional[QueuePhases]:
    """Read ``<run>/queue`` after the run; None when there is no queue."""
    from repro.fullchip.queue import TileJobQueue

    if not (Path(queue_root) / "meta.json").exists():
        return None
    queue = TileJobQueue.open(queue_root)
    leased: List[float] = []
    done_ts: List[float] = []
    spans: List[Tuple[float, float]] = []
    by_worker: Dict[int, List[Tuple[str, float]]] = defaultdict(list)
    commit_overhead = 0.0
    requeues = 0
    for tile in sorted(queue.tiles()):
        history = queue.history(tile)
        for line in history:
            by_worker[int(line.get("pid", 0))].append(
                (str(line.get("kind")), float(line["ts"]))
            )
        record = queue.terminal_record(tile) or {}
        token = int(record.get("token", -1))
        lease_ts = [float(h["ts"]) for h in history
                    if h.get("kind") == "leased" and int(h.get("token", -2)) == token]
        end_ts = [float(h["ts"]) for h in history
                  if h.get("kind") == "done" and int(h.get("token", -2)) == token]
        leased.extend(float(h["ts"]) for h in history if h.get("kind") == "leased")
        requeues += int(record.get("requeues", 0) or 0)
        if lease_ts and end_ts:
            runtime = float(record.get("runtime_s", 0.0) or 0.0)
            spans.append((lease_ts[-1], end_ts[-1]))
            done_ts.append(end_ts[-1])
            commit_overhead += max(0.0, end_ts[-1] - lease_ts[-1] - runtime)
    # Claim wait: a worker's idle gap between committing one tile and
    # leasing its next one (poll interval plus claim cost).
    claim_wait = 0.0
    for events in by_worker.values():
        events.sort(key=lambda e: e[1])
        for (kind, ts), (next_kind, next_ts) in zip(events, events[1:]):
            if kind == "done" and next_kind == "leased":
                claim_wait += next_ts - ts
    if not leased or not done_ts:
        return None
    return QueuePhases(
        first_leased_ts=min(leased),
        last_done_ts=max(done_ts),
        tile_spans=spans,
        claim_wait_s=claim_wait,
        commit_overhead_s=commit_overhead,
        requeues=requeues,
    )
