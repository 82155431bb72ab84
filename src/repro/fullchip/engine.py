"""Full-chip facade: plan, solve, stitch, verify, aggregate.

:class:`FullChipEngine` drives the whole tiled flow:

1. derive (or accept) the halo from the optical ambit,
2. partition the chip into a :class:`~repro.fullchip.tiling.TilePlan`,
3. solve every tile through the process-parallel scheduler,
4. stitch the core masks into one full-chip mask,
5. evaluate the stitched mask under the *linear-convolution* full-chip
   model (mask padded by the ambit, imaged once, cropped — the same
   model every tile window used, so tiled and monolithic images agree
   to FFT rounding), and
6. report per-tile status, aggregate contest-score components, and the
   seam-consistency diagnostics.

Failed tiles under ``keep_going`` fall back to the rasterized target
(no-OPC) for their core so the chip mask stays complete and the failure
stays visible in the tile table instead of leaving a hole in the mask.
"""

from __future__ import annotations

import logging
import os
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .._version import __version__
from ..config import GridSpec, LithoConfig, OptimizerConfig
from ..errors import FullChipCancelled, FullChipError
from ..geometry.layout import Layout
from ..geometry.raster import rasterize_layout
from ..metrics.epe import measure_epe
from ..metrics.score import ScoreBreakdown
from ..metrics.shapes import count_shape_violations
from ..obs import Instrumentation
from ..obs.distributed import (
    SPOOL_DIRNAME,
    WorkerTelemetryConfig,
    iter_spool_files,
    read_spool,
)
from ..obs.export import TraceLane, write_chrome_trace
from ..obs.live import (
    HEARTBEAT_DIRNAME,
    LivenessWatchdog,
    StatusWriter,
    WatchdogConfig,
)
from ..obs.report import METRICS_FILENAME, RUN_FILENAME, TRACE_FILENAME
from ..obs.resources import RESOURCES_DIRNAME, ResourceSampler, resources_filename
from ..process.corners import ProcessCorner
from ..process.pvband import pv_band_area
from ..tables import ColumnSpec, TextTable, write_csv_rows
from ..utils.io import write_json_atomic
from ..utils.timer import Timer
from .ambit import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_PROBE_EXTENT_NM,
    AmbitModel,
    ambit_model_for,
    model_cache_info,
)
from .scheduler import SOLVER_MODES, TileJob, TileResult, run_tile_jobs
from .stitch import SeamReport, build_seam_report, stitch_masks
from .tiling import TilePlan, build_tile_plan

logger = logging.getLogger(__name__)


#: Tile placement strategies (:func:`~repro.fullchip.executor.executor_for`).
EXECUTORS = ("pool", "queue", "serial")


def knob(
    default, help, *, flag=None, payload=None, placement=False, group=None, **cli
):
    """Declare a :class:`FullChipConfig` field with all its surfaces.

    ``help`` is its one description; ``flag`` its ``repro fullchip``
    option (``group`` the ``--help`` section, ``cli`` extra
    ``add_argument`` keywords); ``payload`` its service payload name.
    ``placement`` marks a field that cannot change the stitched mask,
    which keeps it out of the result-cache key.
    """
    metadata = {
        "help": help,
        "flag": flag,
        "payload": payload,
        "placement": placement,
        "group": group,
        "cli": cli,
    }
    return field(default=default, metadata=metadata)


def knob_type(knob_field: Field) -> type:
    """Scalar type of a :class:`FullChipConfig` field (``Optional`` unwrapped)."""
    name = str(knob_field.type).replace("Optional[", "").rstrip("]")
    return {"bool": bool, "int": int, "float": float, "str": str}[name]


_QUEUE = "durable queue (--executor queue)"
_LIVE = "live monitoring (needs --telemetry-dir)"


@dataclass(frozen=True)
class FullChipConfig:
    """Knobs of a tiled full-chip run, each declared once with :func:`knob`.

    The ``repro fullchip``/``repro submit`` flags, the service payload
    and the result-cache key are derived from the field metadata, and
    ``__post_init__`` is the single validator.
    """

    tile_nm: float = knob(
        1024.0, "tile core edge length in nm",
        flag="--tile-nm", payload="tile_nm", metavar="NM")
    halo_nm: Optional[float] = knob(
        None, "halo in nm; default derives the optical ambit, the smallest "
        "halo keeping tile cores bit-equivalent to a monolithic simulation",
        flag="--halo-nm", payload="halo_nm", metavar="NM")
    workers: int = knob(
        1, "worker processes for tile solves; 1 solves inline",
        flag="--workers", payload="workers", placement=True, metavar="N")
    solver_mode: str = knob(
        "fast", "tile solver: MOSAIC_fast or MOSAIC_exact",
        flag="--mode", payload="mode", choices=tuple(SOLVER_MODES))
    use_sraf: bool = knob(True, "seed tiles with rule-based SRAFs", payload="use_sraf")
    keep_going: bool = knob(
        False, "tolerate failed tiles: fall back to the no-OPC target for "
        "their core and continue (exit code 3 when any tile failed)",
        flag="--keep-going", payload="keep_going", placement=True)
    max_retries: int = knob(
        0, "extra solve attempts per tile after a failure",
        flag="--max-retries", placement=True, metavar="N")
    tile_timeout_s: Optional[float] = knob(
        None, "wall-clock budget per tile solve attempt",
        flag="--tile-timeout", placement=True, metavar="SECONDS")
    checkpoint_dir: Optional[str] = knob(
        None, "per-tile state directory: optimizer checkpoints plus done "
        "markers (enables tile-by-tile resume)",
        flag="--checkpoint-dir", placement=True, metavar="DIR")
    checkpoint_every: int = knob(
        5, "iterations between optimizer checkpoints",
        flag="--checkpoint-every", placement=True, metavar="N")
    resume: bool = knob(
        False, "skip tiles with done markers in the checkpoint dir and resume "
        "partially solved tiles from their newest checkpoint", flag="--resume")
    energy_tol: float = knob(DEFAULT_ENERGY_TOL, "ambit retained-energy tolerance")
    probe_extent_nm: float = knob(
        DEFAULT_PROBE_EXTENT_NM, "ambit probe-grid extent in nm")
    telemetry_dir: Optional[str] = knob(
        None, "run directory for telemetry: per-tile worker spools, merged "
        "run.json/metrics.json, a Chrome trace.json and the live "
        "status.json/heartbeats/resources feeds ('repro watch DIR' while "
        "running, 'repro report DIR' afterwards)",
        flag="--telemetry-dir", placement=True, metavar="DIR")
    resource_interval_s: float = knob(
        0.5, "per-process resource sampling interval; 0 disables the samplers",
        flag="--resource-interval", placement=True, group=_LIVE, metavar="SECONDS")
    watchdog_poll_s: float = knob(
        2.0, "seconds between worker-liveness polls",
        flag="--watchdog-poll", placement=True, group=_LIVE, metavar="SECONDS")
    watchdog_stall_factor: float = knob(
        8.0, "flag a worker stalled after X times the median iteration time "
        "without heartbeat progress",
        flag="--watchdog-stall-factor", placement=True, group=_LIVE, metavar="X")
    watchdog_min_stall_s: float = knob(
        10.0, "floor on the stall threshold",
        flag="--watchdog-min-stall", placement=True, group=_LIVE, metavar="SECONDS")
    watchdog_cancel: bool = knob(
        False, "kill a stalled worker's pid as soon as it is flagged (breaks "
        "the pool: remaining in-flight tiles fail too)",
        flag="--watchdog-cancel", placement=True, group=_LIVE)
    backend: Optional[str] = knob(
        None, "array-backend spec for every tile simulator (e.g. "
        "'numpy:float32'); None defers to REPRO_ARRAY_BACKEND, then numpy",
        payload="backend")
    executor: str = knob(
        "pool", "tile placement: 'pool' (fork pool; inline with one worker), "
        "'serial' (always inline) or 'queue' (durable job queue with "
        "crash-recovering 'repro worker' processes; needs a telemetry dir)",
        flag="--executor", payload="executor", placement=True, choices=EXECUTORS)
    queue_lease_s: float = knob(
        30.0, "lease term per tile claim; a worker that stops heartbeating "
        "loses its lease after this long and the tile is requeued",
        flag="--lease-s", placement=True, group=_QUEUE, metavar="SECONDS")
    queue_max_requeues: int = knob(
        2, "lease-expiry requeues tolerated per tile before it is quarantined",
        flag="--max-requeues", placement=True, group=_QUEUE, metavar="N")
    queue_backoff_s: float = knob(
        0.5, "base re-claim backoff after a lease expiry, doubling per requeue",
        flag="--queue-backoff", placement=True, group=_QUEUE, metavar="SECONDS")
    queue_drain_timeout_s: Optional[float] = knob(
        None, "wall-clock budget for the queue to drain; None waits "
        "indefinitely (abandonment detection still applies)", placement=True)
    trace_id: Optional[str] = knob(
        None, "request correlation id carried into worker telemetry, queue "
        "history and run.json", placement=True)

    def __post_init__(self) -> None:
        if self.backend is not None:
            from ..xp import validate_backend_spec

            object.__setattr__(self, "backend", validate_backend_spec(self.backend))
        if not self.tile_nm > 0:
            raise FullChipError(f"tile_nm must be > 0, got {self.tile_nm}")
        if self.workers < 1:
            raise FullChipError(f"workers must be >= 1, got {self.workers}")
        if self.halo_nm is not None and self.halo_nm < 0:
            raise FullChipError(f"halo_nm must be >= 0, got {self.halo_nm}")
        if self.solver_mode not in SOLVER_MODES:
            raise FullChipError(
                f"solver_mode must be one of {tuple(SOLVER_MODES)}, "
                f"got {self.solver_mode!r}"
            )
        if self.max_retries < 0:
            raise FullChipError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.tile_timeout_s is not None and not self.tile_timeout_s > 0:
            raise FullChipError(
                f"tile_timeout_s must be positive or None, got {self.tile_timeout_s}"
            )
        if self.checkpoint_every < 1:
            raise FullChipError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise FullChipError("resume needs a checkpoint_dir to resume from")
        if self.resource_interval_s < 0:
            raise FullChipError(
                f"resource_interval_s must be >= 0, got {self.resource_interval_s}"
            )
        if self.executor not in EXECUTORS:
            raise FullChipError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if (
            self.queue_drain_timeout_s is not None
            and self.queue_drain_timeout_s <= 0
        ):
            raise FullChipError(
                "queue_drain_timeout_s must be positive or None, "
                f"got {self.queue_drain_timeout_s}"
            )
        if self.executor == "queue":
            if self.telemetry_dir is None:
                raise FullChipError(
                    "the queue executor needs a telemetry_dir (its run "
                    "directory holds the durable queue/ state)"
                )
            # QueueConfig validates its own knobs; build one eagerly so
            # a bad value fails at config time, not mid-run.
            self.queue_config()
        # WatchdogConfig validates its own knobs; build one eagerly so a
        # bad value fails at config time, not mid-run.
        self.watchdog_config()

    def watchdog_config(self) -> WatchdogConfig:
        """The liveness-watchdog settings as a :class:`WatchdogConfig`."""
        return WatchdogConfig(
            poll_s=self.watchdog_poll_s,
            stall_factor=self.watchdog_stall_factor,
            min_stall_s=self.watchdog_min_stall_s,
            cancel=self.watchdog_cancel,
        )

    def queue_config(self) -> "QueueConfig":
        """The durable-queue settings as a :class:`QueueConfig`."""
        from .queue import QueueConfig

        return QueueConfig(
            lease_s=self.queue_lease_s,
            max_requeues=self.queue_max_requeues,
            backoff_s=self.queue_backoff_s,
        )


def knob_fields(role: str) -> Tuple[Field, ...]:
    """:class:`FullChipConfig` fields with ``role`` metadata set.

    ``role`` is ``"flag"``, ``"payload"`` or ``"placement"``.
    """
    return tuple(f for f in fields(FullChipConfig) if f.metadata[role])


@dataclass
class FullChipResult:
    """Everything a tiled full-chip run produced.

    Attributes:
        layout_name: the chip layout's name.
        plan: the tile plan that was executed.
        mask: the stitched full-chip mask (chip pixel grid).
        tile_results: per-tile outcomes, plan order.
        seam_report: seam-consistency diagnostics.
        score: aggregate contest-score components, measured on the
            stitched mask under the full-chip linear-convolution model.
        runtime_s: end-to-end wall clock of the run.
        telemetry_dir: where telemetry artifacts were written (None
            when telemetry was off).
    """

    layout_name: str
    plan: TilePlan
    mask: np.ndarray
    tile_results: List[TileResult]
    seam_report: SeamReport
    score: ScoreBreakdown
    runtime_s: float
    telemetry_dir: Optional[Path] = None

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.tile_results)

    @property
    def failed_tiles(self) -> List[Tuple[int, int]]:
        return [r.index for r in self.tile_results if not r.ok]

    def format_table(self) -> str:
        """Per-tile status/score table plus the chip summary line."""
        table = TextTable(
            [
                ColumnSpec("tile", 12, "<"),
                ColumnSpec("status", 10, "<"),
                ColumnSpec("attempts", 8),
                ColumnSpec("#EPE", 6),
                ColumnSpec("PVB", 10),
                ColumnSpec("score", 10),
                ColumnSpec("runtime", 9),
            ]
        )
        for r in self.tile_results:
            label = f"r{r.index[0]}c{r.index[1]}"
            if r.ok:
                table.add_row(
                    [
                        label,
                        r.status.status + ("*" if r.from_cache else ""),
                        str(r.status.attempts),
                        str(r.epe_violations),
                        f"{r.pv_band_nm2:.0f}",
                        f"{r.score_total:.0f}",
                        f"{r.status.runtime_s:.1f}s",
                    ]
                )
            else:
                table.add_row(
                    [label, r.status.status, str(r.status.attempts),
                     None, None, None, f"{r.status.runtime_s:.1f}s"]
                )
        cache = model_cache_info()
        summary = (
            f"chip: {self.score} | seams: max|dM|="
            f"{self.seam_report.max_abs_mask_delta:.3e}, "
            f"{self.seam_report.seam_epe_violations} seam EPE violation(s)"
            f" | ambit cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"{cache.entries} model(s)"
        )
        return table.render() + "\n" + summary

    def to_csv(self, path: Union[str, Path]) -> None:
        """One CSV row per tile, failures included."""
        rows: List[List[object]] = []
        for r in self.tile_results:
            rows.append(
                [
                    f"r{r.index[0]}c{r.index[1]}",
                    r.status.status,
                    r.status.attempts,
                    r.epe_violations if r.ok else "",
                    f"{r.pv_band_nm2:.1f}" if r.ok else "",
                    f"{r.score_total:.1f}" if r.ok else "",
                    f"{r.status.runtime_s:.3f}",
                    int(r.from_cache),
                    r.status.error or "",
                ]
            )
        write_csv_rows(
            path,
            ["tile", "status", "attempts", "epe_violations", "pv_band_nm2",
             "score", "runtime_s", "cached", "error"],
            rows,
        )


class FullChipEngine:
    """Facade running the tiled flow end to end.

    Args:
        litho: chip-level lithography configuration; the grid's shape is
            ignored (tiles get their own window grids), its pixel size
            rules every derived grid.
        optimizer: optional descent settings shared by every tile
            (None = each mode's defaults).
        config: tiling/scheduling knobs.
        obs: optional instrumentation bundle.
    """

    def __init__(
        self,
        litho: LithoConfig,
        optimizer: Optional[OptimizerConfig] = None,
        config: Optional[FullChipConfig] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.litho = litho
        self.optimizer = optimizer
        self.config = config or FullChipConfig()
        self.obs = obs or Instrumentation.disabled()

    @property
    def model(self) -> AmbitModel:
        """The shared ambit model (built on first access)."""
        return ambit_model_for(
            self.litho,
            energy_tol=self.config.energy_tol,
            probe_extent_nm=self.config.probe_extent_nm,
        )

    @property
    def halo_nm(self) -> float:
        """Effective halo: configured value, or the derived ambit."""
        if self.config.halo_nm is not None:
            return self.config.halo_nm
        # Round the ambit up to whole pixels (it already is by
        # construction; the guard keeps custom models honest).
        return self.model.ambit_nm

    def plan_for(self, layout: Layout) -> TilePlan:
        """The tile plan the engine would execute for a layout."""
        return build_tile_plan(
            layout.clip,
            tile_nm=self.config.tile_nm,
            halo_nm=self.halo_nm,
            pixel_nm=self.litho.grid.pixel_nm,
        )

    # -- tiled/monolithic forward evaluation ---------------------------------

    def aerial_monolithic(
        self, mask: np.ndarray, corner: Optional[ProcessCorner] = None
    ) -> np.ndarray:
        """Full-chip aerial image under the linear-convolution model.

        The mask is zero-padded by the ambit and imaged in one window;
        cropping the padding back off leaves the exact linear
        convolution with the truncated stencils at every chip pixel —
        the reference the tiled evaluation must (and does) match.
        """
        model = self.model
        pad = model.ambit_px
        padded = np.pad(np.asarray(mask, dtype=np.float64), pad)
        sim = model.simulator_for(
            padded.shape,
            obs=self.obs,
            backend=self.config.backend,
            retain_kernels=False,
        )
        aerial = sim.aerial(padded, corner)
        return aerial[pad:-pad, pad:-pad] if pad else aerial

    def aerial_tiled(
        self,
        mask: np.ndarray,
        plan: Optional[TilePlan] = None,
        corner: Optional[ProcessCorner] = None,
        layout_clip_nm: Optional[Tuple[float, float]] = None,
    ) -> np.ndarray:
        """Full-chip aerial image assembled from per-tile window images.

        Each tile window images its slice of the (zero-padded) mask and
        contributes only its core — overlap-discard.  With a halo at
        least the ambit this is pixel-identical to
        :meth:`aerial_monolithic` up to FFT rounding.
        """
        mask = np.asarray(mask, dtype=np.float64)
        if plan is None:
            rows, cols = mask.shape
            pixel = self.litho.grid.pixel_nm
            from ..geometry.rect import Rect

            plan = build_tile_plan(
                Rect(0.0, 0.0, cols * pixel, rows * pixel),
                tile_nm=self.config.tile_nm,
                halo_nm=self.halo_nm,
                pixel_nm=pixel,
            )
        if mask.shape != plan.chip_shape_px:
            raise FullChipError(
                f"mask shape {mask.shape} != chip grid {plan.chip_shape_px}"
            )
        model = self.model
        halo = plan.halo_px
        padded = np.pad(mask, halo)
        out = np.zeros_like(mask)
        sims: Dict[Tuple[int, int], object] = {}
        for tile in plan:
            r_lo = tile.core_rows[0]
            c_lo = tile.core_cols[0]
            rows, cols = tile.window_shape
            window_mask = padded[r_lo : r_lo + rows, c_lo : c_lo + cols]
            sim = sims.get(tile.window_shape)
            if sim is None:
                sim = model.simulator_for(
                    tile.window_shape, obs=self.obs, backend=self.config.backend
                )
                sims[tile.window_shape] = sim
            aerial = sim.aerial(window_mask, corner)
            rs, cs = tile.core_slices_in_window()
            out[
                tile.core_rows[0] : tile.core_rows[1],
                tile.core_cols[0] : tile.core_cols[1],
            ] = aerial[rs, cs]
        return out

    def _print_binary_monolithic(
        self, mask: np.ndarray, corner: Optional[ProcessCorner] = None
    ) -> np.ndarray:
        """Binary printed image under the linear-convolution model."""
        model = self.model
        pad = model.ambit_px
        padded = np.pad(np.asarray(mask, dtype=np.float64), pad)
        sim = model.simulator_for(
            padded.shape,
            obs=self.obs,
            backend=self.config.backend,
            retain_kernels=False,
        )
        printed = sim.print_binary(padded, corner)
        return printed[pad:-pad, pad:-pad] if pad else printed

    # -- the main flow -------------------------------------------------------

    def solve(
        self,
        layout: Layout,
        progress: Callable[[str], None] = lambda msg: None,
        on_tile: Optional[Callable[[TileResult], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> FullChipResult:
        """Run the tiled full-chip flow on one layout.

        Args:
            layout: the chip layout (any clip origin; results are
                reported on a grid re-based to the clip's lower-left).
            progress: callback receiving one message per finished tile.
            on_tile: callback receiving each completed
                :class:`TileResult` in completion order (the CLI's
                per-tile ``-v`` progress hook).
            cancel: optional cooperative-cancel probe polled between
                tile placements; once it returns True the run raises
                :class:`~repro.errors.FullChipCancelled` and the
                status feed finalizes as ``"cancelled"``.

        Returns:
            The stitched mask with per-tile, seam, and aggregate reports.

        Raises:
            FullChipError: a tile failed and ``keep_going`` is off.
            FullChipCancelled: the ``cancel`` probe fired mid-run.
        """
        cfg = self.config
        telemetry_cfg: Optional[WorkerTelemetryConfig] = None
        status: Optional[StatusWriter] = None
        watchdog: Optional[LivenessWatchdog] = None
        sampler: Optional[ResourceSampler] = None
        if cfg.telemetry_dir is not None:
            run_dir = Path(cfg.telemetry_dir)
            resource_dir = (
                str(run_dir / RESOURCES_DIRNAME)
                if cfg.resource_interval_s > 0
                else None
            )
            telemetry_cfg = WorkerTelemetryConfig(
                spool_dir=str(run_dir / SPOOL_DIRNAME),
                heartbeat_dir=str(run_dir / HEARTBEAT_DIRNAME),
                resource_dir=resource_dir,
                resource_interval_s=cfg.resource_interval_s,
                trace_id=cfg.trace_id,
            )
        with Timer() as total, self.obs.tracer.span("fullchip.solve"):
            model = self.model
            plan = self.plan_for(layout)
            if plan.halo_px < model.ambit_px:
                logger.warning(
                    "halo %d px is below the optical ambit %d px — tile cores "
                    "will deviate from the monolithic image",
                    plan.halo_px, model.ambit_px,
                )
            logger.info(
                "full-chip run: %dx%d tiles, halo %g nm (%d px), %d worker(s)",
                plan.grid_shape[0], plan.grid_shape[1],
                plan.halo_nm, plan.halo_px, cfg.workers,
            )
            if cfg.telemetry_dir is not None:
                run_dir = Path(cfg.telemetry_dir)
                # Live monitoring: the status feed (seeded with every
                # planned tile so `repro watch` sees the full map from
                # the first write), the liveness watchdog, and the
                # parent's own resource timeline.
                status = StatusWriter(
                    run_dir,
                    {tile.name: tile.index for tile in plan},
                    layout=layout.name,
                    workers=cfg.workers,
                )
                status.write()
                watchdog = LivenessWatchdog(cfg.watchdog_config(), obs=self.obs)
                if cfg.resource_interval_s > 0:
                    try:
                        sampler = ResourceSampler(
                            run_dir / RESOURCES_DIRNAME
                            / resources_filename(os.getpid()),
                            interval_s=cfg.resource_interval_s,
                            metrics=self.obs.metrics,
                        ).start()
                    except Exception as exc:  # noqa: BLE001 - telemetry only
                        logger.warning("parent resource sampler failed: %s", exc)
                        sampler = None
            jobs = [
                TileJob(
                    tile=tile,
                    layout=tile.clip_layout(layout),
                    litho=self.litho,
                    optimizer=self.optimizer,
                    solver_mode=cfg.solver_mode,
                    use_sraf=cfg.use_sraf,
                    energy_tol=cfg.energy_tol,
                    probe_extent_nm=cfg.probe_extent_nm,
                    checkpoint_dir=cfg.checkpoint_dir,
                    checkpoint_every=cfg.checkpoint_every,
                    resume=cfg.resume,
                    max_retries=cfg.max_retries,
                    timeout_s=cfg.tile_timeout_s,
                    telemetry=telemetry_cfg,
                    backend=cfg.backend,
                    # Shared-memory transport is a pool-boundary trick;
                    # the queue executor moves results through its
                    # durable results/ files instead.
                    share_result=cfg.workers > 1 and cfg.executor == "pool",
                )
                for tile in plan
            ]
            # "pool" keeps executor=None: run_tile_jobs' legacy dispatch
            # (inline for workers<=1 or a single tile) is the
            # golden-tested historical behavior, preserved bit-for-bit.
            executor = None
            if cfg.executor != "pool":
                from .executor import executor_for

                executor = executor_for(
                    cfg.executor,
                    cfg.workers,
                    run_dir=cfg.telemetry_dir,
                    queue_config=(
                        cfg.queue_config() if cfg.executor == "queue" else None
                    ),
                    drain_timeout_s=cfg.queue_drain_timeout_s,
                )
            try:
                results = run_tile_jobs(
                    jobs,
                    workers=cfg.workers,
                    keep_going=cfg.keep_going,
                    obs=self.obs,
                    progress=progress,
                    on_tile=on_tile,
                    watchdog=watchdog,
                    status=status,
                    heartbeat_dir=(
                        telemetry_cfg.heartbeat_dir if telemetry_cfg else None
                    ),
                    executor=executor,
                    cancel=cancel,
                )
            except FullChipCancelled:
                if status is not None:
                    status.finalize(state="cancelled")
                    status.write()
                raise
            except BaseException:
                # The feed outlives an aborted run: readers see a
                # terminal "failed" state instead of an eternal
                # "running".
                if status is not None:
                    status.finalize(state="failed")
                    status.write()
                raise
            finally:
                if sampler is not None:
                    sampler.stop()
            # Failed tiles fall back to the no-OPC target so the chip
            # mask stays complete; the failure remains visible in the
            # tile table and in all_ok/failed_tiles.
            masks: Dict[Tuple[int, int], np.ndarray] = {}
            for job, result in zip(jobs, results):
                if result.ok and result.mask is not None:
                    masks[result.index] = result.mask
                else:
                    masks[result.index] = rasterize_layout(
                        job.layout, job.tile.window_grid(plan.pixel_nm)
                    ).astype(np.float64)
            with self.obs.tracer.span("fullchip.stitch"):
                stitched = stitch_masks(plan, masks)
            chip_layout = layout.clip_to(layout.clip, name=layout.name)
            chip_grid = GridSpec.for_clip(
                layout.clip.width, layout.clip.height, plan.pixel_nm
            )
            with self.obs.tracer.span("fullchip.evaluate"):
                binary = (stitched > 0.5).astype(np.float64)
                pad = model.ambit_px
                padded = np.pad(binary, pad)
                sim = model.simulator_for(
                    padded.shape,
                    obs=self.obs,
                    backend=self.config.backend,
                    retain_kernels=False,
                )
                corners = sim.corners()
                printed_by_corner = [
                    img[pad:-pad, pad:-pad] if pad else img
                    for img in sim.print_all_corners(padded, corners)
                ]
                printed_nominal = printed_by_corner[0]
                epe_report = measure_epe(printed_nominal, chip_layout, chip_grid)
                target = rasterize_layout(chip_layout, chip_grid)
                score = ScoreBreakdown(
                    runtime_s=sum(r.status.runtime_s for r in results),
                    pv_band_nm2=pv_band_area(printed_by_corner, plan.pixel_nm),
                    epe_violations=epe_report.num_violations,
                    shape_violations=count_shape_violations(printed_nominal, target),
                )
                seam_report = build_seam_report(
                    plan,
                    {r.index: r.mask for r in results if r.mask is not None},
                    stitched,
                    printed=printed_nominal,
                    layout=chip_layout,
                    grid=chip_grid,
                )
            self.obs.events.emit(
                "fullchip",
                layout=layout.name,
                tiles=plan.num_tiles,
                failed=len([r for r in results if not r.ok]),
                score=score.total,
                max_seam_delta=seam_report.max_abs_mask_delta,
            )
        result = FullChipResult(
            layout_name=layout.name,
            plan=plan,
            mask=stitched,
            tile_results=results,
            seam_report=seam_report,
            score=score,
            runtime_s=total.elapsed,
        )
        if status is not None:
            status.finalize(
                score={
                    "total": score.total,
                    "epe_violations": score.epe_violations,
                    "pv_band_nm2": score.pv_band_nm2,
                    "shape_violations": score.shape_violations,
                }
            )
            status.write()
        if cfg.telemetry_dir is not None:
            # Written after the fullchip.solve span closed so the
            # persisted span stats include the whole run.
            result.telemetry_dir = self._write_telemetry_artifacts(
                Path(cfg.telemetry_dir), result
            )
        return result

    def _write_telemetry_artifacts(
        self, run_dir: Path, result: FullChipResult
    ) -> Path:
        """Persist run.json / metrics.json / trace.json into ``run_dir``.

        The per-tile spool files are already there (the workers wrote
        them); this adds the parent's merged view: the run manifest the
        ``repro report`` renderer consumes, the merged metrics
        snapshot, and the Chrome trace assembling the parent lane with
        one lane per worker pid read back from the spools.
        """
        cfg = self.config
        tiles: List[Dict[str, object]] = []
        for r in result.tile_results:
            tiles.append(
                {
                    "index": list(r.index),
                    "name": f"tile_r{r.index[0]}_c{r.index[1]}",
                    "status": r.status.status,
                    "attempts": r.status.attempts,
                    "runtime_s": r.status.runtime_s,
                    "epe_violations": r.epe_violations,
                    "pv_band_nm2": r.pv_band_nm2,
                    "score_total": r.score_total,
                    "cached": r.from_cache,
                    "error": r.status.error,
                    "telemetry": r.telemetry.as_dict() if r.telemetry else None,
                }
            )
        run = {
            "schema": 1,
            "kind": "fullchip_run",
            "version": __version__,
            "layout": result.layout_name,
            "grid": list(result.plan.grid_shape),
            "workers": cfg.workers,
            "solver_mode": cfg.solver_mode,
            "tile_nm": cfg.tile_nm,
            "halo_nm": result.plan.halo_nm,
            "parent_pid": os.getpid(),
            "trace_id": cfg.trace_id,
            "runtime_s": result.runtime_s,
            "score": {
                "total": result.score.total,
                "epe_violations": result.score.epe_violations,
                "pv_band_nm2": result.score.pv_band_nm2,
                "shape_violations": result.score.shape_violations,
                "runtime_s": result.score.runtime_s,
            },
            "seams": {
                "max_abs_mask_delta": result.seam_report.max_abs_mask_delta,
                "seam_epe_violations": result.seam_report.seam_epe_violations,
            },
            "ambit_cache": model_cache_info().as_dict(),
            "tiles": tiles,
            "span_stats": [
                s.as_dict() for s in self.obs.tracer.stats().values()
            ],
        }
        write_json_atomic(run_dir / RUN_FILENAME, run)
        write_json_atomic(run_dir / METRICS_FILENAME, self.obs.metrics.as_dict())
        lanes = [
            TraceLane(
                pid=os.getpid(),
                label="parent",
                slices=self.obs.tracer.slices(),
                sort_index=0,
            )
        ]
        for i, spool_path in enumerate(iter_spool_files(run_dir / SPOOL_DIRNAME)):
            spool = read_spool(spool_path)
            lanes.append(
                TraceLane(
                    pid=spool.pid,
                    label=spool.tile or spool_path.stem,
                    slices=spool.slices,
                    sort_index=i + 1,
                )
            )
        write_chrome_trace(run_dir / TRACE_FILENAME, lanes)
        return run_dir
