"""The ``TileExecutor`` seam: serial, fork-pool, and durable-queue execution.

:func:`repro.fullchip.scheduler.run_tile_jobs` dispatches every tile
batch through one of three interchangeable executors:

* :class:`SerialExecutor` — solves inline in the parent process (the
  historical ``workers <= 1`` path, verbatim).
* :class:`PoolExecutor` — the fork ``ProcessPoolExecutor`` path
  (the historical multi-worker path, verbatim): warmed model cache
  inherited through fork, shared-memory result transport, bounded
  waits interleaved with liveness polling.
* :class:`QueueWorkerExecutor` — durable at-least-once execution over
  the file-backed :class:`~repro.fullchip.queue.TileJobQueue`: jobs are
  persisted, any number of independently launched ``repro worker``
  processes claim leases and commit fenced results, and the parent
  supervises — sweeping expired leases, emitting one latched
  ``job_requeued`` / ``job_quarantined`` event per incident, and
  collecting terminal records as :class:`TileResult`s.

All three share one :class:`ExecutionContext`, so per-tile accounting,
watchdog/status plumbing, telemetry merging, and progress callbacks are
identical on every executor — the robustness contract (retries,
tile-granular resume, liveness watchdog) does not care where a tile
actually ran.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import FullChipCancelled, FullChipError
from ..harness import CellStatus
from ..obs import Instrumentation
from ..obs.distributed import TileTelemetry, merge_tile_telemetry
from .queue import QUEUE_DIRNAME, ClaimedJob, QueueConfig, TileJobQueue
from .scheduler import (
    TileJob,
    TileResult,
    _ensure_resource_tracker,
    _pool_context,
    absorb_shared_mask,
    solve_tile_job,
    warm_model_cache,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ExecutionContext",
    "TileExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "QueueWorkerExecutor",
    "executor_for",
]


@dataclass
class ExecutionContext:
    """Everything an executor needs besides the jobs themselves.

    Built once per :func:`~repro.fullchip.scheduler.run_tile_jobs` call;
    owns the per-tile accounting (:meth:`record`) and the liveness /
    status polling (:meth:`poll_liveness`) so the three executors stay
    behaviorally identical everywhere but raw job placement.
    """

    jobs: Sequence[TileJob]
    keep_going: bool = False
    obs: Instrumentation = field(default_factory=Instrumentation.disabled)
    progress: Callable[[str], None] = lambda msg: None
    on_tile: Optional[Callable[[TileResult], None]] = None
    watchdog: Optional[object] = None  # LivenessWatchdog
    status: Optional[object] = None  # StatusWriter
    heartbeat_dir: Optional[str] = None
    cancel: Optional[Callable[[], bool]] = None

    def __post_init__(self) -> None:
        self.tile_names: Dict[Tuple[int, int], str] = {
            job.tile.index: job.tile.name for job in self.jobs
        }
        self._total = self.obs.metrics.counter("fullchip_tiles_total")
        self._failed = self.obs.metrics.counter("fullchip_tiles_failed")
        self._retried = self.obs.metrics.counter("fullchip_tile_retries")
        self._cached = self.obs.metrics.counter("fullchip_tiles_cached")

    def counter_values(self) -> Dict[str, int]:
        """Counter-type metrics of the bundle as plain name→value pairs."""
        counters: Dict[str, int] = {}
        try:
            snapshot = self.obs.metrics.as_dict()
        except Exception:  # noqa: BLE001 - live feed must not fail the run
            return counters
        for name, data in snapshot.items():
            if data.get("type") == "counter":
                counters[name] = int(data.get("value", 0) or 0)
        return counters

    def record(self, result: TileResult) -> None:
        """Fold one settled tile into counters/status/watchdog/events."""
        self._total.inc()
        if result.from_cache:
            self._cached.inc()
        if result.status.attempts > 1:
            self._retried.inc(result.status.attempts - 1)
        if not result.ok:
            self._failed.inc()
        # Anchor absorbed worker spans at the live scheduling span so
        # the merged report nests them where the work actually ran.
        under = getattr(self.obs.tracer, "current_path", "") or "fullchip.tiles"
        merge_tile_telemetry(self.obs, result.telemetry, under=under)
        if self.watchdog is not None:
            self.watchdog.mark_done(self.tile_names[result.index])
        if self.status is not None:
            self.status.mark_done(
                self.tile_names[result.index],
                status=result.status.status,
                attempts=result.status.attempts,
                runtime_s=result.status.runtime_s,
                epe_violations=result.epe_violations if result.ok else None,
                pv_band_nm2=result.pv_band_nm2 if result.ok else None,
                score_total=result.score_total if result.ok else None,
                iterations=(
                    result.telemetry.iterations
                    if result.telemetry is not None
                    else None
                ),
                cached=result.from_cache,
                error=result.status.error,
            )
        if self.on_tile is not None:
            self.on_tile(result)
        self.obs.events.emit(
            "tile",
            index=list(result.index),
            status=result.status.status,
            attempts=result.status.attempts,
            runtime_s=result.status.runtime_s,
            score=result.score_total,
            cached=result.from_cache,
            error=result.status.error,
        )
        self.progress(
            f"tile {result.index} {result.status.status}"
            + (" (cached)" if result.from_cache else "")
        )

    def poll_liveness(self) -> None:
        """One watchdog/status round over the current heartbeat files."""
        if self.heartbeat_dir is None or (
            self.watchdog is None and self.status is None
        ):
            return
        from ..obs.live import read_heartbeats

        beats = read_heartbeats(self.heartbeat_dir)
        if self.status is not None:
            for beat in beats.values():
                self.status.apply_heartbeat(beat)
        if self.watchdog is not None:
            for flag in self.watchdog.observe(beats):
                self.progress(
                    f"tile worker {flag.tile} (pid {flag.pid}) {flag.reason} "
                    f"after {flag.stalled_for_s:.1f}s without progress"
                )
                if self.status is not None:
                    self.status.mark_stalled(flag.tile)
                if self.watchdog.config.cancel:
                    import signal

                    logger.warning(
                        "watchdog cancel: killing %s worker pid %d",
                        flag.tile, flag.pid,
                    )
                    try:
                        os.kill(flag.pid, signal.SIGKILL)
                    except OSError as exc:
                        logger.warning("cancel kill failed: %s", exc)
        if self.status is not None:
            self.status.set_counters(self.counter_values())
            self.status.write()

    def write_status_counters(self) -> None:
        if self.status is not None:
            self.status.set_counters(self.counter_values())
            self.status.write()

    def check_cancelled(self) -> None:
        """Raise :class:`~repro.errors.FullChipCancelled` when asked to stop.

        Executors poll this between placements, so cancellation is
        cooperative: settled tiles stay settled, in-flight work is
        abandoned at the executor's next safe point.
        """
        if self.cancel is not None and self.cancel():
            raise FullChipCancelled("tile run cancelled by request")


class TileExecutor:
    """Placement strategy for one batch of tile jobs.

    Subclasses implement :meth:`run`, returning settled results keyed
    by tile index.  Everything that must behave identically across
    executors lives in :class:`ExecutionContext`.
    """

    name = "abstract"

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        raise NotImplementedError


class SerialExecutor(TileExecutor):
    """Solve every job inline in the calling process, in order."""

    name = "serial"

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        results: Dict[Tuple[int, int], TileResult] = {}
        for job in jobs:
            ctx.check_cancelled()
            if ctx.status is not None:
                ctx.status.mark_running(job.tile.name, pid=os.getpid())
                ctx.status.write()
            result = absorb_shared_mask(solve_tile_job(job), ctx.obs)
            ctx.record(result)
            results[job.tile.index] = result
            ctx.write_status_counters()
            if not result.ok and not ctx.keep_going:
                raise FullChipError(
                    f"tile {result.index} {result.status.status}: "
                    f"{result.status.error}"
                )
        return results


class PoolExecutor(TileExecutor):
    """Solve jobs on a fork ``ProcessPoolExecutor`` (the historical path)."""

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise FullChipError(f"pool workers must be >= 1, got {workers}")
        self.workers = workers

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        poll_s = (
            ctx.watchdog.config.poll_s if ctx.watchdog is not None else None
        )
        results: Dict[Tuple[int, int], TileResult] = {}
        warm_model_cache(jobs)
        if any(job.share_result for job in jobs):
            _ensure_resource_tracker()
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(jobs)), mp_context=_pool_context()
        ) as pool:
            futures = {pool.submit(solve_tile_job, job): job for job in jobs}
            pending = set(futures)
            first_failure: Optional[TileResult] = None
            while pending:
                done, pending = wait(
                    pending, timeout=poll_s, return_when=FIRST_COMPLETED
                )
                ctx.poll_liveness()
                if ctx.cancel is not None and ctx.cancel():
                    # Cooperative cancel: drop queued futures so the
                    # pool __exit__ does not run them, then raise.
                    for future in pending:
                        future.cancel()
                    raise FullChipCancelled("tile run cancelled by request")
                for future in done:
                    job = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:  # noqa: BLE001 - pool fault
                        result = TileResult(
                            index=job.tile.index,
                            status=CellStatus(
                                status="failed",
                                error=f"{type(exc).__name__}: {exc}",
                            ),
                        )
                    result = absorb_shared_mask(result, ctx.obs)
                    ctx.record(result)
                    results[job.tile.index] = result
                    if not result.ok and first_failure is None:
                        first_failure = result
                if done:
                    ctx.write_status_counters()
                if first_failure is not None and not ctx.keep_going:
                    for future in pending:
                        future.cancel()
                    raise FullChipError(
                        f"tile {first_failure.index} "
                        f"{first_failure.status.status}: "
                        f"{first_failure.status.error}"
                    )
        return results


class QueueWorkerExecutor(TileExecutor):
    """Durable-queue execution: persisted jobs, leased workers, fencing.

    The executor seeds (or adopts, on resume) the queue under
    ``<run_dir>/queue/``, optionally spawns ``workers`` local
    ``repro worker`` subprocesses, and supervises until every tile
    reaches a terminal record:

    * sweeps expired leases (workers sweep too — whoever gets there
      first wins the incident exactly once),
    * emits one latched ``job_requeued`` / ``job_quarantined`` event
      per incident (deduped on (kind, tile, token) from the queue's
      per-tile history, so worker-swept incidents surface here too),
    * feeds the liveness watchdog / status feed exactly like the other
      executors, and
    * respawns crashed local workers while undrained tiles remain,
      within ``max_respawns``.

    Externally launched workers (``repro worker <run-dir>`` on any
    host sharing the filesystem) participate transparently; with
    ``spawn_workers=False`` the executor only supervises.
    """

    name = "queue"

    def __init__(
        self,
        run_dir: Union[str, Path],
        workers: int = 2,
        queue_config: Optional[QueueConfig] = None,
        poll_s: float = 0.5,
        spawn_workers: bool = True,
        max_respawns: Optional[int] = None,
        drain_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 0:
            raise FullChipError(f"queue workers must be >= 0, got {workers}")
        if poll_s <= 0:
            raise FullChipError(f"poll_s must be positive, got {poll_s}")
        self.run_dir = Path(run_dir)
        self.workers = workers
        self.queue_config = queue_config or QueueConfig()
        self.poll_s = poll_s
        self.spawn_workers = spawn_workers
        self.max_respawns = workers if max_respawns is None else max_respawns
        self.drain_timeout_s = drain_timeout_s

    # -- worker fleet -------------------------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        import repro

        env = os.environ.copy()
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        cmd = [
            sys.executable, "-m", "repro", "worker", str(self.run_dir),
            "--poll", str(self.poll_s),
        ]
        return subprocess.Popen(cmd, env=env)

    @staticmethod
    def _shutdown_fleet(fleet: List[subprocess.Popen], grace_s: float = 10.0) -> None:
        deadline = time.monotonic() + grace_s
        for proc in fleet:
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    # -- incident events ----------------------------------------------------

    def _emit_incidents(
        self, queue: TileJobQueue, ctx: ExecutionContext, emitted: set
    ) -> None:
        """Latch queue incidents into the parent's event/counter feeds.

        Incidents are discovered from the per-tile history (so sweeps
        performed *by workers* surface here too) and deduped on
        (kind, tile, token): exactly one ``job_requeued`` or
        ``job_quarantined`` event per incident, ever.
        """
        for tile in queue.tiles():
            for line in queue.history(tile):
                kind = str(line.get("kind", ""))
                if kind not in ("requeued", "quarantined"):
                    continue
                key = (kind, tile, int(line.get("token", 0) or 0))
                if key in emitted:
                    continue
                emitted.add(key)
                event = "job_requeued" if kind == "requeued" else "job_quarantined"
                self_counter = (
                    "fullchip_jobs_requeued"
                    if kind == "requeued"
                    else "fullchip_jobs_quarantined"
                )
                ctx.obs.metrics.counter(self_counter).inc()
                ctx.obs.events.emit(
                    event,
                    tile=tile,
                    token=int(line.get("token", 0) or 0),
                    reason=line.get("reason"),
                    backoff_s=line.get("backoff_s"),
                )
                ctx.progress(
                    f"tile {tile} {kind} "
                    f"(generation {line.get('token')}, {line.get('reason')})"
                )

    # -- terminal-record adaptation ----------------------------------------

    @staticmethod
    def _result_from_record(
        queue: TileJobQueue, tile: str, record: Dict[str, object]
    ) -> TileResult:
        index = record.get("index") or [0, 0]
        index = (int(index[0]), int(index[1]))
        state = str(record.get("state", "done"))
        telemetry = None
        telemetry_dict = record.get("telemetry")
        if telemetry_dict:
            try:
                telemetry = TileTelemetry.from_dict(telemetry_dict)
            except (KeyError, TypeError, ValueError):
                telemetry = None
        attempts = int(record.get("attempts", int(record.get("token", 0)) + 1))
        runtime_s = float(record.get("runtime_s", 0.0) or 0.0)
        if state == "done":
            mask = queue.load_result_mask(record)
            if mask is None:
                return TileResult(
                    index=index,
                    status=CellStatus(
                        status="failed",
                        attempts=attempts,
                        runtime_s=runtime_s,
                        error=f"queue result {record.get('result_file')} unreadable",
                    ),
                    telemetry=telemetry,
                )
            return TileResult(
                index=index,
                status=CellStatus(
                    status=str(record.get("status", "ok")),
                    attempts=attempts,
                    runtime_s=runtime_s,
                ),
                mask=mask,
                epe_violations=int(record.get("epe_violations", 0) or 0),
                pv_band_nm2=float(record.get("pv_band_nm2", 0.0) or 0.0),
                score_total=float(record.get("score_total", 0.0) or 0.0),
                from_cache=bool(record.get("cached", False)),
                telemetry=telemetry,
            )
        # failed / quarantined records: both surface as non-ok results,
        # so the engine's rasterized-target fallback covers them.
        status = str(record.get("status", "failed"))
        if status not in ("failed", "timeout"):
            status = "failed"
        return TileResult(
            index=index,
            status=CellStatus(
                status=status,
                attempts=attempts,
                runtime_s=runtime_s,
                error=str(record.get("error") or f"tile {tile} {state}"),
            ),
            telemetry=telemetry,
        )

    # -- the supervision loop ----------------------------------------------

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        # Queue transport is the durable results file, not shared
        # memory; resume semantics ride on queue adoption.
        queue_jobs = {
            job.tile.name: (
                job.tile.index,
                replace(job, share_result=False) if job.share_result else job,
            )
            for job in jobs
        }
        adopt = all(job.resume for job in jobs) and bool(jobs)
        trace_id = next(
            (
                job.telemetry.trace_id
                for job in jobs
                if job.telemetry is not None and job.telemetry.trace_id
            ),
            None,
        )
        queue = TileJobQueue.create(
            self.run_dir / QUEUE_DIRNAME,
            queue_jobs,
            config=self.queue_config,
            adopt=adopt,
            trace_id=trace_id,
        )
        fleet: List[subprocess.Popen] = []
        respawns = 0
        emitted: set = set()
        settled: set = set()
        results: Dict[Tuple[int, int], TileResult] = {}
        started = time.monotonic()
        drained = False
        try:
            if self.spawn_workers:
                fleet = [self._spawn_worker() for _ in range(self.workers)]
            while True:
                # Cancelling here lets the finally-clause shut the local
                # fleet down; the caller sweeps any expired leases the
                # dead workers leave behind.
                ctx.check_cancelled()
                queue.sweep_expired(heartbeat_dir=ctx.heartbeat_dir)
                self._emit_incidents(queue, ctx, emitted)
                self._mark_leases_running(queue, ctx)
                ctx.poll_liveness()
                first_failure: Optional[TileResult] = None
                for tile in sorted(queue.tiles()):
                    if tile in settled:
                        continue
                    record = queue.terminal_record(tile)
                    if record is None:
                        continue
                    settled.add(tile)
                    result = self._result_from_record(queue, tile, record)
                    ctx.record(result)
                    results[result.index] = result
                    if not result.ok and first_failure is None:
                        first_failure = result
                if first_failure is not None and not ctx.keep_going:
                    raise FullChipError(
                        f"tile {first_failure.index} "
                        f"{first_failure.status.status}: "
                        f"{first_failure.status.error}"
                    )
                if len(settled) == len(queue.tiles()):
                    break
                if self._fleet_starved(queue, fleet):
                    if respawns < self.max_respawns:
                        respawns += 1
                        logger.warning(
                            "queue: respawning worker (%d/%d)",
                            respawns, self.max_respawns,
                        )
                        fleet.append(self._spawn_worker())
                    elif self._abandoned(queue, fleet):
                        self._fail_abandoned(queue, ctx, settled, results)
                        break
                if (
                    self.drain_timeout_s is not None
                    and time.monotonic() - started > self.drain_timeout_s
                ):
                    raise FullChipError(
                        f"queue run exceeded drain timeout "
                        f"{self.drain_timeout_s:g}s with "
                        f"{len(queue.tiles()) - len(settled)} tile(s) unsettled"
                    )
                time.sleep(self.poll_s)
            drained = True
        finally:
            # A drained queue lets the workers exit on their own; after a
            # cancel or a failure they are stopped at once, since in a
            # grace period they would go on claiming the remaining tiles.
            self._shutdown_fleet(fleet, grace_s=10.0 if drained else 0.0)
        return results

    def _mark_leases_running(
        self, queue: TileJobQueue, ctx: ExecutionContext
    ) -> None:
        if ctx.status is None:
            return
        import json

        from .queue import LEASED_DIRNAME, _parse_entry_name

        for path in (queue.root / LEASED_DIRNAME).glob("*.json"):
            parsed = _parse_entry_name(path.name)
            if parsed is None:
                continue
            try:
                with open(path) as handle:
                    lease = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            ctx.status.mark_running(parsed[0], pid=int(lease.get("pid", 0) or 0))

    def _fleet_starved(
        self, queue: TileJobQueue, fleet: List[subprocess.Popen]
    ) -> bool:
        """True when we spawn workers and none of ours is alive."""
        if not self.spawn_workers:
            return False
        return all(proc.poll() is not None for proc in fleet)

    def _abandoned(
        self, queue: TileJobQueue, fleet: List[subprocess.Popen]
    ) -> bool:
        """Nothing in flight and the queue has been dead quiet past grace.

        Only consulted once the local fleet is gone and the respawn
        budget is spent.  ``leased == 0`` alone is not abandonment:
        externally attached workers (``repro worker`` launched by hand
        on any host) are invisible to the local fleet list and may be
        between claims, and pending tickets may still be parked behind
        requeue backoff.  So tiles are only failed after every ticket
        has been claimable — and nothing has touched the queue — for a
        full grace window (two lease terms).  External workers extend
        the run only by actually claiming within that window; they do
        not otherwise disable the supervisor's abandonment check.
        """
        counts = queue.counts()
        if counts["leased"] > 0:
            return False
        grace = max(2.0 * self.queue_config.lease_s, 10.0 * self.poll_s)
        return time.time() - queue.last_activity_ts() > grace

    def _fail_abandoned(
        self,
        queue: TileJobQueue,
        ctx: ExecutionContext,
        settled: set,
        results: Dict[Tuple[int, int], TileResult],
    ) -> None:
        """Settle undrained tiles as failed when no worker can ever run them."""
        first_failure: Optional[TileResult] = None
        for tile, index in sorted(queue.tiles().items()):
            if tile in settled:
                continue
            settled.add(tile)
            result = TileResult(
                index=index,
                status=CellStatus(
                    status="failed",
                    error="queue worker fleet exhausted (respawn budget spent)",
                ),
            )
            ctx.record(result)
            results[index] = result
            if first_failure is None:
                first_failure = result
        if first_failure is not None and not ctx.keep_going:
            raise FullChipError(
                f"tile {first_failure.index} failed: "
                f"{first_failure.status.error}"
            )


def executor_for(
    kind: str,
    workers: int,
    run_dir: Optional[Union[str, Path]] = None,
    queue_config: Optional[QueueConfig] = None,
    drain_timeout_s: Optional[float] = None,
) -> TileExecutor:
    """Build the executor named by ``kind`` (``pool``/``queue``/``serial``).

    ``pool`` with ``workers <= 1`` degrades to the serial executor —
    the historical ``run_tile_jobs`` behavior, preserved bit-for-bit.
    ``queue`` needs ``run_dir`` (the telemetry run directory whose
    ``queue/`` subdirectory holds the durable state).
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "pool":
        return PoolExecutor(workers) if workers > 1 else SerialExecutor()
    if kind == "queue":
        if run_dir is None:
            raise FullChipError(
                "the queue executor needs a run directory "
                "(FullChipConfig.telemetry_dir)"
            )
        return QueueWorkerExecutor(
            run_dir,
            workers=workers,
            queue_config=queue_config,
            drain_timeout_s=drain_timeout_s,
        )
    raise FullChipError(
        f"executor must be one of ('pool', 'queue', 'serial'), got {kind!r}"
    )
