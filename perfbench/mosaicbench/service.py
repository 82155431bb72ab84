"""``service``: a ``repro serve`` subprocess under a closed loop of clients.

Two client threads, one tenant each, run a seeded schedule of
``synth:1024x1024:<s>`` jobs (``s`` drawn from a pool of
:data:`POOL_SIZE`, all with recorded expected values) with the
server's default limits and job payload.  Each client submits, waits
for DONE, fetches ``mask.npz``, then submits its next job:

* round 0: both clients submit the same spec at once, so the second is
  an in-flight duplicate that is solved again (today only finished
  results are looked up), then each re-submits it: a cache hit;
* each later round: a new spec per client (a miss), the same spec again
  and the round-0 spec again (two hits).

No client has more than one job live and hits come at most three in a
row, which keeps every tenant inside its default rate budget.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .checks import check_output, npz_mask
from .layers import LayerTotals, SpanRecorder, queue_phases, spool_layers
from .procs import vm_hwm_mb
from .schema import PassResult
from .stats import Checks, OpCounter, median, union_seconds

POOL_SIZE = 8
CLIENTS = 2
#: Nominal seconds for one round (two concurrent misses) on a 2-core host.
SECONDS_PER_ROUND = 13.0
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0


def service_spec(index: int) -> str:
    return f"synth:1024x1024:{index}"


def schedule(seed: int, seconds: float) -> List[List[str]]:
    """Per-client job sequences for one run."""
    rounds = max(1, min(round(seconds / SECONDS_PER_ROUND), (POOL_SIZE - 1) // CLIENTS + 1))
    drawn = random.Random(seed).sample(range(POOL_SIZE), 1 + CLIENTS * (rounds - 1))
    shared = service_spec(drawn[0])
    plans = []
    for client in range(CLIENTS):
        plan = [shared, shared]
        for r in range(1, rounds):
            own = service_spec(drawn[1 + (r - 1) * CLIENTS + client])
            plan += [own, own, shared]
        plans.append(plan)
    return plans


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, env: Dict[str, str], cwd: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.log = open(root.with_suffix(".log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(root)],
            env=env, cwd=str(cwd), stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.url = self._wait_ready(start + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _wait_ready(self, deadline: float) -> str:
        service_file = self.root / "service.json"
        url: Optional[str] = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if url is None and service_file.exists():
                try:
                    url = json.loads(service_file.read_text())["url"]
                except (ValueError, KeyError):
                    url = None
            if url is not None:
                try:
                    with urllib.request.urlopen(url + "/healthz", timeout=5) as response:
                        if response.status == 200:
                            return url
                except (urllib.error.URLError, ConnectionError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy in time")

    def stop(self) -> None:
        # SIGTERM to the server's process group, not SIGINT: a process
        # started with SIGINT ignored (a background job of a
        # non-interactive shell) passes that on to the server.  The group
        # also holds the job's tile workers, should a run end early.
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


@dataclass
class JobRun:
    """One job as the client saw it."""

    spec: str
    post: Tuple[float, float]
    done_at: float = 0.0
    fetch: Tuple[float, float] = (0.0, 0.0)
    record: Dict[str, object] = field(default_factory=dict)
    mask_npz: bytes = b""
    error: Optional[str] = None
    rejected: bool = False

    @property
    def latency_s(self) -> float:
        return self.done_at - self.post[0]

    @property
    def hit(self) -> bool:
        return bool(self.record.get("cached"))

    def quality(self) -> Tuple[np.ndarray, int, float]:
        """The fetched mask and the job record's EPE violations and PV band."""
        score = self.record.get("score") or {}
        return (npz_mask(self.mask_npz), int(score.get("epe_violations", -1)),
                float(score.get("pv_band_nm2", -1.0)))


def client_loop(url: str, tenant: str, plan: List[str], out: List[JobRun]) -> None:
    """Submit each spec with the default payload, wait for it, fetch its mask."""
    from repro.errors import RateLimitedError, ReproError
    from repro.service import ServiceClient

    client = ServiceClient(url, tenant=tenant, timeout_s=JOB_TIMEOUT_S)
    for spec in plan:
        began = time.perf_counter()
        try:
            record = client.submit({"layout": spec})
        except RateLimitedError as exc:
            out.append(JobRun(spec, (began, time.perf_counter()), error=str(exc), rejected=True))
            continue
        except ReproError as exc:
            out.append(JobRun(spec, (began, time.perf_counter()), error=str(exc)))
            continue
        job = JobRun(spec, (began, time.perf_counter()))
        out.append(job)
        try:
            if record.get("state") != "DONE":
                record = client.wait(str(record["id"]), timeout_s=JOB_TIMEOUT_S)
            job.done_at = time.perf_counter()
            job.record = record
            if record.get("state") != "DONE":
                job.error = f"job {record.get('id')} ended {record.get('state')}: {record.get('error')}"
                continue
            fetch_start = time.perf_counter()
            job.mask_npz = client.artifact(str(record["id"]), "mask.npz")
            job.fetch = (fetch_start, time.perf_counter())
        except ReproError as exc:
            job.error = f"{type(exc).__name__}: {exc}"


class ServiceWorkload:
    name = "service"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.plans = schedule(ctx.seed, ctx.seconds)
        self.passes = 0

    def probe(self) -> float:
        self.passes += 1
        server = Server(self.ctx.work / f"serve-probe-{self.passes}", self.ctx.env, self.ctx.root)
        server.stop()
        return server.startup_s

    def setup(self) -> None:
        """Nothing to warm here: each pass launches its own fresh server."""

    def run_pass(
        self, ops: OpCounter, checks: Checks, recorder: Optional[SpanRecorder] = None
    ) -> PassResult:
        self.passes += 1
        server = Server(self.ctx.work / f"service-{self.passes}", self.ctx.env, self.ctx.root)
        try:
            runs: List[List[JobRun]] = [[] for _ in self.plans]
            threads = [
                threading.Thread(target=client_loop, args=(server.url, f"tenant{i}", plan, runs[i]))
                for i, plan in enumerate(self.plans)
            ]
            start_ts, start = time.time(), time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            rss_mb = vm_hwm_mb(server.proc.pid)
            jobs = [job for client in runs for job in client]
            out = self._summarize(jobs, ops, checks, end - start)
            out.rss_mb = rss_mb
            if recorder is not None:
                out.layers = self._layers(server.root, jobs, start_ts, start, end)
        finally:
            server.stop()
        return out

    def _summarize(self, jobs: List[JobRun], ops: OpCounter, checks: Checks,
                   wall_s: float) -> PassResult:
        expected = self.ctx.expected["service"]
        by_id = {str(job.record.get("id")): job for job in jobs if job.record}
        misses, hits = [], []
        epe = pvb = 0.0
        for job in jobs:
            if job.error:
                ops.fail(f"service {job.spec}: {job.error}")
                continue
            ops.ok()
            if job.hit:
                hits.append(job)
                source = by_id.get(str(job.record.get("cached_from")))
                checks.expect(
                    source is not None and source.mask_npz == job.mask_npz,
                    f"service {job.spec}: hit mask.npz differs from its source job's",
                )
                continue
            misses.append(job)
            mask, epe_violations, pv_band_nm2 = job.quality()
            epe += epe_violations
            pvb += pv_band_nm2
            check_output(checks, f"service {job.spec}", expected.get(job.spec),
                         mask, epe_violations, pv_band_nm2)
        done = len(misses) + len(hits)
        return PassResult(
            wall_s=wall_s,
            unit_s=[job.latency_s for job in misses],
            figures={
                "job_miss_p50_s": median(job.latency_s for job in misses).value,
                "job_hit_p50_ms": median(job.latency_s for job in hits).value * 1e3,
                "jobs_per_min": done / wall_s * 60.0,
                "epe_violations": epe,
                "pvband_nm2": pvb,
            },
            samples={"miss": len(misses), "hit": len(hits)},
            notes=[f"service {' / '.join(' '.join(p) for p in self.plans)}"],
        )

    def _layers(self, root: Path, jobs: List[JobRun], start_ts: float, start: float,
                end: float) -> Dict[str, float]:
        offset = start_ts - start
        solved = [job for job in jobs if job.record and not job.error and not job.hit]
        run_dirs = [root / "jobs" / str(job.record["id"]) / "run" for job in solved]
        totals: LayerTotals = spool_layers(run_dirs)
        layers = totals.core_values()
        measured = [job.post for job in jobs] + [job.fetch for job in jobs if job.mask_npz]
        queue_wait = overhead = worker_start = claim = commit = tail = 0.0
        requeues = 0
        for job, run_dir in zip(solved, run_dirs):
            record = job.record
            started, finished = float(record["started_ts"]), float(record["finished_ts"])
            queue_wait += started - float(record["created_ts"])
            run = json.loads((run_dir / "run.json").read_text())
            overhead += (finished - started) - float(run["runtime_s"])
            phases = queue_phases(run_dir / "queue")
            if phases is None:
                continue
            worker_start += phases.first_leased_ts - started
            claim += phases.claim_wait_s
            commit += phases.commit_overhead_s
            tail += finished - phases.last_done_ts
            requeues += phases.requeues
            measured.append((started - offset, phases.first_leased_ts - offset))
            measured.extend((lo - offset, hi - offset) for lo, hi in phases.tile_spans)
        accepted = [job for job in jobs if not job.rejected]
        layers.update({
            "fullchip.worker_start_s": worker_start,
            "fullchip.claim_wait_s": claim,
            "fullchip.commit_overhead_s": commit,
            "fullchip.drain_tail_s": tail,
            "fullchip.requeues": requeues,
            "service.submit_ms": median((j.post[1] - j.post[0]) * 1e3 for j in accepted).value,
            "service.queue_wait_s": queue_wait,
            "service.run_overhead_s": overhead,
            "service.cache_hit_ratio": (
                sum(job.hit for job in jobs if not job.error) / max(1, len(accepted))
            ),
            "service.duplicate_solves": len(solved) - len({job.spec for job in solved}),
            "service.rejected": sum(job.rejected for job in jobs),
        })
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in measured if hi > lo]
        layers["trace.unexplained_ratio"] = 1.0 - union_seconds(clipped) / (end - start)
        return layers
