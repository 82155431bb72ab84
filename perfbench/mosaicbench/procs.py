"""Process helpers: fresh-process set-up timing, peak memory, stdout guard."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Union

PROBE = Path(__file__).with_name("probe.py")

#: Seconds a set-up probe may take before the run gives up.
PROBE_TIMEOUT_S = 60.0


def vm_hwm_mb(pid: Union[int, str] = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def time_probe(workload: str, env: Dict[str, str], cwd: Path) -> float:
    """Seconds from launching a fresh probe process to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), workload],
        env=env, cwd=str(cwd), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


@contextmanager
def stdout_to_stderr() -> Iterator[None]:
    """Send file descriptor 1 to stderr, for this process and its children.

    Keeps anything a worker or library prints out of the benchmark's
    standard output, whose last line must be the result.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
