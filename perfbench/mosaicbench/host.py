"""Process environment of a run and the host fingerprint printed with it.

The benchmark pins every BLAS/OpenMP pool to one thread.  Two reasons,
both measured on a 2-core OpenBLAS host (see ``perfbench/README.md``):

* masks depend on the BLAS thread count (``einsum`` reductions change
  order), so the recorded expected values only hold at a fixed count;
* with the default pool size, two tile workers on two cores spin
  against each other and a 2-tile chip took 18-45 s instead of 12 s,
  which no bound could absorb.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

#: Thread-pool variables set in every process the benchmark starts.
PINNED_THREADS: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def bench_env(src_dir: Path) -> Dict[str, str]:
    """Environment for the benchmark's own subprocesses (``repro`` on the path)."""
    env = os.environ.copy()
    env.update(PINNED_THREADS)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + existing if existing else "")
    return env


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """Cores, BLAS and its thread settings, versions and commit."""
    import numpy as np
    import scipy

    from repro import __version__

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "threads_env": {
            key: os.environ.get(key)
            for key in sorted(os.environ)
            if key.endswith("_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": __version__,
        "commit": _git_commit(root),
    }
