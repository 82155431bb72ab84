"""Set-up probe: one fresh process that gets a workload ready, then exits.

Run as ``python3 perfbench/mosaicbench/probe.py <clips|chip>`` with
``repro`` importable.  It prints ``ready`` once the process could start
timed work (imports done, SOCS kernels built, and for ``chip`` the
ambit model built); the parent times launch → ``ready``.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    from repro import LithoConfig

    litho = LithoConfig.reduced()
    if workload == "clips":
        from repro import LithographySimulator

        LithographySimulator(litho).prewarm()
    elif workload == "chip":
        from repro import ambit_model_for

        ambit_model_for(litho)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
