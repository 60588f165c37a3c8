"""Cold set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py <workload> [--tiny]

Imports fires, runs the first trial of every geometry the workload uses, then
runs the same trials again warm. It prints one JSON line: the CLOCK_MONOTONIC
reading when the cold trials ended, the warm time of those trials, and the
time `import fires` took. The parent subtracts its own clock reading at spawn
and the warm time, which leaves what a cold process pays before its first
trial can start, wherever the program keeps that work (import, geometry,
correlation models, lazy first calls).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name = sys.argv[1]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.monotonic()
    import fires  # noqa: F401

    import_s = time.monotonic() - start
    from fires import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[name].tiny() if "--tiny" in sys.argv else WORKLOADS[name]
    cfg = wl.sweep_config(0, 0)

    def first_trials() -> None:
        for area in wl.areas:
            harness.run_trial(cfg, 0, area)

    first_trials()
    ready = time.monotonic()
    t0 = time.perf_counter()
    first_trials()
    warm_s = time.perf_counter() - t0
    print(json.dumps({"ready": ready, "warm_trials_s": warm_s, "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
