"""Run-to-run spread of the benchmark over seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload power-sweep --seeds 10 [--trace 0]

Runs perfbench/run.py once per seed 1..N, one run at a time, and prints for
every metric its median, quartiles and spread, the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A benchmark counts as steady when every spread except that of
setup_s stays below a third of its bound. The table is also written to
perfbench/out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(1, args.seeds + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    table = {}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        table[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                       "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
