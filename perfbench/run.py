"""The fires benchmark: one workload, one run, every metric by name and unit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload power-sweep --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A longer record with the
provenance block, per-sweep times and, when traced, every span is written
under perfbench/out/. The exit code is 0 when every correctness check holds.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Cold set-up probes per run: at least the first number, and more, up to the
# second, while the probes so far took less than PROBE_BUDGET_S. A quick set-up
# gets a steadier median; a slow one keeps the run inside its time limit.
SETUP_PROBES = (3, 7)
PROBE_BUDGET_S = 5.0
PROBE_TIMEOUT_S = 150
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="token swarm and one probe; for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclasses.dataclass
class Sweep:
    """One timed run_sweep call and what it produced."""

    k: int
    wall_s: float
    records: list | None  # None when run_sweep raised
    trials: list  # per-trial tuples seen by the TrialCollector
    csv: bytes

    def signature(self):
        records = [dataclasses.astuple(r) for r in self.records or ()]
        return records, sorted(self.trials, key=lambda t: (t[0], t[1])), self.csv


def run_once(wl, seed, k, collector, out_dir) -> Sweep:
    from fires import harness

    cfg = wl.sweep_config(seed, k)
    collector.trials = []
    start = time.perf_counter()
    try:
        records = harness.run_sweep(cfg)
    except Exception:
        traceback.print_exc()
        records = None
    wall_s = time.perf_counter() - start
    csv = b""
    if records is not None:
        harness.emit_results(records, out_dir / "sweep.json", "json", config=cfg)
        harness.emit_results(records, out_dir / "sweep.csv", "csv")
        csv = (out_dir / "sweep.csv").read_bytes()
    return Sweep(k, wall_s, records, list(collector.trials), csv)


def _valid_rate(x) -> bool:
    return math.isfinite(x) and x >= 0


def check_sweep(sweep: Sweep, wl) -> tuple[int, list[str]]:
    """(failed trial evaluations, problems) of one sweep.

    A sweep that raised fails every evaluation. Otherwise a trial fails when
    it is missing or its fluid or baseline rate is non-finite or negative, and
    every sweep value's mean must be the mean of its own trials.
    """
    if sweep.records is None:
        return wl.evaluations, [f"sweep {sweep.k} raised"]
    problems = []
    if [r.sweep_value for r in sweep.records] != [float(v) for v in wl.sweep_values]:
        problems.append(f"sweep {sweep.k}: wrong sweep values")
    if not sweep.trials:  # the program no longer runs trials through run_trial
        bad = [r for r in sweep.records
               if not (_valid_rate(r.fires_mean) and _valid_rate(r.baseline_mean))]
        failed = len(bad) * wl.config.n_trials
    else:
        failed = wl.evaluations - len(sweep.trials)
        failed += sum(1 for t in sweep.trials if not (_valid_rate(t[2]) and _valid_rate(t[3])))
        for rec in sweep.records:
            rates = [t[2] for t in sorted(sweep.trials, key=lambda t: t[1]) if t[0] == rec.sweep_value]
            if len(rates) != rec.n_trials or not math.isclose(
                float(sum(rates) / len(rates)), rec.fires_mean, rel_tol=1e-12
            ):
                problems.append(f"sweep {sweep.k}: mean at {rec.sweep_value} is not its trials' mean")
    if failed:
        problems.append(f"sweep {sweep.k}: {failed} failed trial evaluations")
    return failed, problems


def setup_probes(name: str, tiny: bool) -> tuple[list[float], list[float]]:
    """Cold set-up time and `import fires` time of fresh processes, one at a time."""
    cmd = [sys.executable, str(HERE / "probe.py"), name] + (["--tiny"] if tiny else [])
    fewest, most = (1, 1) if tiny else SETUP_PROBES
    setup_s, import_s = [], []
    begin = time.monotonic()
    while len(setup_s) < fewest or (
        len(setup_s) < most and time.monotonic() - begin < PROBE_BUDGET_S
    ):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        doc = json.loads(done.stdout.splitlines()[-1])
        setup_s.append(doc["ready"] - start - doc["warm_trials_s"])
        import_s.append(doc["import_s"])
    return setup_s, import_s


def measure(wl, seed: int, seconds: float, out_dir: Path):
    """Warm-up sweep, then timed sweeps until `seconds` have passed and the
    effective-rate sweeps are done."""
    from tracer import TrialCollector

    collector = TrialCollector()
    with collector.installed():
        warm = run_once(wl, seed, 0, collector, out_dir)
        sweeps = []
        deadline = time.perf_counter() + seconds
        while len(sweeps) < max(2, wl.rate_sweeps) or time.perf_counter() < deadline:
            sweeps.append(run_once(wl, seed, len(sweeps), collector, out_dir))
    return warm, sweeps


def measure_traced(wl, seed: int, seconds: float, out_dir: Path, tracer):
    """Traced warm-up sweep, then pairs of the same sweep run untraced and
    traced, alternating which goes first, until `seconds` have passed."""
    from tracer import TrialCollector

    collector = TrialCollector()
    pairs = []
    with collector.installed():
        with tracer.installed():
            warm = run_once(wl, seed, 0, collector, out_dir)
        deadline = time.perf_counter() + seconds
        while len(pairs) < 2 or time.perf_counter() < deadline:
            k = len(pairs)
            runs = {}
            for traced in (False, True) if k % 2 == 0 else (True, False):
                if traced:
                    tracer.sweep = k
                    with tracer.installed():
                        runs[traced] = run_once(wl, seed, k, collector, out_dir)
                else:
                    runs[traced] = run_once(wl, seed, k, collector, out_dir)
            pairs.append((runs[False], runs[True]))
    return warm, pairs


def median_rate(sweeps, wl) -> float:
    """Median over sweeps of trial evaluations per second of run_sweep."""
    return statistics.median(wl.evaluations / s.wall_s for s in sweeps)


def _openblas() -> tuple[int | None, str | None]:
    """(threads, configuration) of the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_threads(), get_config().decode()
    return None, None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    threads_in_force, runtime = _openblas()
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "runtime": runtime},
        "blas_threads": {"set": BLAS_THREADS, "in_force": threads_in_force},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "fires" / "__init__.py").is_file():
        print(f"error: no fires sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads and inherited by the probes.
    # With two, OpenBLAS spins its second thread on the other core (process
    # CPU time twice the wall time), and the first eigh of a process now and
    # then stalls for about a second; both made runs unsteady on 2 cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    from tracer import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    wl = WORKLOADS[args.workload].tiny() if args.tiny else WORKLOADS[args.workload]
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s, import_s = setup_probes(wl.name, args.tiny)

    tracer = Tracer() if args.trace else None
    if tracer is None:
        warm, sweeps = measure(wl, args.seed, args.seconds, out_dir)
        timed = sweeps
    else:
        warm, pairs = measure_traced(wl, args.seed, args.seconds, out_dir, tracer)
        timed = [s for pair in pairs for s in pair]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = [warm] + timed
    attempted = wl.evaluations * len(everything)
    failed, problems = 0, []
    for sweep in everything:
        f, p = check_sweep(sweep, wl)
        failed += f
        problems += p
    first = [s for s in timed if s.k == 0]
    if any(s.signature() != warm.signature() for s in first):
        problems.append("two runs of sweep 0 with the same seed gave different records")

    if tracer is None:
        rated = [s.records for s in sweeps[: wl.rate_sweeps] if s.records is not None]
        metrics = {
            "trials_per_s": (median_rate(sweeps, wl), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
            "effective_rate_bps": (
                statistics.fmean(r.fires_mean for recs in rated for r in recs)
                if rated else float("nan"),
                "bit/s/Hz",
            ),
        }
    else:
        for plain, traced in pairs:
            if plain.signature() != traced.signature():
                problems.append(f"sweep {plain.k}: traced records differ from untraced")
        untraced_tps = median_rate([p for p, _ in pairs], wl)
        traced_tps = median_rate([t for _, t in pairs], wl)
        metrics = tracer.metrics(sweeps=len(pairs), evaluations=len(pairs) * wl.evaluations)
        metrics["cli.import_s"] = (statistics.median(import_s), "s")
        metrics["trace.untraced_trials_per_s"] = (untraced_tps, "1/s")
        metrics["trace.traced_trials_per_s"] = (traced_tps, "1/s")
        metrics["trace.overhead_share"] = (1.0 - traced_tps / untraced_tps, "ratio")

    correct = not problems
    prov = provenance(args)
    walls = [s.wall_s for s in timed]
    record = {
        "provenance": prov,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "sweep_wall_s": walls,
        "sweep_wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "setup_probes_s": setup_s,
        "import_probes_s": import_s,
    }
    if tracer is not None:
        record["absent"] = sorted(tracer.absent)
        record["span_summary"] = tracer.summary()
        record["spans"] = tracer.dump()
    result_path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record))

    print("provenance " + json.dumps(prov))
    for problem in problems:
        print("problem: " + problem)
    if tracer is not None and tracer.absent:
        print("absent (not in the program): " + ", ".join(sorted(tracer.absent)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} trial evaluations)")
    print(f"wrote {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
