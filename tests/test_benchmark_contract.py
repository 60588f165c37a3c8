"""The benchmark's traced runs report every per-layer metric.

perfbench/tracer.py times the program by swapping names in its module
namespaces (`harness.run_trial`, `harness.optimize`, ...) and reads the swarm
history off what `optimize` returns. A change to those call paths would make
every traced benchmark run fail; this test makes it fail here first. It reads
the tracer and BENCHMARK.json without importing the benchmark as a package,
and writes nothing under perfbench/.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

from fires import harness
from fires.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
if not TRACER.exists():
    pytest.skip("perfbench/ is not in this checkout", allow_module_level=True)

# per-layer metrics that perfbench/run.py adds itself, outside the tracer
RUN_PY_METRICS = {
    "cli.import_s",
    "trace.untraced_trials_per_s",
    "trace.traced_trials_per_s",
    "trace.overhead_share",
}


@pytest.fixture(scope="module")
def tracer_module():
    module = types.ModuleType("perfbench_tracer")
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("sweep", ["power", "area", "none"])
def test_traced_sweep_reports_every_per_layer_metric(tracer_module, sweep):
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in per_layer} - RUN_PY_METRICS
    cfg = ExperimentConfig(sweep=sweep, n_trials=2, n_particles=5, n_iterations=3)
    tracer = tracer_module.Tracer()
    tracer.sweep = 0
    with tracer.installed():
        records = harness.run_sweep(cfg)
    metrics = tracer.metrics(sweeps=1, evaluations=len(records) * cfg.n_trials)
    assert expected <= set(metrics), sorted(expected - set(metrics))
    assert all(math.isfinite(value) for value, _ in metrics.values()), metrics
