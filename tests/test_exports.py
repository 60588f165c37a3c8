import ast
import importlib
import inspect
from pathlib import Path

import fires
from fires import baseline, harness, pso


def test_every_exported_name_resolves():
    assert len(set(fires.__all__)) == len(fires.__all__)
    assert [name for name in fires.__all__ if not hasattr(fires, name)] == []


def test_star_import():
    namespace = {}
    exec("from fires import *", namespace)
    assert set(fires.__all__) <= set(namespace)


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    exec(section[start : section.index("```", start)], {})


# The benchmark's tracer (perfbench/tracer.py) looks these names up at run
# time and reports the metrics of any it cannot find as absent. Tier-1 does
# not run perfbench/smoke_test.py, so this is where a rename shows.
TRACED = {
    "harness": [
        "run_sweep", "run_trial", "emit_results", "correlation_matrix",
        "synthesize_channel", "optimize", "evaluate_baseline",
    ],
    "pso": ["repair_spacing", "snap_to_subarea_presets", "clamp_to_subareas", "_pair_violation_counts"],
    "rate": ["split_and_rates"],
}


def test_benchmark_hooks_resolve():
    missing = [
        f"{module}.{name}"
        for module, names in TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fires.{module}"), name, None))
    ]
    assert missing == []
    # the benchmark counts trials through run_trial(cfg, trial_index, area_m2=None)
    params = inspect.signature(harness.run_trial).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("cfg", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("trial_index", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("area_m2", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
    ]


def test_scorers_import_nothing_from_the_channel_layer():
    # the swarm and the baseline read amplitude weights, never a realization
    for module in (pso, baseline):
        tree = ast.parse(inspect.getsource(module))
        sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "channel" not in sources, module.__name__
