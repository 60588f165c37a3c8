"""The program's trial records against the committed corpus
(record_corpus.json, written by make_record_corpus.py): every placement
exactly, every rate to a tolerance that covers another BLAS or LAPACK build."""

import json

import numpy as np
import pytest

from fires.channel import DENSE_MAX_PRESETS
from fires.harness import ExperimentConfig, geometry_from_config
from make_record_corpus import CONFIGS, CORPUS, config_entries


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def rate_tolerance(cfg: ExperimentConfig, area: float | None) -> float:
    """Relative rate tolerance of a geometry: 1e-9 where the field model's
    bits vary most across builds, on lattices finer than half a wavelength,
    whose sinc blocks have near-zero eigenvalues, and on the plane-wave
    model above DENSE_MAX_PRESETS presets; 1e-12 elsewhere."""
    geom = geometry_from_config(cfg, area)
    pitches = (geom.a_h / (geom.lattice_cols - 1), geom.a_v / (geom.lattice_rows - 1))
    fine = min(pitches) < geom.wavelength / 2 or geom.n_presets > DENSE_MAX_PRESETS
    return 1e-9 if fine else 1e-12


@pytest.mark.parametrize("name", list(CONFIGS))
def test_records_match_the_corpus(name, corpus):
    fields, n_trials = CONFIGS[name]
    spec = corpus[name]
    assert (spec["fields"], spec["n_trials"]) == (fields, n_trials)
    cfg = ExperimentConfig(**fields, n_trials=n_trials)
    got = config_entries(cfg)
    want = spec["entries"]
    assert [(e["sweep_value"], e["trial"]) for e in got] == [(e["sweep_value"], e["trial"]) for e in want]
    for g, w in zip(got, want):
        where = f"{name} at {w['sweep_value']}, trial {w['trial']}"
        assert g["presets"] == w["presets"], where
        rtol = rate_tolerance(cfg, w["sweep_value"] if cfg.sweep == "area" else None)
        for key in ("fires_rate", "baseline_rate", "history_last"):
            np.testing.assert_allclose(g[key], w[key], rtol=rtol, atol=0, err_msg=f"{key} of {where}")
