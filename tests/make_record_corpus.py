"""Write record_corpus.json, the trial records that test_record_corpus.py
holds the program to, from the program as it stands:

    PYTHONPATH=src python tests/make_record_corpus.py

The file holds one entry per (config, sweep value, trial) of CONFIGS: the
flat presets of the trial's swarm (`harness._run_swarm`), the fires and
baseline rates, and the last value of the swarm's best-so-far history,
floats written by repr. A change meant to leave every placement where it is
must pass the test with the file unchanged. Regenerate the file only with a
CHANGES.md entry that lists the entries that moved and why.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from fires.harness import ExperimentConfig, _power_share, run_trial

CORPUS = Path(__file__).with_name("record_corpus.json")

# name: (config fields, trial count); the counts were set before the file
# was first written
CONFIGS = {
    "none": ({}, 16),
    "power": ({"sweep": "power"}, 16),
    "area-m9": ({"sweep": "area", "n_subareas": 9, "m_hat": 9}, 8),
    "lattice-25x25": ({"n_h": 25, "n_v": 25}, 12),  # L = 2,500, finer than half a wavelength
    "pitches-20x10": ({"n_h": 20, "n_v": 10}, 12),  # unequal pitches: four mirror-block roots
    "spacing-1.3": ({"min_spacing": 1.3}, 12),  # spacing binds, so repair runs
    "inject-m9": ({"inject_baseline": True, "n_subareas": 9, "m_hat": 4}, 12),
    "plane-wave-45x45": ({"n_h": 45, "n_v": 45}, 6),  # L = 8,100, the plane-wave model
}


def sweep_points(cfg: ExperimentConfig) -> list[tuple[float, ExperimentConfig, float | None]]:
    """(sweep value, config, area) of each sweep value, as `run_sweep`
    varies them."""
    if cfg.sweep == "power":
        return [(p, replace(cfg, power_dbm=float(p)), None) for p in cfg.power_sweep_dbm]
    if cfg.sweep == "area":
        return [(a, cfg, float(a)) for a in cfg.area_sweep_m2]
    return [(cfg.power_dbm, cfg, None)]


def config_entries(cfg: ExperimentConfig) -> list[dict]:
    """The corpus entries of `cfg`'s trials, trial by trial, each at every
    sweep value in order. The powers of a trial share one swarm, as in
    `run_sweep`; `run_trial` leaves the swarm it ran in the share list."""
    entries = []
    for trial in range(cfg.n_trials):
        share = []
        for value, point, area in sweep_points(cfg):
            if cfg.sweep != "power":
                share = []
            token = _power_share.set(share)
            try:
                rec = run_trial(point, trial, area)
            finally:
                _power_share.reset(token)
            entries.append(
                {
                    "sweep_value": float(value),
                    "trial": trial,
                    "presets": [int(p) for p in share[0].presets],
                    "fires_rate": rec.fires_rate,
                    "baseline_rate": rec.baseline_rate,
                    "history_last": rec.history[-1],
                }
            )
    return entries


def main() -> None:
    # json writes floats by repr, so every rate reads back to the same bits
    blocks = []
    for name, (fields, n_trials) in CONFIGS.items():
        rows = ",\n".join(f"    {json.dumps(e)}" for e in config_entries(ExperimentConfig(**fields, n_trials=n_trials)))
        head = f'  {json.dumps(name)}: {{"fields": {json.dumps(fields)}, "n_trials": {n_trials}, "entries": ['
        blocks.append(f"{head}\n{rows}\n  ]}}")
    CORPUS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
