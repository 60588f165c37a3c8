"""Write record_corpus.json, the trial records that test_record_corpus.py
holds the program to, from the program as it stands:

    PYTHONPATH=src python tests/make_record_corpus.py

One entry per (config, sweep value, trial) of CONFIGS, off the records of
`harness.sweep_trials`: the trial's flat presets, fires and baseline rates,
and last best-so-far fitness, floats by repr. The bytes depend on the BLAS
thread count: at one and two OpenBLAS threads 97 rates differ, by up to
1.6e-10 relative (on lattices finer than half a wavelength), and no preset.
A change meant to leave every placement where it is must pass the test with
the file unchanged. Regenerate the file only with a CHANGES.md entry that
lists the entries that moved and why.
"""

import json
from pathlib import Path

from fires.harness import ExperimentConfig, sweep_trials

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


def config_entries(cfg: ExperimentConfig) -> list[dict]:
    """The corpus entries of `cfg`'s trials, trial by trial, each at every
    sweep value in order: the records of `sweep_trials`."""
    return [
        {
            "sweep_value": rec.sweep_value,
            "trial": rec.trial_index,
            "presets": list(rec.presets),
            "fires_rate": rec.fires_rate,
            "baseline_rate": rec.baseline_rate,
            "history_last": rec.history[-1],
        }
        for row in sweep_trials(cfg)
        for rec in row
    ]


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
