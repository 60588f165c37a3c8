"""The benchmark's workloads: one fires experiment each, timed one sweep at a time.

A workload is an ExperimentConfig whose `n_trials` is the size of one timed
sweep. Each sweep k of a run gets its own master seed, derived from the
workload seed and k, so a run measures fresh Monte Carlo draws in every sweep
and the same workload seed always gives the same inputs. Why each workload
exists is written in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fires import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig  # n_trials = trials per timed sweep
    rate_sweeps: int  # the first this many sweeps define effective_rate_bps

    @property
    def sweep_values(self) -> tuple[float, ...]:
        if self.config.sweep == "power":
            return self.config.power_sweep_dbm
        if self.config.sweep == "area":
            return self.config.area_sweep_m2
        return (float(self.config.power_dbm),)

    @property
    def evaluations(self) -> int:
        """Trial evaluations (sweep values x trials) in one sweep."""
        return len(self.sweep_values) * self.config.n_trials

    @property
    def areas(self) -> list[float | None]:
        """The `area_m2` argument of run_trial for each distinct geometry."""
        return list(self.config.area_sweep_m2) if self.config.sweep == "area" else [None]

    def sweep_config(self, seed: int, k: int) -> ExperimentConfig:
        """Config of the k-th sweep of a run with workload seed `seed`."""
        master = np.random.SeedSequence([seed, k]).generate_state(1)[0]
        return replace(self.config, seed=int(master))

    def tiny(self) -> "Workload":
        """Same geometry and sweep axis with a token swarm, for smoke tests."""
        small = replace(self.config, n_trials=1, n_particles=5, n_iterations=3)
        return replace(self, config=small, rate_sweeps=1)


# Sweep sizes make one sweep take about a second on a 2-core x86 machine, so a
# run of 20 s yields enough sweeps for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("power-sweep", ExperimentConfig(sweep="power", n_trials=4), rate_sweeps=16),
        Workload(
            "dense-lattice",
            ExperimentConfig(sweep="none", n_h=25, n_v=25, n_trials=5),
            rate_sweeps=16,
        ),
        Workload(
            "area-sweep-m9",
            ExperimentConfig(sweep="area", n_subareas=9, m_hat=9, n_trials=4),
            rate_sweeps=16,
        ),
    )
}
