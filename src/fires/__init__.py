"""Fluid reflecting-and-emitting surface: channel simulation, closed-form
phase/split optimization, swarm placement search, and Monte Carlo sweeps."""

from .baseline import BaselineConfig, evaluate_baseline, star_ris_placement
from .channel import (
    ChannelRealization,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    correlated_nlos,
    correlation_matrix,
    plane_wave_field,
    synthesize_channel,
)
from .geometry import Placement, SurfaceGeometry, partition_surface, spacing_violations
from .harness import (
    ExperimentConfig,
    ResultRecord,
    TrialRecord,
    dbm_to_watts,
    emit_results,
    load_results,
    run_sweep,
    run_trial,
    wavelength,
)
from .pso import PsoConfig, SwarmState, best_response, brute_force_oracle, fitness, optimize
from .rate import RateReport, evaluate, optimal_phases, optimal_split, snr

__all__ = [
    "BaselineConfig",
    "ChannelRealization",
    "CorrelationModel",
    "ExperimentConfig",
    "LinkParams",
    "Placement",
    "PlaneWaveField",
    "PsoConfig",
    "RateReport",
    "ResultRecord",
    "SurfaceGeometry",
    "SwarmState",
    "TrialRecord",
    "best_response",
    "brute_force_oracle",
    "correlated_nlos",
    "correlation_matrix",
    "dbm_to_watts",
    "emit_results",
    "evaluate",
    "evaluate_baseline",
    "fitness",
    "load_results",
    "optimal_phases",
    "optimal_split",
    "optimize",
    "partition_surface",
    "plane_wave_field",
    "run_sweep",
    "run_trial",
    "snr",
    "spacing_violations",
    "star_ris_placement",
    "synthesize_channel",
    "wavelength",
]
