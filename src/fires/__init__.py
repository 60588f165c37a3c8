"""Fluid reflecting-and-emitting surface: channel simulation, closed-form
phase/split optimization, swarm placement search, and Monte Carlo sweeps."""

from .baseline import evaluate_baseline, star_ris_placement
from .channel import (
    ChannelRealization,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    correlation_matrix,
    plane_wave_field,
    synthesize_channel,
)
from .geometry import Placement, SurfaceGeometry, partition_surface
from .harness import (
    ExperimentConfig,
    ResultRecord,
    TrialRecord,
    dbm_to_watts,
    emit_results,
    run_sweep,
    run_trial,
    wavelength,
)
from .pso import PsoConfig, best_response, optimize
from .rate import RateReport, amplitude_weights

__all__ = [
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
    "TrialRecord",
    "amplitude_weights",
    "best_response",
    "correlation_matrix",
    "dbm_to_watts",
    "emit_results",
    "evaluate_baseline",
    "optimize",
    "partition_surface",
    "plane_wave_field",
    "run_sweep",
    "run_trial",
    "star_ris_placement",
    "synthesize_channel",
    "wavelength",
]
