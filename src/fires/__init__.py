"""Fluid reflecting-and-emitting surface: channel simulation, closed-form
phase/split optimization, swarm placement search, and Monte Carlo sweeps."""

from .baseline import evaluate_baseline
from .channel import (
    ChannelRealization,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    correlation_matrix,
    plane_wave_field,
    synthesize_channel,
)
from .geometry import SurfaceGeometry, partition_surface
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
from .rate import amplitude_weights

__all__ = [
    "ChannelRealization",
    "CorrelationModel",
    "ExperimentConfig",
    "LinkParams",
    "PlaneWaveField",
    "PsoConfig",
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
    "synthesize_channel",
    "wavelength",
]
